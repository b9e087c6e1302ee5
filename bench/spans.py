"""In-memory span recorder that wraps the ringalert functions the CLI calls.

Spans are recorded from the benchmark's side of each layer boundary: the
wrappers replace module attributes, so a call made through the module, by the
CLI or by the module's own code, opens a span. A module that imports a
function by name holds its own binding; these bindings are replaced too:
``analytics``' ``group_by_satellite`` and ``segment_passes``, ``cli``'s
``great_circle_km`` and ``interpolate``. Other by-name calls, such as
``detector.detect`` calling ``great_circle_km``, open no span, so ``geo.*``
counts only the calls ``cli`` makes itself. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

from ringalert import analytics, cli, detector, ingest, simulator


def _parse_counts(result, args, kwargs):
    counts = {"lines": result[1].total_lines}
    counts.update({f"quarantined.{cls}": n for cls, n in result[1].to_dict().items()
                   if cls not in ("total_lines", "accepted", "quarantined")})
    return counts


def _passes_counts(result, args, kwargs):
    return {"passes": len(result)}


def _windows_counts(result, args, kwargs):
    return {"windows": len(result), "records": sum(len(w.t_s) for w in result)}


#: (owner, attribute, span name, counter). ``owner`` is the object whose
#: attribute the CLI resolves at call time.
TARGETS = [
    (ingest, "parse_stream", "ingest.parse_stream", _parse_counts),
    (ingest, "write_records", "ingest.write_records", lambda r, a, k: {"lines": len(a[0])}),
    (ingest, "group_by_satellite", "ingest.group_by_satellite", None),
    (ingest, "segment_passes", "ingest.segment_passes", _passes_counts),
    # analytics imports these two by name
    (analytics, "group_by_satellite", "ingest.group_by_satellite", None),
    (analytics, "segment_passes", "ingest.segment_passes", _passes_counts),
    *[(analytics, name, f"analytics.{name}", None) for name in (
        "ground_speeds", "interarrival_stats", "packet_delivery_ratio", "pass_durations_min",
        "fit_evd", "beam_constellation", "coverage_extent", "histogram_mode")],
    (simulator, "emit_stream", "simulator.emit_stream", lambda r, a, k: {"records": len(r)}),
    (simulator, "sample_windows", "simulator.sample_windows", _windows_counts),
    (detector, "estimate_position", "detector.estimate_position", None),
    (detector, "detect", "detector.detect", None),
    (detector, "estimate_position_arrays", "detector.estimate_position_arrays", None),
    (detector, "evaluate_fp", "detector.evaluate_fp", None),
    (detector, "fp_exponent_fits", "detector.fp_exponent_fits", None),
    (detector.WindowedDetector, "push", "detector.WindowedDetector.push", None),
    (detector.WindowedDetector, "check", "detector.WindowedDetector.check", None),
    # cli imports these two by name, so its own bindings are the boundary
    (cli, "great_circle_km", "geo.great_circle_km", None),
    (cli, "interpolate", "geo.interpolate", None),
]


class Tracer:
    """Records (name, start, end, parent, run) spans while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None, "run": self.run_id,
        })
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index]["counts"] = counter(result, args, kwargs)
            return result
        return wrapper

    def _wrap_main(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            index = self._open(f"cli.{argv[0]}")
            try:
                return fn(argv)
            finally:
                self._close(index)
        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))
        self._originals.append((cli, "main", cli.main))
        cli.main = self._wrap_main(cli.main)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def layer_totals(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per span name: busy seconds, self seconds, calls and summed counts."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s["run"] == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, dict[str, float]] = {}
        for i, s in spans:
            t = totals.setdefault(s["name"], defaultdict(float))
            duration = s["end"] - s["start"]
            t["s"] += duration
            t["self_s"] += duration - child_time[i]
            t["calls"] += 1
            for key, value in s.get("counts", {}).items():
                t[key] += value
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": [[s["name"], s["start"], s["end"], s["parent"], s["run"]]
                                 for s in self.spans]}, fh)


def median_totals(per_run: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Median over traced iterations of every (span name, field) value."""
    names = {name for totals in per_run for name in totals}
    out: dict[str, dict[str, float]] = {}
    for name in names:
        fields = {f for totals in per_run for f in totals.get(name, {})}
        out[name] = {f: statistics.median(totals.get(name, {}).get(f, 0.0) for totals in per_run)
                     for f in fields}
    return out

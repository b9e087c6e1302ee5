"""The three benchmark workloads and the output checks that guard them.

Each workload drives ``ringalert.cli.main`` in-process, one command at a
time, on inputs generated from the benchmark seed:

* ``capture``: a dense ground-station capture (ROADMAP workload W1) with ~1%
  injected bad lines; parsing and record construction dominate.
* ``voyage``: a sparse, bursty capture from a moving, spoofed receiver at the
  paper's operating point, then a streaming replay through
  ``WindowedDetector``; the per-push window rebuild dominates.
* ``montecarlo``: ``evaluate`` on the corridor constellation; window
  sampling and the array estimator dominate, and no log or record objects
  exist.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from ringalert import cli, detector, ingest
from ringalert.detector import estimate_position_arrays as batch_estimate
from ringalert.geo import GeoPoint, great_circle_km
from ringalert.model import DetectorConfig, MotionProfile, valid_sat_ids
from ringalert.simulator import Scenario, SimConfig, SpoofProfile

# Bound before any tracer replaces the module attributes, so the probe and the
# output checks never show up as spans.
_cli_main = cli.main
_parse_stream = ingest.parse_stream

QUARANTINE_CLASSES = ("blank", "malformed", "invalid_sat_id", "invalid_beam_id",
                      "invalid_coordinate")

#: tests/conftest.py::corridor_config, copied so the benchmark does not import tests.
CORRIDOR = {
    "n_sats": 66, "planes": 6, "plane_nodes_deg": [-0.10, -0.06, -0.02, 0.02, 0.06, 0.10],
    "inclination_deg": 90.0, "per": 0.985, "seed": 1, "duration_s": 600.0,
}

DUPLICATE_DEFECT = "pass records must have strictly increasing timestamps"
#: While True, the duplicate-decode probe counts the ``DUPLICATE_DEFECT``
#: traceback (ROADMAP item 4) as a known defect instead of a failure. The
#: change that fixes item 4 sets it to False, so the traceback fails the run.
KNOWN_DUPLICATE_DEFECT = True


class Tally:
    """Operations attempted and failed, output checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known_defects: collections.Counter = collections.Counter()

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"bench: FAILED {what}", file=sys.stderr)
        return ok


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


class Workload:
    """Shared plumbing: timed CLI calls, cold starts and report comparison."""

    name = ""

    def __init__(self, seed: int, work: Path, tally: Tally, root: Path):
        self.seed = seed
        self.work = work
        self.tally = tally
        self.root = root
        self.counts: dict[str, float] = {}
        self._first_digests: dict[str, dict[str, str]] = {}

    def path(self, name: str) -> str:
        return str(self.work / name)

    def cli(self, argv: list[str]) -> float:
        """Run one CLI command in-process; return its wall time."""
        gc.collect()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start
        self.tally.record(rc == 0, f"{argv[0]} exited {rc}")
        return elapsed

    def cold_start(self, argv: list[str]) -> float:
        """Run one CLI command in a fresh interpreter; return its wall time."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ringalert.cli", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - start
        self.tally.record(proc.returncode == 0,
                          f"cold {argv[0]} exited {proc.returncode}: {proc.stderr[-300:]!r}")
        return elapsed

    def same_as_first(self, key: str, digests: dict[str, str]) -> None:
        """Reports of every iteration must equal the first iteration's, byte for byte."""
        first = self._first_digests.setdefault(key, digests)
        self.tally.record(digests == first and bool(digests), f"{key} reports differ across runs")

    def side(self) -> None:
        """Operations run after each untraced iteration, outside the timed chain."""

    def report_dir(self, name: str) -> str:
        path = self.work / "reports" / name
        path.mkdir(parents=True, exist_ok=True)
        return str(path)


def _log_counts(path: str) -> tuple[int, int]:
    """(records, beam records) of a well-formed log."""
    records = beams = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            records += 1
            beams += line.split()[3] != "0"
    return records, beams


def _summary(report: str, name: str) -> dict:
    with open(Path(report) / name, encoding="utf-8") as fh:
        return json.load(fh)


def _write_corridor(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CORRIDOR, fh)


class LogWorkload(Workload):
    """A workload that runs simulate, ingest, analyze and detect on one log."""

    def rates(self, t: dict[str, float]) -> dict[str, float]:
        c = self.counts
        return {"simulate_records_per_s": c["records"] / t["simulate_s"],
                "ingest_lines_per_s": c["lines"] / t["ingest_s"],
                "analyze_lines_per_s": c["lines"] / t["analyze_s"],
                "detect_lines_per_s": c["lines"] / t["detect_s"]}


# ---------------------------------------------------------------------------
# capture

class Capture(LogWorkload):
    name = "capture"
    receiver = "60,10"
    window_n = 500
    bad_share = 0.01

    def setup(self) -> None:
        self.small = self.path("small.log")
        with contextlib.redirect_stdout(io.StringIO()):
            _cli_main(["simulate", "--duration", "300", "--per", "0.0",
                       "--receiver", self.receiver, "--seed", "1", "--output", self.small,
                       "--track-out", self.path("small.trk")])
        with open(self.small, encoding="utf-8") as fh:
            lines = fh.readlines()
        dup = np.random.default_rng([self.seed, 2]).integers(len(lines))
        self.probe_log = self.path("probe.log")
        with open(self.probe_log, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:dup + 1] + lines[dup:])
        # warm lazy imports (scipy.spatial in coverage) and the command paths
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["ingest", "--input", self.small],
                         ["analyze", "--input", self.small, "--receiver", self.receiver],
                         ["detect", "--input", self.small, "--threshold-km", "20",
                          "--window-n", str(self.window_n), "--gnss-track", self.path("small.trk")]):
                _cli_main([*argv, "--report", self.report_dir("warm")])

    def _inject(self, clean: str, dirty: str) -> dict[str, int]:
        """Copy ``clean`` to ``dirty`` with a seeded ~1% of bad lines of every class."""
        rng = np.random.default_rng([self.seed, 1])
        with open(clean, encoding="utf-8") as fh:
            good = fh.read().splitlines()
        n_bad = round(len(good) * self.bad_share)
        classes = [QUARANTINE_CLASSES[i % len(QUARANTINE_CLASSES)] for i in range(n_bad)]
        bad_sat_ids = sorted(set(range(1, 200)) - valid_sat_ids())
        bad = []
        for cls, src in zip(classes, rng.integers(len(good), size=n_bad)):
            f = good[src].split()
            if cls == "blank":
                bad.append("")
            elif cls == "malformed":
                bad.append(" ".join(f[:5]) if rng.random() < 0.5 else " ".join(f[:4] + ["x", f[5]]))
            elif cls == "invalid_sat_id":
                bad.append(" ".join(f[:2] + [str(rng.choice(bad_sat_ids))] + f[3:]))
            elif cls == "invalid_beam_id":
                bad.append(" ".join(f[:3] + [str(rng.integers(49, 100))] + f[4:]))
            else:
                bad.append(" ".join(f[:4] + [f"{rng.uniform(90.5, 99.0):+010.6f}", f[5]]))
        out = list(good)
        for pos, line in sorted(zip(rng.integers(len(good) + 1, size=n_bad), bad),
                                key=lambda x: -x[0]):
            out.insert(pos, line)
        with open(dirty, "w", encoding="utf-8") as fh:
            fh.write("\n".join(out) + "\n")
        injected = collections.Counter(classes)
        return {cls: injected[cls] for cls in QUARANTINE_CLASSES}

    def iteration(self) -> dict[str, float]:
        """One pass of the chain; returns the wall time of each step."""
        clean, log, track = self.path("clean.log"), self.path("capture.log"), self.path("track.txt")
        t = {"simulate_s": self.cli([
            "simulate", "--duration", "7200", "--per", "0.0", "--receiver", self.receiver,
            "--seed", str(self.seed), "--output", clean, "--track-out", track])}
        injected = self._inject(clean, log)
        rep = {c: self.report_dir(c) for c in ("ingest", "analyze", "detect")}
        t["ingest_s"] = self.cli(["ingest", "--input", log, "--report", rep["ingest"]])
        t["analyze_s"] = self.cli(["analyze", "--input", log, "--receiver", self.receiver,
                                   "--report", rep["analyze"]])
        t["detect_s"] = self.cli(["detect", "--input", log, "--threshold-km", "20",
                                  "--window-n", str(self.window_n), "--gnss-track", track,
                                  "--report", rep["detect"]])
        self._check(clean, log, injected, rep)
        return t

    def _check(self, clean, log, injected, rep) -> None:
        records, beams = _log_counts(clean)
        report = _summary(rep["ingest"], "ingest_summary.json")["report"]
        reconciles = (report["total_lines"] == report["accepted"] + report["blank"]
                      + report["quarantined"] == records + sum(injected.values()))
        self.tally.record(reconciles and report["accepted"] == records,
                          f"ingest counters do not reconcile: {report}")
        for cls in QUARANTINE_CLASSES:
            self.tally.record(report[cls] == injected[cls],
                              f"ingest {cls}: {report[cls]} != injected {injected[cls]}")
        analyze = _summary(rep["analyze"], "analyze_summary.json")
        mode = analyze.get("speed", {}).get("mode_kms")
        self.tally.record(mode is not None and abs(mode - 6.90) <= 0.05,
                          f"analyze speed mode {mode} outside 6.90 +- 0.05 km/s")
        windows = _summary(rep["detect"], "detect_summary.json")["windows"]
        self.tally.record(windows == beams // self.window_n,
                          f"detect windows {windows} != {beams} // {self.window_n}")
        self.same_as_first("capture", {
            "clean.log": hashlib.sha256(Path(clean).read_bytes()).hexdigest(),
            **{f"{c}/{k}": v for c in rep for k, v in digest_dir(Path(rep[c])).items()}})
        self.counts.update({
            "records": records, "lines": records + sum(injected.values()),
            **{f"quarantined.{c}": n for c, n in injected.items()},
            "passes": analyze["passes"]["count"], "speed_samples": analyze["speed"]["samples"],
            "detect_windows": windows, "detect_tail_beams": beams - windows * self.window_n,
        })

    def side(self) -> None:
        """Duplicate-decode probe: ``analyze`` on a log holding one duplicated
        line must exit 0 or 2.

        While ``KNOWN_DUPLICATE_DEFECT`` holds, the ROADMAP item 4 traceback
        (``Pass`` rejecting equal timestamps) is counted as a known defect;
        any other outcome fails the run.
        """
        rc = None
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = _cli_main(["analyze", "--input", self.probe_log,
                                "--report", self.report_dir("probe")])
        except ValueError as exc:
            if KNOWN_DUPLICATE_DEFECT and DUPLICATE_DEFECT in str(exc):
                self.tally.attempted += 1
                self.tally.known_defects["duplicate_decode_traceback"] += 1
                return
            traceback.print_exc()
        except Exception:
            traceback.print_exc()
        self.tally.record(rc in (0, 2), f"duplicate probe exited {rc}")

    def cold(self) -> float:
        return self.cold_start(["analyze", "--input", self.small, "--receiver", self.receiver,
                                "--report", self.report_dir("cold")])


# ---------------------------------------------------------------------------
# voyage

class Voyage(LogWorkload):
    name = "voyage"
    duration_s = 6 * 3600
    motion = "0,0,0,46"  # cruise class S5 at its top speed
    window_n = 6100
    timed_pushes = 1000  # p99 then has ten samples beyond it
    check_every = 100

    def _sim_args(self, duration_s: float, seed: int, log: str, track: str) -> list[str]:
        return ["simulate", "--config", self.corridor, "--duration", str(duration_s),
                "--per", "0.985", "--loss-model", "burst", "--seed", str(seed),
                "--motion", self.motion, "--spoof", f"{duration_s / 2},90,50",
                "--output", log, "--track-out", track]

    def setup(self) -> None:
        self.corridor = self.path("corridor.json")
        _write_corridor(self.corridor)
        self.small, self.small_track = self.path("small.log"), self.path("small.trk")
        with contextlib.redirect_stdout(io.StringIO()):
            _cli_main(self._sim_args(3600, 1, self.small, self.small_track))
            for argv in (["ingest", "--input", self.small],
                         ["analyze", "--input", self.small, "--receiver", "0,0"],
                         ["detect", "--input", self.small, "--threshold-km", "20",
                          "--window-n", "500", "--gnss-track", self.small_track,
                          "--motion", self.motion]):
                _cli_main([*argv, "--report", self.report_dir("warm")])
        lat, lon, course, speed = (float(x) for x in self.motion.split(","))
        self.motion_profile = MotionProfile(GeoPoint(lat, lon), course, speed)
        self.scenario = Scenario(self.motion_profile,
                                 SpoofProfile(self.duration_s / 2, 90.0, 50.0))
        self.start_epoch = SimConfig().start_epoch_s

    def iteration(self) -> dict[str, float]:
        log, track = self.path("voyage.log"), self.path("track.txt")
        rep = {c: self.report_dir(c) for c in ("ingest", "analyze", "detect")}
        t = {"simulate_s": self.cli(self._sim_args(self.duration_s, self.seed, log, track))}
        t["ingest_s"] = self.cli(["ingest", "--input", log, "--report", rep["ingest"]])
        t["analyze_s"] = self.cli(["analyze", "--input", log, "--receiver", "0,0",
                                   "--report", rep["analyze"]])
        t["detect_s"] = self.cli(["detect", "--input", log, "--threshold-km", "20",
                                  "--window-n", str(self.window_n), "--gnss-track", track,
                                  "--motion", self.motion, "--report", rep["detect"]])
        t["replay_s"], t["push_latencies"] = self.replay(log)
        self._check(log, rep)
        return t

    def replay(self, log: str) -> tuple[float, list[float]]:
        """Push the log through a ``WindowedDetector``, checking after each push.

        Returns the time spent in push + check and the latency of each timed
        push. Only the first ``timed_pushes`` pushes after the window fills
        are timed one by one; every ``check_every``-th of them is compared
        with the batch estimator.
        """
        records, _ = _parse_stream(log)
        fill = np.flatnonzero(np.cumsum([r.beam_id >= 1 for r in records]) == self.window_n)
        end = (int(fill[0]) + 1 if fill.size else len(records)) + self.timed_pushes
        reported = [self.scenario.reported_position(r.timestamp() - self.start_epoch)
                    for r in records[:end]]
        config = DetectorConfig(20.0, self.window_n)
        wd = detector.WindowedDetector(config, self.motion_profile)
        mirror: collections.deque = collections.deque(maxlen=self.window_n)
        gc.collect()
        fill_start = time.perf_counter()
        i = 0
        while i < len(reported) and wd.latest_estimate is None:
            if records[i].beam_id >= 1:
                mirror.append(records[i])
            wd.push(records[i])
            wd.check(reported[i])
            i += 1
        busy = time.perf_counter() - fill_start
        gc.collect()
        latencies = []
        for i in range(i, len(reported)):
            record, g_pos = records[i], reported[i]
            start = time.perf_counter()
            wd.push(record)
            outcome = wd.check(g_pos)
            elapsed = time.perf_counter() - start
            busy += elapsed
            latencies.append(elapsed)
            if record.beam_id >= 1:
                mirror.append(record)
            if len(latencies) % self.check_every == 0:
                self._check_stream(wd, outcome, mirror, g_pos, config)
        self.tally.record(len(latencies) == self.timed_pushes,
                          f"only {len(latencies)} pushes after the window filled")
        self.tally.attempted += len(latencies)
        return busy, latencies

    def _check_stream(self, wd, outcome, mirror, g_pos, config) -> None:
        """Streaming estimate within 0.1 km of the batch one, same alarm."""
        lat = np.array([r.ground.lat_deg for r in mirror])
        lon = np.array([r.ground.lon_deg for r in mirror])
        t_s = np.array([r.epoch_s + r.frac * 1e-6 for r in mirror])
        batch = batch_estimate(lat, lon, t_s, self.motion_profile)
        stream = wd.latest_estimate
        gap_km = great_circle_km(stream.i_pos, batch.i_pos).km
        batch_alarm = great_circle_km(batch.i_pos, g_pos).km > config.threshold_km
        self.tally.record(gap_km <= 0.1 and outcome is not None and outcome.alarm == batch_alarm,
                          f"stream estimate {gap_km:.4f} km from batch, alarm "
                          f"{None if outcome is None else outcome.alarm} vs {batch_alarm}")

    def _check(self, log, rep) -> None:
        records, beams = _log_counts(log)
        report = _summary(rep["ingest"], "ingest_summary.json")["report"]
        self.tally.record(report["total_lines"] == report["accepted"] == records,
                          f"ingest counters do not reconcile: {report}")
        analyze = _summary(rep["analyze"], "analyze_summary.json")
        windows = _summary(rep["detect"], "detect_summary.json")["windows"]
        self.tally.record(windows == beams // self.window_n,
                          f"detect windows {windows} != {beams} // {self.window_n}")
        self.same_as_first("voyage", {f"{c}/{k}": v for c in rep
                                      for k, v in digest_dir(Path(rep[c])).items()})
        self.counts.update({
            "records": records, "lines": records,
            "passes": analyze["passes"]["count"],
            "speed_samples": analyze.get("speed", {}).get("samples", 0),
            "detect_windows": windows, "detect_tail_beams": beams - windows * self.window_n,
        })

    def cold(self) -> float:
        return self.cold_start(["detect", "--input", self.small, "--threshold-km", "20",
                                "--window-n", "500", "--gnss-track", self.small_track,
                                "--motion", self.motion, "--report", self.report_dir("cold")])


# ---------------------------------------------------------------------------
# montecarlo

class MonteCarlo(Workload):
    name = "montecarlo"
    n_grid = (10, 100, 1000, 10000)
    thresholds = (10, 15, 20)
    windows = 100

    def _args(self, n_grid, thresholds, windows, seed, report) -> list[str]:
        return ["evaluate", "--config", self.corridor, "--per", "0.985", "--seed", str(seed),
                "--n-grid", ",".join(map(str, n_grid)),
                "--thresholds", ",".join(map(str, thresholds)),
                "--windows", str(windows), "--receiver", "0,0", "--report", report]

    def setup(self) -> None:
        self.corridor = self.path("corridor.json")
        _write_corridor(self.corridor)
        with contextlib.redirect_stdout(io.StringIO()):
            _cli_main(self._args((10, 20, 30), (10,), 3, 1, self.report_dir("warm")))

    def iteration(self) -> dict[str, float]:
        rep = self.report_dir("evaluate")
        elapsed = self.cli(self._args(self.n_grid, self.thresholds, self.windows, self.seed, rep))
        self._check(Path(rep))
        return {"evaluate_s": elapsed}

    def _check(self, rep: Path) -> None:
        rows = [line.split("\t") for line in
                (rep / "fp_rates.tsv").read_text(encoding="utf-8").splitlines()[1:]]
        rate = {(int(n), float(thr)): float(r) for n, thr, _, r in rows}
        for thr in self.thresholds:
            lo, hi = rate.get((self.n_grid[-1], thr)), rate.get((self.n_grid[0], thr))
            self.tally.record(lo is not None and hi is not None and lo < hi,
                              f"fp rate at n={self.n_grid[-1]} ({lo}) not below "
                              f"n={self.n_grid[0]} ({hi}) for {thr} km")
        self.same_as_first("montecarlo", {"fp_rates.tsv": digest_dir(rep)["fp_rates.tsv"]})
        per_n = collections.Counter()
        for n, thr, windows, _ in rows:
            if float(thr) == self.thresholds[0]:
                per_n[int(n)] += int(windows)
        self.counts.update({f"evaluate_windows.n{n}": per_n[n] for n in self.n_grid})
        self.counts["evaluate_windows"] = sum(per_n.values())

    def cold(self) -> float:
        return self.cold_start(self._args((10,), (10,), 10, 1, self.report_dir("cold")))

    def rates(self, t: dict[str, float]) -> dict[str, float]:
        return {"evaluate_windows_per_s": self.counts["evaluate_windows"] / t["evaluate_s"]}


WORKLOADS = {w.name: w for w in (Capture, Voyage, MonteCarlo)}

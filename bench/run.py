"""Benchmark of the ringalert pipeline on fixed-seed synthetic workloads.

Run from the repository root:

    python3 bench/run.py --workload capture --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` next to this directory; nothing is
installed. One process runs one workload, single-threaded: the workload is
set up, then its chain of CLI commands repeats until ``--seconds`` have
passed. The first pass is a warm-up whose outputs are checked but whose times
are discarded. Between the later passes, set-up (in a fresh directory) and a
fresh-interpreter start are repeated a fixed number of times, spread evenly
over the run; ``setup_s`` and ``cold_start_s`` are their medians. Every pass
checks its outputs. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (see BENCHMARK.json); with ``--trace 1``
passes alternate untraced and traced, and the metrics are the per-layer
ones taken from spans recorded around the ringalert functions the CLI calls.
Spans are written to ``bench/_work/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"

SETUP_REPEATS = 7
MIN_ITERATIONS = 3
MIN_TRACE_ITERATIONS = 2
COLD_STARTS = 10


def _load_program():
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    if not (SRC / "ringalert" / "__init__.py").is_file():
        sys.exit(f"bench: no ringalert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ringalert

    if Path(ringalert.__file__).resolve().parent != SRC / "ringalert":
        sys.exit(f"bench: imported ringalert from {ringalert.__file__}, not {SRC}")


def environment() -> dict:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "loadavg": loadavg,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _median_of(iterations: list[dict], key: str) -> float:
    return statistics.median(it[key] for it in iterations)


def _steps(iteration: dict) -> list[str]:
    return [key for key in iteration if key.endswith("_s")]


def pipeline_s(iterations: list[dict]) -> float:
    """Sum over the chain's steps of each step's median wall time."""
    return sum(_median_of(iterations, step) for step in _steps(iterations[0]))


def stage_metrics(workload, iterations: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-command figures of the workload, from untraced iterations."""
    medians = {k: _median_of(iterations, k) for k in _steps(iterations[0])}
    out = {name: (value, "1/s") for name, value in workload.rates(medians).items()}
    latencies = [x for it in iterations for x in it.get("push_latencies", [])]
    if latencies:
        out["push_records_per_s"] = (len(latencies) / sum(latencies), "1/s")
        out["push_p50_us"] = (statistics.median(latencies) * 1e6, "us")
        out["push_p99_us"] = (percentile(latencies, 0.99) * 1e6, "us")
    tally = workload.tally
    out["error_rate"] = (tally.failed / max(1, tally.attempted), "ratio")
    return out


# ---------------------------------------------------------------------------
# per-layer metrics of the traced run

_SPAN_TIMES = [
    "ingest.parse_stream", "ingest.write_records", "ingest.group_by_satellite",
    "ingest.segment_passes",
    *(f"analytics.{n}" for n in ("ground_speeds", "interarrival_stats", "packet_delivery_ratio",
                                  "pass_durations_min", "fit_evd", "beam_constellation",
                                  "coverage_extent", "histogram_mode")),
    "simulator.emit_stream", "simulator.sample_windows",
    "detector.estimate_position", "detector.detect", "geo.interpolate",
    "detector.estimate_position_arrays", "geo.great_circle_km", "detector.evaluate_fp",
    "detector.fp_exponent_fits", "detector.WindowedDetector.push",
    "detector.WindowedDetector.check",
]
_SPAN_CALLS = ["ingest.segment_passes", "detector.estimate_position", "geo.interpolate",
               "detector.estimate_position_arrays", "geo.great_circle_km",
               "detector.WindowedDetector.push"]
_COMMANDS = ["simulate", "ingest", "analyze", "detect", "evaluate"]
_QUARANTINE = ["blank", "malformed", "invalid_sat_id", "invalid_beam_id", "invalid_coordinate"]
_OUTSIDE_COUNTS = ["passes", "speed_samples", "detect_windows", "detect_tail_beams",
                   "timed_pushes", "evaluate_windows.n10", "evaluate_windows.n100",
                   "evaluate_windows.n1000", "evaluate_windows.n10000"]
_STAGES = [("simulate_records_per_s", "1/s", "higher"), ("ingest_lines_per_s", "1/s", "higher"),
           ("analyze_lines_per_s", "1/s", "higher"), ("detect_lines_per_s", "1/s", "higher"),
           ("evaluate_windows_per_s", "1/s", "higher"), ("push_records_per_s", "1/s", "higher"),
           ("push_p50_us", "us", "lower"), ("push_p99_us", "us", "lower"),
           ("error_rate", "ratio", "lower")]

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    *((f"{n}.s", "s", "lower") for n in _SPAN_TIMES),
    *((f"{n}.calls", "count", "lower") for n in _SPAN_CALLS),
    ("ingest.parse_stream.lines", "count", "higher"),
    ("ingest.parse_stream.lines_per_s", "1/s", "higher"),
    ("ingest.parse_stream.share", "ratio", "lower"),
    *((f"ingest.parse_stream.quarantined.{c}", "count", "lower") for c in _QUARANTINE),
    ("ingest.write_records.lines_per_s", "1/s", "higher"),
    ("ingest.segment_passes.passes", "count", "higher"),
    ("simulator.emit_stream.records_per_s", "1/s", "higher"),
    ("simulator.sample_windows.windows", "count", "higher"),
    ("simulator.sample_windows.records_per_s", "1/s", "higher"),
    *((f"cli.{c}.self_s", "s", "lower") for c in _COMMANDS),
    ("trace.overhead_pipeline_s", "s", "lower"),
    ("trace.overhead_evaluate_windows_per_s", "1/s", "higher"),
    *((f"counts.{c}", "count", "higher") for c in _OUTSIDE_COUNTS),
    ("counts.duplicate_decode_tracebacks", "count", "lower"),
    *((f"stage.{name}", unit, better) for name, unit, better in _STAGES),
]


def per_layer_metrics(workload, totals: dict, untraced: list[dict], traced: list[dict]) -> dict:
    def get(name, field):
        return totals.get(name, {}).get(field, 0.0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    values = {f"{n}.s": get(n, "s") for n in _SPAN_TIMES}
    values.update({f"{n}.calls": get(n, "calls") for n in _SPAN_CALLS})
    parse_s = get("ingest.parse_stream", "s")
    values.update({
        "ingest.parse_stream.lines": get("ingest.parse_stream", "lines"),
        "ingest.parse_stream.lines_per_s": rate(get("ingest.parse_stream", "lines"), parse_s),
        "ingest.parse_stream.share": parse_s / pipeline_s(traced),
        **{f"ingest.parse_stream.quarantined.{c}": get("ingest.parse_stream", f"quarantined.{c}")
           for c in _QUARANTINE},
        "ingest.write_records.lines_per_s": rate(get("ingest.write_records", "lines"),
                                                 get("ingest.write_records", "s")),
        "ingest.segment_passes.passes": get("ingest.segment_passes", "passes"),
        "simulator.emit_stream.records_per_s": rate(get("simulator.emit_stream", "records"),
                                                    get("simulator.emit_stream", "s")),
        "simulator.sample_windows.windows": get("simulator.sample_windows", "windows"),
        "simulator.sample_windows.records_per_s": rate(
            get("simulator.sample_windows", "records"), get("simulator.sample_windows", "s")),
        **{f"cli.{c}.self_s": get(f"cli.{c}", "self_s") for c in _COMMANDS},
        "trace.overhead_pipeline_s": pipeline_s(traced) - pipeline_s(untraced),
        "trace.overhead_evaluate_windows_per_s": 0.0,
        **{f"counts.{c}": workload.counts.get(c, 0) for c in _OUTSIDE_COUNTS},
        "counts.duplicate_decode_tracebacks":
            workload.tally.known_defects["duplicate_decode_traceback"],
    })
    if "evaluate_s" in traced[0]:
        windows = workload.counts["evaluate_windows"]
        values["trace.overhead_evaluate_windows_per_s"] = (
            windows / _median_of(traced, "evaluate_s") - windows / _median_of(untraced, "evaluate_s"))
    stages = stage_metrics(workload, untraced)
    values.update({f"stage.{name}": stages.get(name, (0.0, unit))[0] for name, unit, _ in _STAGES})
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["capture", "voyage", "montecarlo"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _load_program()
    import spans
    import workloads

    env_start = environment()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        tally = workloads.Tally()
        setup_times: list[float] = []
        cold: list[float] = []

        def set_up():
            """Build and set up the workload in a fresh directory, timed."""
            begin = time.perf_counter()
            fresh = workloads.WORKLOADS[args.workload](args.seed, work / f"run{len(setup_times)}",
                                                       tally, ROOT)
            fresh.work.mkdir(parents=True)
            fresh.setup()
            setup_times.append(time.perf_counter() - begin)
            return fresh

        def catch_up(share: float) -> None:
            """Repeat set-up and fresh-interpreter starts, spread evenly over the run."""
            while len(setup_times) < SETUP_REPEATS * share:
                set_up()
            while len(cold) < COLD_STARTS * share:
                cold.append(workload.cold())

        workload = set_up()
        tracer = spans.Tracer() if args.trace else None
        untraced, traced, per_run_totals = [], [], []
        start = time.perf_counter()
        workload.iteration()  # warm-up pass: outputs checked, times discarded
        workload.side()
        last = time.perf_counter()
        minimum = MIN_TRACE_ITERATIONS if tracer else MIN_ITERATIONS
        longest = 0.0
        # stop before an iteration that would end past --seconds
        while (time.perf_counter() - start + longest <= args.seconds
               or len(untraced) + len(traced) < minimum):
            if tracer is not None and len(untraced) > len(traced):
                tracer.run_id = f"{args.workload}-{args.seed}-{len(traced)}"
                tracer.install()
                try:
                    traced.append(workload.iteration())
                finally:
                    tracer.uninstall()
                per_run_totals.append(tracer.layer_totals(tracer.run_id))
            else:
                untraced.append(workload.iteration())
                workload.side()
                if tracer is None:
                    catch_up(min(1.0, (time.perf_counter() - start) / args.seconds))
            now = time.perf_counter()
            longest, last = max(longest, now - last), now
        if tracer is None:
            catch_up(1.0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if "push_latencies" in untraced[0]:
            workload.counts["timed_pushes"] = sum(len(it["push_latencies"]) for it in untraced)

        if tracer is None:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "cold_start_s": {"value": statistics.median(cold), "unit": "s"},
                "pipeline_s": {"value": pipeline_s(untraced), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            stages = stage_metrics(workload, untraced)
        else:
            metrics = per_layer_metrics(workload, spans.median_totals(per_run_totals),
                                        untraced, traced)
            tracer.write(WORK_ROOT / f"spans-{args.workload}-{args.seed}.json")
            stages = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# env start {json.dumps(env_start)}")
    print(f"# env end {json.dumps(environment())}")
    print(f"# {args.workload} seed={args.seed} iterations untraced={len(untraced)} "
          f"traced={len(traced)} setups={[round(s, 4) for s in setup_times]}")
    for kind, runs in (("untraced", untraced), ("traced", traced)):
        for it in runs:
            print(f"# {kind} " + " ".join(f"{k}={it[k]:.4f}" for k in _steps(it)))
    for name, value in sorted(workload.counts.items()):
        print(f"# count {name} {value}")
    for name, count in sorted(tally.known_defects.items()):
        print(f"# known_defect {name} {count}")
    for name, (value, unit) in stages.items():
        print(f"# {name} {value:.6g} {unit}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""sc7core benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload series-table --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds `src/sc7core`.  The workload
runs for `--seconds` as passes over its CLI calls, each pass in a fresh
worker interpreter, one call at a time, and every output is checked.
With `--trace 0` the result carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run.  The comparable
record (git SHA, Python, nproc, seed, sizes, error rate) is printed on
the line before the result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import host_scale, sample
from tracer import METRICS as LAYER_METRICS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MiB"}
PER_LAYER = dict(LAYER_METRICS, **{"trace.overhead_pct": "%", "cli.import_s": "s"})

SETUP_RUNS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from sc7core.cli import main; "
              "sys.exit(main(['sc7', '9', '--route', 'theorem']))")
SETUP_OUTPUT = '{"n": 9, "route": "theorem", "value": 2, "D_n": 308, "H": 8}\n'
# A worker gets this long beyond --seconds before it is stopped.
WORKER_GRACE_S = 100


def measure_setup(src: Path, runs: int = SETUP_RUNS):
    """Seconds, at reference host speed, for a fresh interpreter to import
    sc7core.cli and answer `sc7 9 --route theorem`, after one untimed run
    that fills the bytecode cache; and the number of wrong answers."""
    times, failed, refs = [], 0, []
    sample(refs)
    for i in range(runs + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src)],
                              capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - start
        sample(refs)
        if i:
            times.append((start, elapsed))
            failed += proc.returncode != 0 or proc.stdout != SETUP_OUTPUT
    times = [(elapsed, host_scale(start, start + elapsed, refs)) for start, elapsed in times]
    return times, failed


def run_worker(src: Path, ops, trace: bool, timeout: float):
    """Runs one pass in a fresh worker; returns its per-call records and its summary."""
    spec = json.dumps({"ops": ops, "trace": trace})
    proc = subprocess.run([sys.executable, str(WORKER), str(src)], input=spec,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return lines[:-1], lines[-1]["summary"]


def run_passes(src: Path, ops, seconds: float, trace: bool):
    """Runs passes, each in a fresh worker, until the next pass would end
    after `seconds`: at least one, and with `trace` at least two, which
    alternate untraced and traced.  Returns [{"traced", "calls", "summary"}]."""
    passes = []
    begin = perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        start = perf_counter()
        calls, summary = run_worker(src, ops, traced, seconds + WORKER_GRACE_S)
        passes.append({"traced": traced, "calls": calls, "summary": summary})
        longest = max(longest, perf_counter() - start)
        if len(passes) >= (2 if trace else 1) and perf_counter() - begin + longest > seconds:
            return passes


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(setup_s, wall_s, op_ms, rss_kb) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(wall_s),
        "op_p50_ms": quantile(op_ms, 0.5),
        "op_p90_ms": quantile(op_ms, 0.9),
        "peak_rss_mb": rss_kb / 1024,
    }


def measure(workload, src: Path, seconds: float, trace: bool) -> dict:
    """Runs `workload` and returns the result object plus the record fields."""
    setup, setup_failed = ([], 0) if trace else measure_setup(src)
    passes = run_passes(src, workload.ops, seconds, trace)
    failures, calls = [], []
    for p in passes:
        p["wall"] = p["raw_wall"] = 0.0  # sums of the pass's latencies, scaled and not
        for c in p["calls"]:
            if c["rc"] != 0:
                failures.append(f"{workload.ops[c['op']]}: exit {c['rc']}: {c['err'][-300:]}")
            else:
                failure = workload.check(c["op"], c["out"])
                if failure:
                    failures.append(failure)
            c["scale"] = host_scale(c["start"], c["start"] + c["lat_s"], p["summary"]["refs"])
            p["wall"] += c["lat_s"] * c["scale"]
            p["raw_wall"] += c["lat_s"]
        calls += p["calls"]
    for failure in failures[:5]:
        print(f"check failed: {failure}", file=sys.stderr)
    attempted = len(calls) + len(setup)
    failed = len(failures) + setup_failed

    summaries = [p["summary"] for p in passes]
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = [p["summary"]["layers"] for p in traced]
        values = {name: statistics.median_low(layer[name] for layer in layers)
                  for name in layers[0]}
        for name in traced[0]["summary"]["scaling"]:
            values[name] = statistics.median(p["summary"]["scaling"][name] for p in traced)
        untraced_wall = statistics.median(p["wall"] for p in passes if not p["traced"])
        values["trace.overhead_pct"] = 100 * (
            statistics.median(p["wall"] for p in traced) / untraced_wall - 1)
        values["cli.import_s"] = statistics.median(s["import_s"] for s in summaries)
        units, raw = PER_LAYER, {}
    else:
        rss_kb = statistics.median(s["rss_kb"] for s in summaries)
        values = end_to_end([t * k for t, k in setup], [p["wall"] for p in passes],
                            [1000 * c["lat_s"] * c["scale"] for c in calls], rss_kb)
        raw = end_to_end([t for t, _ in setup], [p["raw_wall"] for p in passes],
                         [1000 * c["lat_s"] for c in calls], rss_kb)
        units = END_TO_END
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}},
        "passes": len(passes),
        "calls": len(calls),
        "unscaled": raw,
        "host_scale": statistics.median(c["scale"] for c in calls),
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sc7core" / "cli.py").is_file():
        print(f"error: no sc7core sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed)
    run = measure(workload, SRC, args.seconds, bool(args.trace))
    result = run["result"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "sizes": workload.sizes,
        "passes": run["passes"], "calls": run["calls"],
        "unscaled": run["unscaled"], "host_scale": run["host_scale"],
        "error_rate": result["failed"] / result["attempted"], **result,
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

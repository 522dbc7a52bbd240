"""Runs one pass of a workload's CLI calls in a fresh interpreter, so that
the pass's memory is its own and nothing it leaves behind (a cache, a
sieve) serves another pass.

    python3 worker.py SRC < spec.json

SRC is the directory that holds `sc7core`.  The spec on stdin is
{"ops", "trace"}.  The worker runs every call in `ops` once, one at a
time, traced if "trace" is set.  Before the first call, after every call
that ends half a second or more after the last one, and after the last
call, it times the reference task of hostspeed.py.  Then, outside the
timed region, it writes one JSON line per call ({"op", "rc", "out",
"err", "start", "lat_s"}) and a summary line ({"summary": ...}).
"""

import sys
from time import perf_counter

# sc7core.cli is imported before anything else the worker needs, so that
# import_s holds all the import-time work of sc7core, stdlib modules included.
sys.path.insert(0, sys.argv[1])
_start = perf_counter()
import sc7core.cli as cli  # noqa: E402
IMPORT_S = perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REFERENCE_EVERY_S, sample  # noqa: E402


def run_op(argv):
    """One closed-loop call of sc7core.cli.main: (exit code, stdout, stderr,
    start time, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)  # looked up per call so a traced wrapper is used
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), start, perf_counter() - start


def peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB.

    Linux carries ru_maxrss over fork and exec, so a child's ru_maxrss is
    at least its parent's peak; VmHWM counts this address space alone.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the sources under {src}", file=sys.stderr)
        return 2
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    refs = []  # (midpoint, seconds) of each run of the host-speed reference task
    sample(refs)
    last_ref = perf_counter()
    results = []
    for i, argv in enumerate(spec["ops"]):
        if perf_counter() - last_ref >= REFERENCE_EVERY_S:
            sample(refs)
            last_ref = perf_counter()
        if tracer:
            tracer.op = i
        results.append(run_op(argv))
    sample(refs)
    if tracer:
        tracer.uninstall()

    for i, (rc, out, err, start, lat) in enumerate(results):
        print(json.dumps({"op": i, "rc": rc, "out": out, "err": err,
                          "start": start, "lat_s": lat}))
    summary = {"refs": refs, "import_s": IMPORT_S, "rss_kb": peak_rss_kb()}
    if tracer:
        summary["layers"] = tracer.layer_metrics()
        summary["scaling"] = tracer.scaling_exponents()
    print(json.dumps({"summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the HBM-PIM simulator, one workload per run.

    python3 e2ebench/run.py --workload serve_gemv --seed 1 --seconds 20 --trace 0

Each run starts its measuring session in a fresh interpreter
(``session.py``).  An untraced run (``--trace 0``) reports every
end-to-end metric of ``BENCHMARK.json``; set-up time is the median of
several fresh-interpreter set-ups.  A traced run (``--trace 1``) reports
every per-layer metric instead.  The run prints each metric with its unit,
then, as its last line, one JSON object::

    {"correct": true, "attempted": 640, "failed": 0, "metrics": {...}}

It exits 1 on any wrong result, lost request or non-reproducible
simulated figure, and 2 when it cannot run at all.  Every run also leaves
a record with its context under ``.e2ebench/results`` (see
``summarize.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from selftest import run_selftests  # noqa: E402
from stats import quartiles  # noqa: E402

#: Fresh-interpreter set-ups per untraced run, the measured session's own
#: included; set-up time is their median.
SETUP_SAMPLES = 5
#: Everything — set-ups, measuring, teardown — must end by then.
DEADLINE_S = 170.0


class RunError(Exception):
    """The benchmark could not produce a result."""


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    """The child's next stdout line, or RunError past ``deadline``."""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not selector.select(timeout=remaining):
            raise RunError("session timed out")
    line = proc.stdout.readline()
    if not line:
        raise RunError(f"session exited with code {proc.wait()} before finishing")
    return line.rstrip("\n")


def _stop(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the session's process group, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_session(args, deadline: float, setup_only: bool):
    """Start one session; returns (seconds to READY, its result or None)."""
    cmd = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        while _read_line(proc, deadline) != "READY":
            pass
        ready_s = time.perf_counter() - start
        result = None
        if not setup_only:
            result = json.loads(_read_line(proc, deadline))
        remaining = max(0.0, deadline - time.monotonic())
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise RunError("session did not exit in time") from err
    finally:
        _stop(proc)
    if setup_only and code != 0:
        raise RunError(f"set-up session exited with code {code}")
    return ready_s, result


def context(args) -> dict:
    """Where and how the numbers were taken."""
    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise RunError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise RunError("no program sources under src/ in this checkout")
        failures = run_selftests()
        if failures:
            raise RunError("harness self-tests failed: " + "; ".join(failures))
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_session(args, deadline, setup_only=True)[0])
        ready_s, result = run_session(args, deadline, setup_only=False)
    except (RunError, OSError, ValueError, KeyError) as err:
        print(f"e2ebench: {err}", file=sys.stderr)
        return 2

    metrics = dict(result["metrics"])
    detail = dict(result["detail"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        setups.append(ready_s)
        metrics["setup_s"] = quartiles(setups)["median"]
        detail["setup_s"] = quartiles(setups)
    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        print(f"e2ebench: metrics not as declared: {sorted(missing)}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared}
    correct = not result["errors"] and result["failed"] == 0
    ctx = context(args)

    print(
        f"e2ebench {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={ctx[k]}" for k in ("nproc", "python", "numpy", "commit"))
    )
    for name in units:
        print(f"  {name:28s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  {'error_rate':28s} {result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']} of {result['attempted']} requests wrong)")
    print(f"  {'gemv_order_only':28s} {len(result['order_only']):>16d} "
          f"(GEMV results that match the reference's FP16 partials but not its "
          f"FP32 reduction order)")
    for error in result["errors"]:
        print(f"  ERROR {error}")
    for note in result["order_only"]:
        print(f"  KNOWN DEFECT {note}")

    record = {
        "context": ctx,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "order_only": result["order_only"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "detail": detail,
    }
    results = ROOT / ".e2ebench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

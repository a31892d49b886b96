"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script; it prints ``READY`` the moment set-up is
done (the parent times set-up from process start to that line) and, as
its last line, one JSON object with the run's metrics, request counts and
any correctness errors.

Untraced (``--trace 0``): one session serves rounds until ``--seconds``
have passed, and never fewer than the reference prefix.

Traced (``--trace 1``): an untraced session A and a traced session B —
built with the layer timer installed, so fabric workers forked for it are
traced too — serve the same rounds in alternating pairs.  B's per-layer
totals are taken at the end of its reference prefix; A is the untraced
baseline for ``trace.overhead_frac``, and A's and B's simulated figures
must agree exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LayerTimer, layer_targets  # noqa: E402
from selftest import run_selftests  # noqa: E402
from stats import percentile, quartiles  # noqa: E402

#: A traced run that cannot gather its minimum rounds by then is an error.
TRACE_CAP_S = 120.0


def _load_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")


def source_digest() -> str:
    """sha1 over the program and benchmark sources (keys the fingerprints)."""
    digest = hashlib.sha1()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_fingerprint(workload: str, seed: int, fingerprint: dict) -> list:
    """Compare with the fingerprint an earlier run stored for this seed.

    The first run at a seed stores it; every later run of the same sources
    — traced or not — must reproduce it exactly.
    """
    store = ROOT / ".e2ebench" / "fingerprints"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != fingerprint:
            return [f"simulated figures differ from an earlier run at seed {seed}: "
                    f"{recorded} != {fingerprint}"]
        return []
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(fingerprint, sort_keys=True))
    tmp.replace(path)
    return []


def simulated(session) -> dict:
    """The simulated end-to-end figures of a session's reference prefix."""
    prefix = session.prefix
    turnaround = [t for r in prefix for t in r.turnaround_ns]
    p50 = percentile(turnaround, 0.5)
    p90 = percentile(turnaround, 0.9)
    if p50["value"] is None or p90["value"] is None:
        raise RuntimeError(f"only {len(turnaround)} turnarounds in the prefix")
    return {
        "requests": sum(r.submitted for r in prefix),
        "sim_makespan_us": sum(r.makespan_ns for r in prefix) / 1e3,
        "sim_p50_turnaround_us": p50["value"] / 1e3,
        "sim_p90_turnaround_us": p90["value"] / 1e3,
        "controller.cmds": session.prefix_counters["cmds"],
    }


def _rate(rounds) -> float:
    wall = sum(r.wall_s for r in rounds)
    return sum(r.completed_exact for r in rounds) / wall if wall > 0 else 0.0


def run_untraced(workload, seconds: float, setup_only: bool) -> dict:
    from workloads import FabricProbe, Session

    probe = FabricProbe()
    probe.install()
    session = Session(workload, probe)
    print("READY", flush=True)
    if setup_only:
        session.close()
        return {}
    start = time.perf_counter()
    while (
        len(session.rounds) < workload.rounds
        or time.perf_counter() - start < seconds
    ):
        session.next_round()
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + session.target.worker_maxrss_kb()
    )
    session.close()
    sim = simulated(session)
    errors = session.errors + check_fingerprint(workload.name, workload.seed, sim)
    rounds = session.rounds
    metrics = {
        "host_rps": _rate(rounds),
        "peak_rss_mb": rss_kb / 1024.0,
        "sim_makespan_us": sim["sim_makespan_us"],
        "sim_p50_turnaround_us": sim["sim_p50_turnaround_us"],
        "sim_p90_turnaround_us": sim["sim_p90_turnaround_us"],
    }
    attempted = sum(r.submitted for r in rounds)
    return {
        "attempted": attempted,
        "failed": attempted - sum(r.completed_exact for r in rounds),
        "errors": errors,
        "order_only": session.order_only,
        "metrics": metrics,
        "detail": {
            "rounds": len(rounds),
            "round_rps": quartiles([r.completed_exact / r.wall_s for r in rounds]),
            "round_wall_s": [r.wall_s for r in rounds],
            "round_exact": [r.completed_exact for r in rounds],
            "fingerprint": sim,
        },
    }


def run_traced(workload, seconds: float) -> dict:
    from workloads import FabricProbe, Session

    targets = layer_targets()
    # The real entry points must come back unwrapped, or the untraced
    # session A would be timed too.
    errors = run_selftests(targets)
    timer = LayerTimer()
    probe = FabricProbe(timer)
    probe.install()
    # Workers forked from here on start their totals from zero.
    os.register_at_fork(after_in_child=probe.after_fork)
    untraced = Session(workload, probe)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    timer.install(targets)
    try:
        traced = Session(workload, probe)
    finally:
        timer.uninstall()
    setup_counters = untraced.target.counters()
    print("READY", flush=True)

    layers = None
    start = time.perf_counter()
    pair = 0
    while True:
        order = (untraced, traced) if pair % 2 == 0 else (traced, untraced)
        for session in order:
            if session is traced:
                timer.install(targets)
                try:
                    session.next_round()
                finally:
                    timer.uninstall()
            else:
                session.next_round()
        pair += 1
        if layers is None and len(traced.rounds) >= workload.rounds:
            layers = timer.snapshot()
        elapsed = time.perf_counter() - start
        if (
            pair >= workload.rounds
            and elapsed >= seconds
            and len(traced.rounds) >= workload.min_traced_rounds
        ):
            break
        if elapsed > TRACE_CAP_S:
            raise RuntimeError(
                f"only {len(traced.rounds)} traced rounds in {elapsed:.0f} s"
            )
    untraced_cmds = untraced.target.counters()["cmds"] - setup_counters["cmds"]
    traced.close()
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    untraced.close()

    sim_a, sim_b = simulated(untraced), simulated(traced)
    errors += untraced.errors + traced.errors
    if sim_a != sim_b:
        errors.append(f"traced run changed simulated figures: {sim_a} != {sim_b}")
    errors += check_fingerprint(workload.name, workload.seed, sim_b)

    def calls(key):
        return layers.get(key, (0, 0, 0))[0]

    def incl(key):
        return layers.get(key, (0, 0, 0))[1] / 1e9

    def own(key):
        return layers.get(key, (0, 0, 0))[2] / 1e9

    prefix = traced.prefix
    counters = traced.prefix_counters
    cmds = counters["cmds"]
    accesses = counters["row_hits"] + counters["row_misses"]
    wall = sum(r.wall_s for r in prefix)
    cpu = sum(r.cpu_s for r in prefix)
    submitted = sum(r.submitted for r in prefix)
    batches = sum(r.batches for r in prefix)
    waits = [w for r in prefix for w in r.wait_ns]
    fabric = workload.min_traced_rounds > 0
    shard_counts = {}
    for r in prefix:
        for shard, count in r.per_shard.items():
            shard_counts[shard] = shard_counts.get(shard, 0) + count
    workers = traced.target.workers
    a_wall = sum(r.wall_s for r in untraced.rounds)
    b_wall = sum(r.wall_s for r in traced.rounds)
    round_p50 = percentile([r.wall_s for r in traced.rounds], 0.5)
    if fabric and round_p50["value"] is None:
        raise RuntimeError(f"{round_p50['n']} traced rounds cannot support a median")
    metrics = {
        "server.run_s": incl("server.run"),
        "server.self_s": own("server.run"),
        "server.batches": batches,
        "server.mean_batch": sum(r.dispatched for r in prefix) / batches,
        "server.sim_wait_p50_us": percentile(waits, 0.5)["value"] / 1e3,
        "kernels.builds": calls("kernels.init"),
        "kernels.build_s": incl("kernels.init") + incl("kernels.load"),
        "kernels.launches": calls("kernels.launch"),
        "kernels.launch_self_s": own("kernels.launch"),
        "controller.drains": calls("controller.drain"),
        "controller.drain_self_s": own("controller.drain"),
        "controller.cmds": cmds,
        "controller.cmds_per_s": untraced_cmds / a_wall,
        "controller.row_hit_ratio": counters["row_hits"] / accesses if accesses else 0.0,
        "timing.probe_calls": calls("timing.probe"),
        "timing.probe_s": incl("timing.probe"),
        "timing.probes_per_cmd": calls("timing.probe") / cmds if cmds else 0.0,
        "timing.issue_self_s": own("timing.issue"),
        "pim.triggers": calls("pim.trigger"),
        "pim.exec_s": incl("pim.trigger") + incl("pim.flush"),
        "ecc.encode_calls": calls("ecc.encode"),
        "ecc.encode_s": incl("ecc.encode"),
        "ecc.check_calls": calls("ecc.check"),
        "ecc.check_s": incl("ecc.check"),
        "ecc.scrubs": calls("ecc.scrub"),
        "ecc.scrub_s": incl("ecc.scrub"),
        "ecc.corrected": counters["ecc_corrected"],
        "fabric.rounds": calls("fabric.collect"),
        "fabric.round_s_p50": round_p50["value"] if fabric else 0.0,
        "fabric.router_cpu_s": cpu if fabric else 0.0,
        "fabric.router_wait_frac": 1.0 - cpu / wall if fabric else 0.0,
        "fabric.tx_bytes_per_req": sum(r.tx_bytes for r in prefix) / submitted,
        "fabric.rx_bytes_per_req": sum(r.rx_bytes for r in prefix) / submitted,
        "fabric.shard_imbalance": (
            max(shard_counts.values()) * workers / sum(shard_counts.values())
            if fabric else 0.0
        ),
        "fabric.replays": sum(r.replays for r in prefix),
        "fabric.respawns": traced.target.respawns(),
        "fabric.hedges": sum(r.hedges for r in prefix),
        "worker.cpu_s": (
            (children1.ru_utime + children1.ru_stime)
            - (children0.ru_utime + children0.ru_stime)
        ),
        "worker.busy_frac": (
            sum(r.busy_ns for r in prefix) / 1e9 / (workers * wall)
            if workers else 0.0
        ),
        "trace.overhead_frac": b_wall / a_wall - 1.0,
    }
    attempted = sum(r.submitted for r in untraced.rounds + traced.rounds)
    exact = sum(r.completed_exact for r in untraced.rounds + traced.rounds)
    return {
        "attempted": attempted,
        "failed": attempted - exact,
        "errors": errors,
        "order_only": untraced.order_only + traced.order_only,
        "metrics": metrics,
        "detail": {
            "pairs": pair,
            "round_s_p50_samples": round_p50["n"],
            "fingerprint": sim_b,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    _load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = run_traced(workload, args.seconds)
    else:
        result = run_untraced(workload, args.seconds, args.setup_only)
    if args.setup_only:
        return 0
    print(json.dumps(result), flush=True)
    return 0 if not result["errors"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tracked scale-out and weight-residency baseline for the serving fabric.

Serves one multi-wave GEMV stream (8 distinct weight matrices, each wave
revisiting every matrix) through :class:`~repro.stack.fabric.PimFabric`
at 1, 2, and 4 workers, with shard-resident weights on (the default
``weight_store_mb``) and off (``weight_store_mb=0``, which re-ships
every matrix every round), and records per (worker count, mode):

* **simulated** throughput (req/s of the merged serving profile — round
  makespan is the max over shards, so this is what sharding actually
  scales) and its speedup over the same mode's 1-worker fabric;
* **wall-clock** serve time as the median and interquartile range over
  several fresh fabrics (3 with ``--quick``, else 5), next to the host's
  core count (``nproc``).  Wall time is informational and never gated:
  CI containers may pin the whole run to one core;
* **bytes on the wire** (``fabric.bytes_tx``: framed pickle bytes the
  router pushed down worker pipes), in total and in *steady state* —
  every wave after the first, once each shard has staged its matrices.
  ``wire_reduction`` is the steady-state ratio re-ship / resident at the
  same worker count: the per-round payoff of weight residency.
  ``total_wire_reduction`` also charges the first crossings.

Every result is checked bit-exact against the host GEMV reference, every
run's wire bytes must repeat exactly, and each worker count's resident
run is checked bit-exact (results *and* profile render) against its
re-ship twin before anything is recorded — the bench refuses to emit
numbers for a residency path that diverges.  Hedging is pinned off: it
triggers on wall-clock noise.  Results land in a ``bench_fabric/v3``
JSON document::

    python benchmarks/bench_fabric.py --quick --out BENCH_fabric.json \\
        --min-speedup 1.8 --min-wire-reduction 15

The process exits non-zero if the 4-worker resident simulated speedup
falls below ``--min-speedup``, the 4-worker ``wire_reduction`` falls
below ``--min-wire-reduction``, or the emitted document fails schema
validation.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.stack import (
    PimFabric,
    Request,
    ServerConfig,
    SystemConfig,
    gemv_reference,
)
from repro.stack.profiler import ServingProfile

SCHEMA = "bench_fabric/v3"
WORKER_COUNTS = (1, 2, 4)
#: Mode name -> ServerConfig.weight_store_mb (None keeps the default).
MODES = {"resident": None, "reship": 0.0}


def _workload(count: int, distinct: int, seed: int):
    """``count`` GEMV requests cycling over ``distinct`` weight matrices.

    Request ``i`` carries matrix ``i % distinct``, so serving the stream
    in waves of ``distinct`` requests makes every wave revisit every
    matrix exactly once — the repeated-weight shape residency is for.
    """
    m, n = 64, 96
    rng = np.random.default_rng(seed)
    weights = [
        (rng.standard_normal((m, n)) * 0.25).astype(np.float16)
        for _ in range(distinct)
    ]
    arrivals = np.cumsum(rng.exponential(200.0, size=count))
    return [
        Request(
            "gemv",
            weights=weights[i % distinct],
            a=(rng.standard_normal(n) * 0.25).astype(np.float16),
            arrival_ns=float(arrivals[i]),
        )
        for i in range(count)
    ]


def serve_once(config, items, workers: int, mode: str, waves: int):
    """Serve ``items`` in ``waves`` rounds through one fresh fabric.

    Returns ``(handles, profile, wall_s, bytes_tx, first_wave_tx)``.
    """
    server_config = ServerConfig(lanes=2, max_batch=8, hedge=False)
    if MODES[mode] is not None:
        server_config = server_config.replace(weight_store_mb=MODES[mode])
    chunk = max(1, -(-len(items) // waves))
    with PimFabric(
        config, workers=workers, server_config=server_config
    ) as fabric:
        handles, profile = [], ServingProfile()
        first_wave_tx = None
        start = time.perf_counter()
        for lo in range(0, len(items), chunk):
            for request in items[lo:lo + chunk]:
                handles.append(fabric.submit(request))
            profile.merge(fabric.run())
            if first_wave_tx is None:
                first_wave_tx = fabric.bytes_tx
        wall_s = time.perf_counter() - start
        bytes_tx = fabric.bytes_tx
    for handle in handles:
        golden = gemv_reference(
            handle.request.weights, handle.request.a, config.num_pchs
        )
        if handle.result is None or not np.array_equal(handle.result, golden):
            raise SystemExit(
                f"fabric result diverged from host reference at "
                f"{workers} workers/{mode} (request {handle.request_id})"
            )
    if sum(profile.outcomes().values()) != len(handles):
        raise SystemExit(
            f"outcome conservation broken at {workers} workers/{mode}"
        )
    return handles, profile, wall_s, bytes_tx, first_wave_tx


def bench_workers(config, items, workers: int, waves: int, runs: int):
    """``runs`` fresh fabrics per mode at one worker count.

    The modes alternate run by run (and swap which goes first), so drift
    in the host's speed lands on both alike.  Returns ``{mode: (entry,
    handles, profile)}`` — the result row plus the first run's handles
    and merged profile, which the caller diffs across modes.
    """
    walls = {mode: [] for mode in MODES}
    wires = {mode: set() for mode in MODES}
    first = {}
    for run in range(runs):
        for mode in list(MODES)[:: 1 if run % 2 == 0 else -1]:
            handles, profile, wall_s, bytes_tx, first_tx = serve_once(
                config, items, workers, mode, waves
            )
            walls[mode].append(wall_s)
            wires[mode].add((bytes_tx, first_tx))
            first.setdefault(mode, (handles, profile))
    cells = {}
    for mode in MODES:
        if len(wires[mode]) != 1:
            raise SystemExit(
                f"wire bytes differ between runs at {workers} workers/{mode}"
            )
        (bytes_tx, first_tx), = wires[mode]
        handles, profile = first[mode]
        q1, median, q3 = np.percentile(walls[mode], [25, 50, 75])
        entry = {
            "workers": workers,
            "mode": mode,
            "requests": len(handles),
            "waves": waves,
            "throughput_rps": profile.throughput_rps(),
            "makespan_ns": profile.makespan_ns,
            "wall_s_median": float(median),
            "wall_s_iqr": float(q3 - q1),
            "wall_s_runs": [float(w) for w in walls[mode]],
            "bytes_on_wire": int(bytes_tx),
            "steady_bytes_on_wire": int(bytes_tx - first_tx),
        }
        cells[mode] = (entry, handles, profile)
    return cells


def validate(doc: dict) -> None:
    """Schema check of a ``bench_fabric/v3`` document (raises ValueError)."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}")
    if not isinstance(doc.get("quick"), bool):
        raise ValueError("quick must be a bool")
    for key in ("nproc", "runs"):
        if not isinstance(doc.get(key), int) or doc[key] <= 0:
            raise ValueError(f"{key} must be a positive int")
    workloads = doc.get("workloads")
    expected = {f"workers{n}_{m}" for n in WORKER_COUNTS for m in MODES}
    if not isinstance(workloads, dict) or set(workloads) != expected:
        raise ValueError(f"workloads must be exactly {sorted(expected)}")
    for name, entry in workloads.items():
        for key in ("throughput_rps", "makespan_ns", "wall_s_median"):
            value = entry.get(key)
            if not isinstance(value, float) or value <= 0:
                raise ValueError(f"{name}.{key} must be a positive float")
        iqr = entry.get("wall_s_iqr")
        if not isinstance(iqr, float) or iqr < 0:
            raise ValueError(f"{name}.wall_s_iqr must be a float >= 0")
        walls = entry.get("wall_s_runs")
        if not isinstance(walls, list) or len(walls) != doc["runs"]:
            raise ValueError(f"{name}.wall_s_runs must hold one wall per run")
        for key in ("workers", "requests", "waves", "bytes_on_wire",
                    "steady_bytes_on_wire"):
            if not isinstance(entry.get(key), int) or entry[key] <= 0:
                raise ValueError(f"{name}.{key} must be a positive int")
        if entry.get("mode") not in MODES:
            raise ValueError(f"{name}.mode must be one of {sorted(MODES)}")
        base = workloads[f"workers1_{entry['mode']}"]
        speedup = entry.get("speedup")
        if not isinstance(speedup, float) or speedup <= 0:
            raise ValueError(f"{name}.speedup must be a positive float")
        implied = entry["throughput_rps"] / base["throughput_rps"]
        if abs(speedup - implied) > 1e-6:
            raise ValueError(f"{name}.speedup is inconsistent with throughput")
        if entry["mode"] == "resident":
            reship = workloads[f"workers{entry['workers']}_reship"]
            for key, field in (
                ("wire_reduction", "steady_bytes_on_wire"),
                ("total_wire_reduction", "bytes_on_wire"),
            ):
                value = entry.get(key)
                if not isinstance(value, float) or value <= 0:
                    raise ValueError(f"{name}.{key} must be a positive float")
                if abs(value - reship[field] / entry[field]) > 1e-6:
                    raise ValueError(
                        f"{name}.{key} is inconsistent with {field}"
                    )


def _nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small request count (CI fabric-smoke)")
    parser.add_argument("--out", default=None,
                        help="write the bench_fabric/v3 JSON here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if the 4-worker resident simulated "
                             "speedup is below this")
    parser.add_argument("--min-wire-reduction", type=float, default=None,
                        help="fail if the 4-worker steady-state re-ship/"
                             "resident wire-byte ratio is below this")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    count = 48 if args.quick else 96
    waves = 6 if args.quick else 12
    runs = 3 if args.quick else 5
    # 8 distinct matrices is the most a single replica can keep staged
    # (num_rows=256); more would overflow the 1-worker baseline's driver
    # allocation and collapse it onto the host path.
    distinct = 8
    config = SystemConfig(
        num_pchs=4, num_rows=256, simulate_pchs=1, server_seed=args.seed
    )
    items = _workload(count, distinct, args.seed)

    workloads = {}
    for workers in WORKER_COUNTS:
        cells = bench_workers(config, items, workers, waves, runs)
        for mode, (entry, _, _) in cells.items():
            workloads[f"workers{workers}_{mode}"] = entry
        # Differential gate: the resident run must be indistinguishable
        # from its re-ship twin everywhere but the wire counters.
        (r_entry, r_handles, r_profile) = cells["resident"]
        (o_entry, o_handles, o_profile) = cells["reship"]
        if not all(
            a.outcome == b.outcome and np.array_equal(a.result, b.result)
            for a, b in zip(o_handles, r_handles)
        ):
            raise SystemExit(
                f"resident results diverged from the re-ship oracle at "
                f"{workers} workers"
            )
        if o_profile.render() != r_profile.render():
            raise SystemExit(
                f"resident serving profile diverged from the re-ship "
                f"oracle at {workers} workers"
            )
        r_entry["wire_reduction"] = (
            o_entry["steady_bytes_on_wire"] / r_entry["steady_bytes_on_wire"]
        )
        r_entry["total_wire_reduction"] = (
            o_entry["bytes_on_wire"] / r_entry["bytes_on_wire"]
        )
    for mode in MODES:
        base_rps = workloads[f"workers1_{mode}"]["throughput_rps"]
        for workers in WORKER_COUNTS:
            entry = workloads[f"workers{workers}_{mode}"]
            entry["speedup"] = entry["throughput_rps"] / base_rps
    doc = {
        "schema": SCHEMA,
        "quick": args.quick,
        "nproc": _nproc(),
        "runs": runs,
        "workloads": workloads,
    }
    validate(doc)

    print(f"nproc {doc['nproc']}, {runs} runs per cell")
    print(
        f"{'workers':>8s}{'mode':>10s}{'sim req/s':>14s}{'speedup':>9s}"
        f"{'wall p50':>10s}{'IQR':>8s}{'wire bytes':>12s}{'steady':>10s}"
        f"{'reduction':>11s}"
    )
    for workers in WORKER_COUNTS:
        for mode in MODES:
            entry = workloads[f"workers{workers}_{mode}"]
            reduction = (
                f"{entry['wire_reduction']:10.1f}x"
                if mode == "resident" else f"{'—':>11s}"
            )
            print(
                f"{workers:8d}{mode:>10s}"
                f"{entry['throughput_rps']:14,.0f}"
                f"{entry['speedup']:8.2f}x"
                f"{entry['wall_s_median']:9.2f}s"
                f"{entry['wall_s_iqr']:7.2f}s"
                f"{entry['bytes_on_wire']:12,d}"
                f"{entry['steady_bytes_on_wire']:10,d}{reduction}"
            )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        validate(json.load(open(args.out)))
        print(f"wrote {args.out}")
    failures = []
    if args.min_speedup is not None:
        speedup = workloads["workers4_resident"]["speedup"]
        if speedup < args.min_speedup:
            failures.append(
                f"4-worker resident simulated speedup {speedup:.2f}x below "
                f"--min-speedup {args.min_speedup}"
            )
    if args.min_wire_reduction is not None:
        reduction = workloads["workers4_resident"]["wire_reduction"]
        if reduction < args.min_wire_reduction:
            failures.append(
                f"4-worker wire reduction {reduction:.1f}x below "
                f"--min-wire-reduction {args.min_wire_reduction}"
            )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: seeded inputs, the serving target, one round.

Arrivals are an open loop on the *simulated* clock (a Poisson process
with a fixed mean gap, drawn from the workload seed); on the host each
round is a closed batch job — build the requests, submit them all,
``run()``.  A
round's arrivals start at the latest simulated finish seen so far, so
every round finds the lanes idle and its simulated figures do not depend
on how long earlier rounds queued.

The first ``rounds`` rounds after set-up serve the ``rounds`` streams
once each: that *reference prefix* fixes the simulated metrics and
``controller.cmds``, identically in every run at one seed.  Later rounds
cycle over the same streams until the measuring time is up.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.stack import PimFabric, PimServer, PimSystem, Request, ServerConfig, SystemConfig
from repro.pim.isa import GRF_REGS
from repro.stack.blas import (
    add_reference,
    bn_reference,
    gemv_reference,
    mul_reference,
    relu_reference,
)

from golden import gemv_partials, order_only
from layers import LayerTimer, diff

#: The platform every workload runs on (the repo's fast functional shape).
BASE_CONFIG = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1)
#: The serving shape of every workload.
BASE_SERVER = ServerConfig(lanes=2, max_batch=8)
#: GEMV shape (outputs x inputs), as in the serving benchmark.
GEMV_M, GEMV_N = 64, 96
#: Fixed (gamma, beta) of the BN stream, so its kernel stays resident.
BN_SCALARS = (1.5, 0.25)


@dataclass(frozen=True)
class Spec:
    """One request's inputs; rebuilt into a fresh Request every round."""

    op: str
    offset_ns: float
    a: np.ndarray
    b: Optional[np.ndarray] = None
    weights: Optional[int] = None  # index into Workload.matrices
    scalars: Optional[Tuple[float, float]] = None


@dataclass
class Round:
    """What one served round left behind, for metrics and checks."""

    base_ns: float
    wall_s: float
    cpu_s: float
    submitted: int
    completed_exact: int
    makespan_ns: float
    turnaround_ns: List[float]
    wait_ns: List[float]
    batches: int
    dispatched: int
    replays: int = 0
    hedges: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0
    busy_ns: int = 0
    per_shard: Dict[int, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: GEMV results that differ from gemv_reference only in the order the
    #: FP32 host reduction adds the partial sums (see golden.py).
    order_only: List[str] = field(default_factory=list)


def device_counters(system) -> Dict[str, int]:
    """Cumulative command, row-buffer and ECC counters of one device."""
    cmds = hits = misses = corrected = 0
    for controller in system.controllers:
        cmds += sum(controller.channel.cmd_counts.values())
        hits += controller.row_hits
        misses += controller.row_misses
    for channel in system.device.pchs:
        for bank in channel.banks:
            stats = getattr(bank, "ecc_stats", None)
            if stats is not None:
                corrected += stats.corrected
    return {
        "cmds": cmds,
        "row_hits": hits,
        "row_misses": misses,
        "ecc_corrected": corrected,
    }


class FabricProbe:
    """Per-round counters shipped back from fabric workers.

    Patches ``repro.stack.worker.serve_round`` (inherited by workers
    forked after :meth:`install`) to attach the worker's device counters,
    peak RSS, time inside the round and — when the worker was forked with
    a :class:`LayerTimer` installed — that timer's totals since its last
    reply; the router-side ``PimFabric._fold`` patch takes them off the
    payload before the fabric folds it.  Costs one counter read per shard
    per round, so untraced runs keep it too.
    """

    KEY = "e2ebench"

    def __init__(self, timer: Optional[LayerTimer] = None):
        self.timer = timer
        #: id(fabric) -> shard -> last reply's cumulative counters.
        self.latest: Dict[int, Dict[int, Dict[str, int]]] = {}
        #: id(fabric) -> total ns workers spent inside serve_round.
        self.busy_ns: Dict[int, int] = {}
        self._reported: Dict[str, Tuple[int, int, int]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    def after_fork(self) -> None:
        """In a freshly forked worker: forget the parent's totals."""
        self._reported = {}
        if self.timer is not None:
            self.timer.reset()

    def install(self) -> None:
        import repro.stack.worker as worker_module

        serve_round = worker_module.serve_round
        fold = PimFabric._fold
        probe = self

        def probed_serve_round(ctx, server, shard, items):
            start = time.perf_counter_ns()
            payload = serve_round(ctx, server, shard, items)
            info = device_counters(server.sys)
            info["busy_ns"] = time.perf_counter_ns() - start
            info["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            timer = probe.timer
            if timer is not None and timer.installed:
                now = timer.snapshot()
                info["layers"] = diff(now, probe._reported)
                probe._reported = now
            payload[FabricProbe.KEY] = info
            return payload

        def probed_fold(fabric, link, items, payload, serving):
            info = payload.pop(FabricProbe.KEY, None)
            if info is not None:
                layers = info.pop("layers", None)
                if layers and probe.timer is not None:
                    probe.timer.merge(layers)
                key = id(fabric)
                probe.busy_ns[key] = probe.busy_ns.get(key, 0) + info["busy_ns"]
                probe.latest.setdefault(key, {})[link.shard] = info
            return fold(fabric, link, items, payload, serving)

        self._patches = [
            (worker_module, "serve_round", serve_round),
            (PimFabric, "_fold", fold),
        ]
        worker_module.serve_round = probed_serve_round
        PimFabric._fold = probed_fold

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


class InProcessTarget:
    """A PimServer on its own PimSystem, in this process."""

    def __init__(self, system_config: SystemConfig, server_config: ServerConfig):
        self.system = PimSystem(system_config)
        self.server = PimServer(self.system, server_config)
        self.workers = 0

    def submit(self, request: Request):
        return self.server.submit(request)

    def run(self):
        return self.server.run()

    def counters(self) -> Dict[str, int]:
        return device_counters(self.system)

    def wire(self) -> Tuple[int, int]:
        return 0, 0

    def busy_ns(self) -> int:
        return 0

    def worker_maxrss_kb(self) -> int:
        return 0

    def respawns(self) -> int:
        return 0

    def close(self) -> None:
        self.server.close()


class FabricTarget:
    """A PimFabric with ``workers`` worker processes."""

    def __init__(
        self,
        system_config: SystemConfig,
        server_config: ServerConfig,
        workers: int,
        probe: FabricProbe,
    ):
        self.fabric = PimFabric(
            system_config, workers=workers, server_config=server_config
        )
        self.workers = workers
        self.probe = probe

    def submit(self, request: Request):
        return self.fabric.submit(request)

    def run(self):
        return self.fabric.run()

    def _latest(self) -> Dict[int, Dict[str, int]]:
        return self.probe.latest.get(id(self.fabric), {})

    def counters(self) -> Dict[str, int]:
        if not self._latest():
            raise RuntimeError("no worker reported counters: FabricProbe not installed")
        shards = self._latest().values()
        return {
            key: sum(info[key] for info in shards)
            for key in ("cmds", "row_hits", "row_misses", "ecc_corrected")
        }

    def wire(self) -> Tuple[int, int]:
        return self.fabric.bytes_tx, self.fabric.bytes_rx

    def busy_ns(self) -> int:
        return self.probe.busy_ns.get(id(self.fabric), 0)

    def worker_maxrss_kb(self) -> int:
        return sum(info["maxrss_kb"] for info in self._latest().values())

    def respawns(self) -> int:
        return sum(self.fabric.respawns.values())

    def close(self) -> None:
        self.fabric.close()


class Workload:
    """Seeded inputs plus the target they are served on."""

    name = ""
    #: Requests per round, reference rounds, mean simulated arrival gap.
    round_size = 0
    rounds = 0
    gap_ns = 0.0
    #: Each GEMV request carries its own copy of its weight matrix.
    copy_weights = False
    #: Traced rounds needed so every quoted round-time percentile has
    #: enough samples (see stats.MIN_BEYOND).
    min_traced_rounds = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.matrices: List[np.ndarray] = []
        self.warmup: List[Spec] = []
        self.streams: List[List[Spec]] = []
        self.num_pchs = BASE_CONFIG.num_pchs

    def _vector(self, n: int) -> np.ndarray:
        return (self.rng.standard_normal(n) * 0.25).astype(np.float16)

    def _offsets(self) -> np.ndarray:
        """One round's arrival offsets: a Poisson process with mean gap
        ``gap_ns`` conditioned on ``round_size`` arrivals in a window of
        ``round_size * gap_ns``, i.e. sorted uniform draws.  Fixing the
        count per window keeps each round's offered load equal across
        seeds; the gaps between arrivals stay exponential-like."""
        window = self.round_size * self.gap_ns
        return np.sort(self.rng.uniform(0.0, window, size=self.round_size))

    def _balanced(self, kinds: int) -> np.ndarray:
        """A shuffled stream using each of ``kinds`` choices equally often."""
        picks = np.arange(self.round_size) % kinds
        self.rng.shuffle(picks)
        return picks

    def open(self, probe: FabricProbe):
        raise NotImplementedError

    def request(self, spec: Spec, base_ns: float) -> Request:
        weights = None
        if spec.weights is not None:
            weights = self.matrices[spec.weights]
            if self.copy_weights:
                weights = weights.copy()
        return Request(
            spec.op,
            a=spec.a,
            b=spec.b,
            weights=weights,
            scalars=spec.scalars,
            arrival_ns=base_ns + spec.offset_ns,
        )

    def reference(self, spec: Spec) -> np.ndarray:
        if spec.op == "gemv":
            return gemv_reference(self.matrices[spec.weights], spec.a, self.num_pchs)
        if spec.op == "add":
            return add_reference(spec.a, spec.b)
        if spec.op == "mul":
            return mul_reference(spec.a, spec.b)
        if spec.op == "relu":
            return relu_reference(spec.a)
        if spec.op == "bn":
            return bn_reference(spec.a, *spec.scalars)
        raise ValueError(f"unknown op {spec.op!r}")


class _GemvStreams(Workload):
    num_matrices = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.matrices = [
            (self.rng.standard_normal((GEMV_M, GEMV_N)) * 0.25).astype(np.float16)
            for _ in range(self.num_matrices)
        ]
        self.warmup = [
            Spec("gemv", 0.0, self._vector(GEMV_N), weights=i)
            for i in range(self.num_matrices)
        ]
        for _ in range(self.rounds):
            picks = self._balanced(self.num_matrices)
            self.streams.append([
                Spec("gemv", float(t), self._vector(GEMV_N), weights=int(w))
                for t, w in zip(self._offsets(), picks)
            ])


class ServeGemv(_GemvStreams):
    name = "serve_gemv"
    num_matrices = 4
    round_size = 64
    rounds = 2
    gap_ns = 500.0

    def open(self, probe: FabricProbe):
        return InProcessTarget(BASE_CONFIG, BASE_SERVER)


class FabricGemv(_GemvStreams):
    name = "fabric_gemv"
    num_matrices = 8
    round_size = 16
    rounds = 8
    gap_ns = 500.0
    copy_weights = True
    min_traced_rounds = 20
    workers = 2

    def open(self, probe: FabricProbe):
        # Hedging fires on wall-clock noise, the one nondeterministic
        # path, so it is pinned off; everything else is the default.
        return FabricTarget(
            BASE_CONFIG, BASE_SERVER.replace(hedge=False), self.workers, probe
        )


class ServeEltwiseEcc(Workload):
    name = "serve_eltwise_ecc"
    ops = ("add", "mul", "relu", "bn")
    length = 8192
    round_size = 32
    rounds = 6
    gap_ns = 2000.0
    scrub_interval = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.warmup = [self._spec(op, 0.0) for op in self.ops]
        for _ in range(self.rounds):
            picks = self._balanced(len(self.ops))
            self.streams.append([
                self._spec(self.ops[int(k)], float(t))
                for t, k in zip(self._offsets(), picks)
            ])

    def _spec(self, op: str, offset_ns: float) -> Spec:
        a = self._vector(self.length)
        b = self._vector(self.length) if op in ("add", "mul") else None
        scalars = BN_SCALARS if op == "bn" else None
        return Spec(op, offset_ns, a, b=b, scalars=scalars)

    def open(self, probe: FabricProbe):
        return InProcessTarget(
            BASE_CONFIG.replace(ecc=True, scrub_interval=self.scrub_interval),
            BASE_SERVER,
        )


WORKLOADS = {cls.name: cls for cls in (ServeGemv, ServeEltwiseEcc, FabricGemv)}


def serve(workload: Workload, target, specs: List[Spec], base_ns: float, stream: int) -> Round:
    """Serve one round and check every result against the host reference."""
    requests = [workload.request(spec, base_ns) for spec in specs]
    tx0, rx0 = target.wire()
    busy0 = target.busy_ns()
    cpu0 = time.process_time()
    start = time.perf_counter()
    handles = [target.submit(request) for request in requests]
    profile = target.run()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    tx1, rx1 = target.wire()

    errors: List[str] = []
    excused: List[str] = []
    by_id = {}
    for stats in profile.requests:
        if stats.request_id in by_id:
            errors.append(f"request {stats.request_id} has two outcomes")
        by_id[stats.request_id] = stats
    if len(profile.requests) != len(handles):
        errors.append(
            f"{len(profile.requests)} outcomes for {len(handles)} submitted"
        )
    exact = 0
    per_shard: Dict[int, int] = {}
    turnaround, wait = [], []
    finish = base_ns
    for spec, handle in zip(specs, handles):
        stats = by_id.get(handle.request_id)
        outcome = handle.outcome
        outcome = getattr(outcome, "value", outcome)
        if stats is None:
            errors.append(f"request {handle.request_id} has no outcome")
            continue
        if outcome != "completed" or stats.outcome != "completed":
            errors.append(f"request {handle.request_id} ended {outcome}")
            continue
        turnaround.append(stats.finish_ns - stats.arrival_ns)
        wait.append(stats.start_ns - stats.arrival_ns)
        finish = max(finish, stats.finish_ns)
        shard = getattr(handle, "shard", 0) or 0
        per_shard[shard] = per_shard.get(shard, 0) + 1
        expected = workload.reference(spec)
        result = handle.result
        if (
            result is None
            or result.dtype != expected.dtype
            or result.shape != expected.shape
        ):
            errors.append(f"request {handle.request_id} ({spec.op}): no result "
                          f"of the reference's shape and dtype")
            continue
        if (
            result.tobytes() != expected.tobytes()
            and spec.op == "gemv"
            and order_only(
                gemv_partials(
                    workload.matrices[spec.weights], spec.a, workload.num_pchs, GRF_REGS
                ),
                result,
                expected,
            )
        ):
            excused.append(
                f"stream {stream} request {handle.request_id} (gemv): differs from "
                f"gemv_reference only in FP32 reduction order"
            )
        elif result.tobytes() != expected.tobytes():
            per_element = (result.size, result.itemsize)
            differ = int(np.any(
                np.ascontiguousarray(result).view(np.uint8).reshape(per_element)
                != expected.view(np.uint8).reshape(per_element),
                axis=1,
            ).sum())
            errors.append(
                f"stream {stream} request {handle.request_id} ({spec.op}): "
                f"{differ} of {expected.size} elements differ from the "
                f"{spec.op}_reference bits"
            )
            continue
        exact += 1
    return Round(
        base_ns=base_ns,
        wall_s=wall,
        cpu_s=cpu,
        submitted=len(handles),
        completed_exact=exact,
        makespan_ns=finish - base_ns,
        turnaround_ns=turnaround,
        wait_ns=wait,
        batches=profile.batches,
        dispatched=sum(1 for r in profile.requests if r.batch_size > 0),
        replays=profile.replays,
        hedges=profile.hedges,
        tx_bytes=tx1 - tx0,
        rx_bytes=rx1 - rx0,
        busy_ns=target.busy_ns() - busy0,
        per_shard=per_shard,
        errors=errors,
        order_only=excused,
    )


class Session:
    """One target serving a workload: set-up, then rounds on a shared clock."""

    def __init__(self, workload: Workload, probe: FabricProbe):
        self.workload = workload
        self.target = workload.open(probe)
        warm = serve(workload, self.target, workload.warmup, 0.0, -1)
        self.errors = list(warm.errors)
        self.order_only = list(warm.order_only)
        self.clock_ns = warm.base_ns + warm.makespan_ns
        self.rounds: List[Round] = []
        #: Device counters right after the reference prefix.
        self.prefix_counters: Optional[Dict[str, int]] = None

    def next_round(self) -> Round:
        index = len(self.rounds) % self.workload.rounds
        result = serve(
            self.workload,
            self.target,
            self.workload.streams[index],
            self.clock_ns,
            index,
        )
        self.clock_ns = result.base_ns + result.makespan_ns
        self.errors.extend(result.errors)
        self.order_only.extend(result.order_only)
        self.rounds.append(result)
        if len(self.rounds) == self.workload.rounds:
            self.prefix_counters = self.target.counters()
        return result

    @property
    def prefix(self) -> List[Round]:
        return self.rounds[: self.workload.rounds]

    def close(self) -> None:
        self.target.close()

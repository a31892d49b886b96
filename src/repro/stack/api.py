"""The redesigned submission and configuration surface of the serving tier.

Two frozen dataclasses replace the keyword soup that had accreted onto the
serving engine since PR 1:

* :class:`Request` — one self-describing, picklable unit of work.  The
  historical ``submit(op, a=..., weights=..., arrival_ns=..., ...)``
  signature grew a parameter per PR; a ``Request`` carries the operation,
  its operands, and its scheduling class (priority, deadline, trace id) in
  one immutable value that can cross a process boundary unchanged — the
  property the sharded fabric (:mod:`repro.stack.fabric`) depends on.
* :class:`ServerConfig` — every serving knob (lanes, batching, retry
  budget, breaker, admission policy, ...) in one place.  Knobs left at
  ``None`` inherit the platform's :class:`~repro.stack.runtime.SystemConfig`
  defaults via :meth:`ServerConfig.resolve`, exactly like the historical
  per-kwarg fallback chain.

The old call forms (``submit(op, ...)``, ``PimServer(system, lanes=...)``,
``ctx.server(lanes=...)``) keep working behind ``DeprecationWarning``
shims — see ``docs/MIGRATION.md`` for the old-to-new mapping.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..errors import PimProgramError

__all__ = ["Request", "ServerConfig", "request_signature"]


def _weights_digest(weights: np.ndarray) -> str:
    """sha1 hex digest of a weight matrix's bytes, memory layout aside.

    The one place a GEMV weight digest is computed: the batching key,
    the fabric's placement key, and the shard-resident weight store all
    name a matrix by this value.
    """
    return hashlib.sha1(np.ascontiguousarray(weights).tobytes()).hexdigest()


def request_signature(
    op: str,
    a: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
    scalars: Optional[Tuple[float, float]] = None,
) -> Tuple:
    """The batching/placement key of one request.

    Requests with equal signatures may share one fused kernel launch (and,
    in the fabric, should land on the same shard so staged weights are
    reused).  GEMV requests key on weight *content* (shape, dtype, and a
    digest of the bytes), never on object identity: a freed array's
    ``id()`` can be reused by a later allocation, and an identity key
    would silently serve stale weights.  Elementwise requests key on
    ``(op, length, scalars)``.
    """
    if op == "gemv":
        w = np.asarray(weights)
        return ("gemv", w.shape, str(w.dtype), _weights_digest(w))
    scalar_key = (
        None if scalars is None else tuple(float(s) for s in scalars)
    )
    return (op, int(np.asarray(a).size), scalar_key)


@dataclass(frozen=True, eq=False)
class Request:
    """One self-describing, picklable operation for the serving tier.

    ``op`` is ``"gemv"`` or one of the elementwise operators
    (``add``/``mul``/``relu``/``bn``); the operand fields mirror the
    historical ``submit`` keywords.  ``priority`` dispatches higher
    classes first (aging prevents starvation), ``deadline_ns`` is an
    absolute simulated-clock bound on *dispatch*, and ``trace_id`` is an
    opaque caller-supplied correlation id stamped onto every span the
    request produces — the key that reassembles one request's spans
    across fabric shard processes.

    Instances are immutable and contain only picklable values, so a
    ``Request`` crosses the fabric's process boundary byte-identically.
    Results come back on the *handle* returned by ``submit`` (a
    :class:`~repro.stack.server.PimRequest` or
    :class:`~repro.stack.fabric.FabricHandle`), never on the request.
    """

    op: str
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    scalars: Optional[Tuple[float, float]] = None
    arrival_ns: float = 0.0
    priority: int = 0
    deadline_ns: Optional[float] = None
    trace_id: Optional[str] = None

    def validate(self) -> "Request":
        """Check op/operand consistency; returns ``self``.

        Raises :class:`~repro.errors.PimProgramError` (a ``ValueError``
        subclass) on an unknown operator or missing operand — the same
        errors the historical ``submit`` raised.
        """
        from .kernels import ELEMENTWISE_OPS  # local: avoid import cycle

        if self.op == "gemv":
            if self.weights is None or self.a is None:
                raise PimProgramError(
                    "gemv needs weights and an input vector"
                )
        elif self.op in ELEMENTWISE_OPS:
            if self.a is None:
                raise PimProgramError(f"{self.op} needs an input vector")
            if ELEMENTWISE_OPS[self.op].uses_second_operand and self.b is None:
                raise PimProgramError(f"{self.op} needs a second operand")
        else:
            raise PimProgramError(f"unknown op {self.op!r}")
        return self

    @property
    def weight_digest(self) -> Optional[str]:
        """sha1 hex digest of the weight bytes, computed once per instance.

        The router touches the signature at submit, placement, *and*
        batching, so hashing ``weights.tobytes()`` per access would cost
        O(weight bytes) each time.  The digest is immutable for an
        immutable request, so it is memoised on first access (stashed
        via ``object.__setattr__`` — the dataclass is frozen, its
        ``__dict__`` is not).  The fabric keys shard-resident weights on
        this digest and pre-seeds it on the requests a worker decodes.
        """
        if self.weights is None:
            return None
        cached = self.__dict__.get("_weight_digest")
        if cached is None:
            cached = _weights_digest(self.weights)
            object.__setattr__(self, "_weight_digest", cached)
        return cached

    @property
    def signature(self) -> Tuple:
        """Batching/placement key (see :func:`request_signature`).

        Same tuple :func:`request_signature` builds, but the GEMV weight
        digest comes from the per-instance :attr:`weight_digest` cache
        instead of being recomputed per access.
        """
        if self.op == "gemv":
            w = np.asarray(self.weights)
            return ("gemv", w.shape, str(w.dtype), self.weight_digest)
        return request_signature(self.op, a=self.a, scalars=self.scalars)

    def replace(self, **overrides) -> "Request":
        """A copy with ``overrides`` applied (dataclasses.replace)."""
        return replace(self, **overrides)


#: ServerConfig fields that inherit their default from SystemConfig when
#: left at None, mapped to the SystemConfig attribute that supplies it.
_INHERITED = {
    "simulate_pchs": "simulate_pchs",
    "scrub_interval": "scrub_interval",
    "queue_depth": "queue_depth",
    "admission": "admission",
    "aging_ns": "aging_ns",
    "retry_budget": "retry_budget",
    "retry_refill": "retry_refill",
    "backoff_base_ns": "backoff_base_ns",
    "backoff_jitter": "backoff_jitter",
    "breaker_threshold": "breaker_threshold",
    "breaker_cooldown_ns": "breaker_cooldown_ns",
    "seed": "server_seed",
}

#: Fallbacks used when no SystemConfig is available to inherit from
#: (mirrors the historical per-kwarg defaults of PimServer.__init__).
_FALLBACKS = {
    "simulate_pchs": None,
    "scrub_interval": 0,
    "queue_depth": None,
    "admission": "block",
    "aging_ns": 50_000.0,
    "retry_budget": 8.0,
    "retry_refill": 0.5,
    "backoff_base_ns": 2_000.0,
    "backoff_jitter": 0.5,
    "breaker_threshold": 3,
    "breaker_cooldown_ns": 100_000.0,
    "seed": 0,
}


@dataclass(frozen=True)
class ServerConfig:
    """Every serving-engine knob in one immutable, picklable value.

    Absorbs the overload/retry/breaker parameters that had accreted onto
    ``PimServer.__init__`` (and their defaults on ``SystemConfig``).  A
    knob left at ``None`` inherits the platform's
    :class:`~repro.stack.runtime.SystemConfig` value at server
    construction (see :meth:`resolve`); ``queue_depth=0`` still forces
    the historical unbounded queue even when the system config bounds it.

    Being frozen and picklable, one ``ServerConfig`` configures every
    worker of a :class:`~repro.stack.fabric.PimFabric` identically.  The
    fabric-tier resilience knobs (reply/heartbeat/join timeouts, respawn
    budget, straggler hedging, pipe checksums) live here too: they are
    plain defaults, never inherited from :class:`SystemConfig`, because
    they bound *wall-clock process* behaviour rather than simulated
    device behaviour.
    """

    lanes: int = 2
    max_batch: int = 8
    max_retries: int = 2
    simulate_pchs: Optional[int] = None
    scrub_interval: Optional[int] = None
    queue_depth: Optional[int] = None
    admission: Optional[str] = None
    aging_ns: Optional[float] = None
    retry_budget: Optional[float] = None
    retry_refill: Optional[float] = None
    backoff_base_ns: Optional[float] = None
    backoff_jitter: Optional[float] = None
    breaker_threshold: Optional[int] = None
    breaker_cooldown_ns: Optional[float] = None
    seed: Optional[int] = None
    # -- fabric resilience (PimFabric; docs/ARCHITECTURE.md, "Fabric
    #    resilience & chaos").  All wall-clock bounds are in real seconds
    #    because they guard against wedged *processes*, not simulated
    #    device time. --
    # How long the router waits for one shard's round reply before
    # declaring the worker wedged (SIGKILL + quarantine + replay).
    reply_timeout_s: float = 600.0
    # Reply bound of the between-rounds heartbeat ping.
    heartbeat_timeout_s: float = 30.0
    # Whether the router pings every alive worker between rounds.
    heartbeat: bool = True
    # Close-handshake reply bound and process-join bound used when the
    # fabric shuts a worker down (gracefully or after a kill).
    close_timeout_s: float = 10.0
    join_timeout_s: float = 30.0
    # How many times one shard slot may be respawned after its worker
    # died or wedged (0 disables self-healing respawn entirely).
    max_respawns: int = 1
    # -- straggler hedging: when a shard's round reply takes longer than
    #    hedge_factor x the hedge_quantile of the round's completed reply
    #    times (never less than hedge_min_s), the router re-dispatches
    #    the group to the least-loaded idle survivor and takes the first
    #    reply; the loser is cancelled (its reply discarded). --
    hedge: bool = True
    hedge_quantile: float = 0.95
    hedge_factor: float = 3.0
    hedge_min_s: float = 0.25
    # CRC32-checksum worker<->router serve/result pipe payloads; a
    # corrupt payload is a PimWorkerError and replays on the survivors.
    pipe_checksum: bool = True
    # Per-worker weight-store budget (MiB).  The fabric ships a GEMV
    # weight matrix to a shard in full once, LRU-caches it there up to
    # this many MiB, and sends only its 40-byte digest afterwards
    # (repro.stack.residency; docs/ARCHITECTURE.md, "Fabric transport").
    # 0 disables residency: every round re-ships the weights, which is
    # the differential oracle for the residency path.
    weight_store_mb: float = 64.0
    # -- durability (repro.journal; docs/ARCHITECTURE.md, "Durability &
    #    replay").  When journal_dir is set, the router appends every
    #    accepted Request and every terminal outcome to a CRC32-framed
    #    write-ahead log there, and repro.journal.recover(journal_dir)
    #    turns the directory back into exactly one bit-exact terminal
    #    outcome per request after a crash.  The fabric strips the knob
    #    from worker configs — the router owns durability, shards never
    #    journal.  journal_sync=True fsyncs every append (durable
    #    against machine death, one fsync per record). --
    journal_dir: Optional[str] = None
    journal_sync: bool = False

    def replace(self, **overrides) -> "ServerConfig":
        """A copy with ``overrides`` applied (dataclasses.replace)."""
        return replace(self, **overrides)

    def resolve(self, system_config=None) -> "ServerConfig":
        """A copy with every ``None`` knob filled in.

        Inherited knobs come from ``system_config`` (a
        :class:`~repro.stack.runtime.SystemConfig`) when one is given,
        else from the historical built-in defaults — the same fallback
        chain the per-kwarg ``PimServer.__init__`` implemented.
        """
        values = {}
        for field_name, config_attr in _INHERITED.items():
            if getattr(self, field_name) is not None:
                continue
            if system_config is not None:
                values[field_name] = getattr(system_config, config_attr)
            else:
                values[field_name] = _FALLBACKS[field_name]
        return self.replace(**values) if values else self

"""Shard-resident GEMV weights for the serving fabric's worker pipe.

The paper's runtime keeps weights resident in the PIM region across
invocations (§V-A); the fabric applies the same idea one layer up.
Consistent-hash placement sends same-signature requests back to the
same shard, so a weight matrix only has to cross the router→worker pipe
once per (shard, matrix):

* the router's first dispatch of a cacheable matrix to a shard carries
  it in full as :class:`StagedWeights` (array plus digest); the worker
  caches it in its :class:`WeightStore`;
* later dispatches carry only a :class:`WeightRef` — the 40-byte sha1
  digest — which the worker resolves from that store.

The router keeps one digest set per shard and clears it whenever the
worker behind it is replaced (quarantine, respawn, drain, router
recovery), and workers report LRU evictions back with every reply.  A
reference the worker cannot resolve anyway raises; the fabric treats
that like any failed round — quarantine, clear the shard's residency,
replay — so the replay re-stages the matrix and a stale map heals
itself instead of serving wrong weights.

``ServerConfig(weight_store_mb=0)`` disables residency: every request
then crosses the pipe unchanged, which is the differential oracle for
this module.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .api import Request

__all__ = [
    "StagedWeights",
    "WeightRef",
    "WeightStore",
    "as_wire_array",
    "budget_bytes",
    "decode_request",
    "encode_request",
]


def budget_bytes(weight_store_mb: float) -> int:
    """A shard's weight-store budget in bytes.

    The router and the worker both derive cacheability from this one
    rule, so they agree on which matrices may ever be resident.
    """
    return int(max(0.0, float(weight_store_mb)) * (1 << 20))


def as_wire_array(array: np.ndarray) -> np.ndarray:
    """The blessed normalisation choke point for arrays bound for a wire.

    The result is always C-contiguous (``tobytes``/``frombuffer``
    round-trips are layout-exact); already-contiguous arrays pass
    through untouched, and Fortran-ordered or sliced views are copied
    exactly once.
    """
    array = np.asarray(array)
    if array.size and not array.flags.c_contiguous:
        return np.ascontiguousarray(array)
    return array


@dataclass(frozen=True)
class WeightRef:
    """A weight matrix the target shard already holds, named by digest."""

    digest: str


@dataclass(frozen=True)
class StagedWeights:
    """First crossing of a cacheable weight matrix: array plus digest.

    The worker caches ``array`` in its :class:`WeightStore` under
    ``digest``; the router has already marked the pair resident.
    """

    digest: str
    array: np.ndarray


class WeightStore:
    """Shard-resident weight cache: digest -> staged array, LRU-bounded.

    ``budget_mb`` bounds the total cached bytes; inserting past the
    budget evicts least-recently-used entries first, and every eviction
    is reported back to the router (via :meth:`drain_evicted`) so its
    residency map never references a matrix the shard no longer holds.
    A matrix bigger than the whole budget is never cached (the router
    applies the same rule, so it re-ships such weights every round), and
    ``budget_mb=0`` disables residency entirely.
    """

    def __init__(self, budget_mb: float):
        self.budget_bytes = budget_bytes(budget_mb)
        self._store: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._evicted: List[str] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def cacheable(self, nbytes: int) -> bool:
        """Whether an array of ``nbytes`` may be cached at all."""
        return 0 < nbytes <= self.budget_bytes

    def get(self, digest: str) -> Optional[np.ndarray]:
        """The resident array for ``digest`` (freshened), else None."""
        array = self._store.get(digest)
        if array is None:
            self.misses += 1
            return None
        self._store.move_to_end(digest)
        self.hits += 1
        return array

    def put(self, digest: str, array: np.ndarray) -> bool:
        """Cache ``array`` under ``digest``; returns whether it stuck."""
        if not self.cacheable(array.nbytes):
            return False
        if digest in self._store:
            self._store.move_to_end(digest)
            return True
        while self._bytes + array.nbytes > self.budget_bytes and self._store:
            victim, evicted = self._store.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._evicted.append(victim)
            self.evictions += 1
        self._store[digest] = array
        self._bytes += array.nbytes
        return True

    def drain_evicted(self) -> List[str]:
        """Digests evicted since the last drain (cleared on read)."""
        evicted, self._evicted = self._evicted, []
        return evicted

    def __contains__(self, digest: str) -> bool:
        return digest in self._store

    def __len__(self) -> int:
        return len(self._store)


def encode_request(
    request: Request, resident: set, store_budget_bytes: int
) -> Request:
    """The wire form of one request, against one shard's residency set.

    A cacheable GEMV weight matrix ships as a :class:`WeightRef` when
    ``resident`` (the router's digest set for the *target* shard) names
    it, and as :class:`StagedWeights` otherwise, in which case its
    digest is added to ``resident``.  Anything else — elementwise
    requests, matrices over the store budget, a zero budget — crosses
    unchanged.  Hedges re-encode for their own target, because a
    reference is only valid on the shard that staged it.
    """
    if request.weights is None:
        return request
    weights = as_wire_array(request.weights)
    if not 0 < weights.nbytes <= store_budget_bytes:
        return request
    digest = request.weight_digest
    if digest in resident:
        wire = WeightRef(digest)
    else:
        resident.add(digest)
        wire = StagedWeights(digest, weights)
    return request.replace(weights=wire)


def decode_request(request: Request, store: WeightStore) -> Request:
    """Rebuild a full :class:`Request` from its wire form.

    Staged weights are cached in ``store``; a :class:`WeightRef`
    resolves from it, and a miss raises ``ValueError`` (the worker
    reports the round as failed, and the router's replay re-stages).
    The rebuilt request carries its digest pre-seeded, so the worker's
    server never hashes the matrix again.
    """
    wire = request.weights
    if isinstance(wire, WeightRef):
        weights = store.get(wire.digest)
        if weights is None:
            raise ValueError(
                f"weight digest {wire.digest[:12]}... referenced by the "
                f"router is not resident in this shard's weight store"
            )
    elif isinstance(wire, StagedWeights):
        weights = wire.array
        store.put(wire.digest, weights)
    else:
        return request
    decoded = request.replace(weights=weights)
    object.__setattr__(decoded, "_weight_digest", wire.digest)
    return decoded

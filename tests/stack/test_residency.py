"""Tests for shard-resident GEMV weights on the fabric's worker pipe.

Three tiers: the :func:`as_wire_array` layout choke point and the
:class:`WeightStore` LRU, the wire codec (staged first crossing,
digest-only afterwards, stale digests raise, digests pre-seeded), and
end-to-end fabric tests against the ``weight_store_mb=0`` twin that
re-ships every matrix — bit-exact results and an identical profile
render, fewer wire bytes, and residency invalidated and healed across
drain, respawn and a poisoned map.
"""

import numpy as np
import pytest

from repro.stack import (
    PimFabric,
    Request,
    ServerConfig,
    SystemConfig,
    gemv_reference,
)
from repro.stack.profiler import ServingProfile
from repro.stack.residency import (
    StagedWeights,
    WeightRef,
    WeightStore,
    as_wire_array,
    decode_request,
    encode_request,
)

CONFIG = SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1, server_seed=7)
RESIDENT = ServerConfig(hedge=False)
RESHIP = RESIDENT.replace(weight_store_mb=0)


def rand(shape, seed, scale=0.25, dtype=np.float16):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(dtype)


def gemv_stream(count, distinct, seed=7, shape=(16, 8), wbase=1000):
    """``count`` gemv Requests cycling over ``distinct`` weight matrices.

    ``wbase`` seeds the weight matrices themselves — streams sharing it
    share weights (and digests); distinct bases get distinct weights.
    """
    rng = np.random.default_rng(seed)
    weights = [rand(shape, wbase + k) for k in range(distinct)]
    arrivals = np.cumsum(rng.exponential(300.0, size=count))
    return [
        Request(
            "gemv", weights=weights[i % distinct],
            a=rand(shape[1], i), arrival_ns=float(arrivals[i]),
            trace_id=f"req{i}",
        )
        for i in range(count)
    ]


def assert_bit_exact(handles):
    for handle in handles:
        golden = gemv_reference(
            handle.request.weights, handle.request.a, CONFIG.num_pchs
        )
        assert handle.result is not None
        assert np.array_equal(handle.result, golden)


def serve_waves(items, workers, server_config, waves=1):
    """Serve ``items`` in ``waves`` submit/run rounds through one fabric."""
    chunk = max(1, -(-len(items) // waves))
    with PimFabric(
        CONFIG, workers=workers, server_config=server_config
    ) as fabric:
        handles, profile = [], ServingProfile()
        for lo in range(0, len(items), chunk):
            for request in items[lo:lo + chunk]:
                handles.append(fabric.submit(request))
            profile.merge(fabric.run())
        stats = {
            "bytes_tx": fabric.bytes_tx,
            "weight_store": dict(fabric.weight_store_stats),
        }
    return handles, profile, stats


class TestAsWireArray:
    """The blessed C-contiguity choke point."""

    def test_contiguous_passthrough_is_identity(self):
        array = rand((8, 4), 0)
        assert as_wire_array(array) is array

    def test_fortran_order_copied_to_c(self):
        array = np.asfortranarray(rand((8, 4), 1))
        wired = as_wire_array(array)
        assert wired.flags.c_contiguous
        assert np.array_equal(wired, array)

    def test_sliced_view_copied_to_c(self):
        array = rand((8, 8), 2)[:, ::2]
        wired = as_wire_array(array)
        assert wired.flags.c_contiguous
        assert np.array_equal(wired, array)

    def test_zero_length_array_survives(self):
        array = np.empty((0, 4), dtype=np.float16)
        wired = as_wire_array(array)
        assert wired.shape == (0, 4)
        assert wired.tobytes() == b""


class TestWeightStore:
    def test_put_get_hit_miss_accounting(self):
        store = WeightStore(budget_mb=1)
        array = rand((16, 8), 0)
        assert store.get("d1") is None
        assert store.put("d1", array)
        assert np.array_equal(store.get("d1"), array)
        assert (store.hits, store.misses) == (1, 1)

    def test_lru_eviction_reports_victims(self):
        store = WeightStore(budget_mb=1)
        a = rand(1 << 18, 1)  # 512 KiB each: two fit, the third evicts
        b, c = rand(1 << 18, 2), rand(1 << 18, 3)
        store.put("a", a), store.put("b", b)
        store.get("a")  # freshen: b is now least recently used
        store.put("c", c)
        assert store.drain_evicted() == ["b"]
        assert store.drain_evicted() == []
        assert "a" in store and "c" in store and "b" not in store
        assert store.evictions == 1

    def test_over_budget_array_never_cached(self):
        store = WeightStore(budget_mb=0.001)
        assert not store.cacheable(1 << 20)
        assert not store.put("big", rand(1 << 19, 4))
        assert len(store) == 0

    def test_zero_budget_disables_residency(self):
        store = WeightStore(budget_mb=0)
        assert not store.cacheable(16)


class TestWireCodec:
    def setup_method(self):
        self.store = WeightStore(budget_mb=4)

    def roundtrip(self, request, resident=None):
        wire = encode_request(
            request, resident if resident is not None else set(),
            self.store.budget_bytes,
        )
        return wire, decode_request(wire, self.store)

    def test_operands_cross_unchanged(self):
        request = Request("add", a=rand(64, 0), b=rand(64, 1))
        wire, decoded = self.roundtrip(request)
        assert wire is request and decoded is request

    def test_first_crossing_stages_weights(self):
        request = Request("gemv", weights=rand((64, 96), 2), a=rand(96, 3))
        resident = set()
        wire, decoded = self.roundtrip(request, resident)
        assert isinstance(wire.weights, StagedWeights)
        assert resident == {request.weight_digest}
        assert request.weight_digest in self.store
        assert np.array_equal(decoded.weights, request.weights)
        assert np.array_equal(decoded.a, request.a)

    def test_resident_weights_ship_as_digest(self):
        requests = [
            Request("gemv", weights=rand((64, 96), 4 + k), a=rand(96, 5))
            for k in range(2)
        ]
        resident = set()
        for request in requests:
            wire, _ = self.roundtrip(request, resident)
            assert isinstance(wire.weights, StagedWeights)
        for request in requests + requests[::-1]:
            wire, decoded = self.roundtrip(request, resident)
            assert wire.weights == WeightRef(request.weight_digest)
            assert np.array_equal(decoded.weights, request.weights)
        assert self.store.hits == 4

    def test_small_cacheable_weights_still_staged(self):
        # Residency pays off the moment a weight repeats, however small.
        request = Request("gemv", weights=rand((16, 8), 12), a=rand(8, 13))
        wire, _ = self.roundtrip(request)
        assert isinstance(wire.weights, StagedWeights)

    def test_fortran_weights_round_trip_layout_exact(self):
        weights = np.asfortranarray(rand((16, 8), 14))
        request = Request("gemv", weights=weights, a=rand(8, 15))
        resident = set()
        for _ in range(2):  # staged, then by digest
            _, decoded = self.roundtrip(request, resident)
            assert decoded.weights.flags.c_contiguous
            assert np.array_equal(decoded.weights, weights)

    def test_uncacheable_weights_cross_unchanged(self):
        request = Request("gemv", weights=rand((16, 8), 6), a=rand(8, 7))
        resident = set()
        wire = encode_request(request, resident, 0)
        assert wire is request and not resident

    def test_stale_digest_reference_raises(self):
        request = Request("gemv", weights=rand((64, 96), 8), a=rand(96, 9))
        wire = encode_request(
            request, {request.weight_digest}, self.store.budget_bytes
        )
        assert isinstance(wire.weights, WeightRef)
        with pytest.raises(ValueError, match="not resident"):
            decode_request(wire, self.store)

    def test_decoded_request_carries_digest_preseeded(self):
        request = Request("gemv", weights=rand((64, 96), 10), a=rand(96, 11))
        resident = set()
        for _ in range(2):  # staged, then by digest
            _, decoded = self.roundtrip(request, resident)
            assert decoded.__dict__.get("_weight_digest") == (
                request.weight_digest
            )


class TestResidencyFabric:
    """End to end against the weight_store_mb=0 re-ship oracle."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_exact_vs_reship_oracle(self, workers):
        items = gemv_stream(24, 4)
        r_handles, r_profile, _ = serve_waves(items, workers, RESHIP, waves=3)
        handles, profile, stats = serve_waves(
            items, workers, RESIDENT, waves=3
        )
        assert_bit_exact(handles)
        assert [h.outcome for h in r_handles] == [h.outcome for h in handles]
        assert all(
            np.array_equal(a.result, b.result)
            for a, b in zip(r_handles, handles)
        )
        assert r_profile.render() == profile.render()
        assert stats["weight_store"]["hits"] > 0

    def test_repeated_weights_cut_wire_bytes(self):
        items = gemv_stream(24, 4, shape=(32, 24))  # 1.5 KiB weights
        _, _, r_stats = serve_waves(items, 2, RESHIP, waves=4)
        handles, _, stats = serve_waves(items, 2, RESIDENT, waves=4)
        assert_bit_exact(handles)
        assert stats["bytes_tx"] * 2 < r_stats["bytes_tx"]
        assert stats["weight_store"]["hits"] > 0
        assert r_stats["weight_store"]["hits"] == 0

    def test_drain_invalidates_residency(self):
        with PimFabric(CONFIG, workers=2, server_config=RESIDENT) as fabric:
            handles = [fabric.submit(r) for r in gemv_stream(8, 2)]
            fabric.run()
            assert fabric._resident.get(0)
            fabric.drain(0)
            assert not fabric._resident.get(0)
            more = [fabric.submit(r) for r in gemv_stream(8, 2, seed=11)]
            fabric.run()
        assert_bit_exact(handles + more)

    def test_all_workers_dead_completes_on_host(self):
        config = RESIDENT.replace(max_respawns=0)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            handles = [fabric.submit(r) for r in gemv_stream(8, 2)]

            def kill_everything(fab):
                for shard in list(fab.alive_shards()):
                    fab.kill_worker(shard)
                fab._post_dispatch_hook = None

            fabric._post_dispatch_hook = kill_everything
            fabric.run()
            assert not any(fabric._resident.values())
        assert_bit_exact(handles)
        assert all(h.shard == -1 for h in handles)

    def test_respawn_invalidates_residency(self):
        config = RESIDENT.replace(max_respawns=1, heartbeat_timeout_s=2.0)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            first = [fabric.submit(r) for r in gemv_stream(8, 2)]
            fabric.run()
            old = {s: set(d) for s, d in fabric._resident.items() if d}
            assert old  # round 1 staged weights somewhere
            victim = next(iter(old))
            fabric.kill_worker(victim)
            # Round 2 uses *different* weights (wbase), so any digest
            # still marked resident on the respawned shard would be a
            # stale round-1 entry — there must be none.
            second = [fabric.submit(r) for r in gemv_stream(8, 2, wbase=2000)]
            fabric.run()
            assert not (fabric._resident.get(victim, set()) & old[victim])
            assert fabric.respawns == {victim: 1}
        assert_bit_exact(first + second)

    def test_stale_residency_self_heals_not_stale_weights(self):
        """Negative test: a poisoned residency map (digest never staged)
        must fail the round and heal by re-staging — never serve stale
        or missing weights silently."""
        items = gemv_stream(8, 1, seed=23)
        digest = items[0].weight_digest
        config = RESIDENT.replace(max_respawns=2)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            # Lie to the router: claim every shard already staged it.
            for shard in fabric.alive_shards():
                fabric._resident.setdefault(shard, set()).add(digest)
            handles = [fabric.submit(r) for r in items]
            profile = fabric.run()
        assert_bit_exact(handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert profile.replays > 0 or profile.quarantined_shards
        assert any("not resident" in str(e) for e in fabric.worker_errors)

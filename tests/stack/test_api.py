"""Tests for the redesigned submit/config surface (Request, ServerConfig)."""

import pickle

import numpy as np
import pytest

from repro.errors import PimProgramError
from repro.stack import Request, ServerConfig, request_signature
from repro.stack.runtime import SystemConfig


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestRequest:
    def test_frozen(self):
        request = Request("add", a=rand(8, 0), b=rand(8, 1))
        with pytest.raises(AttributeError):
            request.priority = 3

    def test_replace_builds_modified_copy(self):
        request = Request("add", a=rand(8, 0), b=rand(8, 1), priority=1)
        bumped = request.replace(priority=5)
        assert bumped.priority == 5
        assert request.priority == 1
        assert bumped.a is request.a

    def test_validate_accepts_all_ops(self):
        w, x = rand((16, 8), 0), rand(8, 1)
        v = rand(8, 2)
        for request in (
            Request("gemv", weights=w, a=x),
            Request("add", a=v, b=v),
            Request("mul", a=v, b=v),
            Request("relu", a=v),
            Request("bn", a=v, scalars=(1.5, -0.5)),
        ):
            assert request.validate() is request

    def test_validate_rejects_unknown_op(self):
        with pytest.raises(PimProgramError, match="unknown op"):
            Request("matmul", a=rand(8, 0)).validate()

    def test_validate_rejects_missing_operands(self):
        with pytest.raises(PimProgramError, match="gemv needs"):
            Request("gemv", a=rand(8, 0)).validate()
        with pytest.raises(PimProgramError, match="needs an input"):
            Request("relu").validate()
        with pytest.raises(PimProgramError, match="second operand"):
            Request("add", a=rand(8, 0)).validate()

    def test_pickle_round_trip_is_byte_identical(self):
        """The property the fabric depends on: a Request crosses a
        process boundary unchanged."""
        request = Request(
            "gemv", weights=rand((16, 8), 3), a=rand(8, 4),
            arrival_ns=123.0, priority=2, deadline_ns=5_000.0,
            trace_id="req42",
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone.op == request.op
        assert np.array_equal(clone.weights, request.weights)
        assert np.array_equal(clone.a, request.a)
        assert clone.arrival_ns == request.arrival_ns
        assert clone.priority == request.priority
        assert clone.deadline_ns == request.deadline_ns
        assert clone.trace_id == request.trace_id
        assert clone.signature == request.signature


class TestRequestSignature:
    def test_gemv_keys_on_weight_content_not_identity(self):
        w = rand((16, 8), 0)
        assert (
            Request("gemv", weights=w, a=rand(8, 1)).signature
            == Request("gemv", weights=w.copy(), a=rand(8, 2)).signature
        )

    def test_gemv_different_weights_different_signature(self):
        x = rand(8, 0)
        a = Request("gemv", weights=rand((16, 8), 1), a=x)
        b = Request("gemv", weights=rand((16, 8), 2), a=x)
        assert a.signature != b.signature

    def test_elementwise_keys_on_op_length_scalars(self):
        v, u = rand(8, 0), rand(8, 1)
        assert (
            Request("add", a=v, b=v).signature
            == Request("add", a=u, b=u).signature
        )
        assert (
            Request("add", a=v, b=v).signature
            != Request("mul", a=v, b=v).signature
        )
        assert (
            Request("add", a=v, b=v).signature
            != Request("add", a=rand(16, 2), b=rand(16, 3)).signature
        )
        assert (
            Request("bn", a=v, scalars=(1.0, 0.0)).signature
            != Request("bn", a=v, scalars=(2.0, 0.0)).signature
        )

    def test_signature_survives_pickling(self):
        request = Request("gemv", weights=rand((16, 8), 5), a=rand(8, 6))
        assert (
            pickle.loads(pickle.dumps(request)).signature
            == request.signature
        )

    def test_function_form_matches_property(self):
        w, x = rand((16, 8), 7), rand(8, 8)
        assert (
            request_signature("gemv", a=x, weights=w)
            == Request("gemv", weights=w, a=x).signature
        )


class TestServerConfig:
    def test_frozen_and_picklable(self):
        config = ServerConfig(lanes=4, queue_depth=16)
        with pytest.raises(AttributeError):
            config.lanes = 8
        assert pickle.loads(pickle.dumps(config)) == config

    def test_resolve_inherits_from_system_config(self):
        system_config = SystemConfig(
            queue_depth=32, admission="shed", server_seed=99,
            retry_budget=3.0,
        )
        resolved = ServerConfig().resolve(system_config)
        assert resolved.queue_depth == 32
        assert resolved.admission == "shed"
        assert resolved.seed == 99
        assert resolved.retry_budget == 3.0

    def test_explicit_knob_beats_inheritance(self):
        system_config = SystemConfig(queue_depth=32, admission="shed")
        resolved = ServerConfig(queue_depth=4, admission="degrade").resolve(
            system_config
        )
        assert resolved.queue_depth == 4
        assert resolved.admission == "degrade"

    def test_resolve_without_system_uses_historical_defaults(self):
        resolved = ServerConfig().resolve()
        assert resolved.admission == "block"
        assert resolved.retry_budget == 8.0
        assert resolved.breaker_threshold == 3
        assert resolved.seed == 0

    def test_resolve_is_idempotent(self):
        resolved = ServerConfig().resolve(SystemConfig())
        assert resolved.resolve(SystemConfig()) == resolved

    def test_replace_builds_modified_copy(self):
        config = ServerConfig(lanes=2)
        assert config.replace(lanes=6).lanes == 6
        assert config.lanes == 2

    def test_removed_transport_fields_rejected(self):
        # The shared-memory transport is gone; its knobs are unknown
        # fields now (docs/MIGRATION.md records the removal).
        with pytest.raises(TypeError):
            ServerConfig(transport="shm")
        with pytest.raises(TypeError):
            ServerConfig(shm_inline_bytes=0)


class TestWeightDigest:
    """The sha1 weight digest is computed once per Request."""

    def test_digest_cached_across_accesses(self, monkeypatch):
        import repro.stack.api as api

        calls = []
        real = api.hashlib.sha1
        monkeypatch.setattr(
            api.hashlib, "sha1",
            lambda data=b"": calls.append(1) or real(data),
        )
        request = Request("gemv", weights=rand((16, 8), 0), a=rand(8, 1))
        first = request.weight_digest
        assert request.weight_digest == first
        assert request.signature[-1] == first
        assert len(calls) == 1

    def test_digest_layout_invariant(self):
        w = rand((16, 8), 2)
        c = Request("gemv", weights=w, a=rand(8, 3))
        f = Request("gemv", weights=np.asfortranarray(w), a=rand(8, 3))
        assert c.weight_digest == f.weight_digest
        assert request_signature("gemv", weights=np.asfortranarray(w)) == (
            c.signature
        )

    def test_no_weights_no_digest(self):
        request = Request("add", a=rand(8, 4), b=rand(8, 5))
        assert request.weight_digest is None

    def test_server_submit_hashes_weights_once(self, monkeypatch):
        """The router takes a request's signature before a shard's server
        sees it; the server reuses that digest instead of re-hashing."""
        import repro.stack.api as api
        from repro.stack import PimServer, PimSystem

        calls = []
        real = api.hashlib.sha1
        monkeypatch.setattr(
            api.hashlib, "sha1",
            lambda data=b"": calls.append(1) or real(data),
        )
        request = Request("gemv", weights=rand((16, 8), 6), a=rand(8, 7))
        request.signature
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=256))
        with PimServer(system, ServerConfig(simulate_pchs=1)) as server:
            handle = server.submit(request)
            server.run()
        assert handle.result is not None
        assert len(calls) == 1

"""Tests for the seeded fault injector."""

import numpy as np
import pytest

from repro.errors import PimChannelError
from repro.faults import FaultConfig, FaultInjector
from repro.stack import PimSystem, SystemConfig

CONFIG = SystemConfig(num_pchs=2, num_rows=64, ecc=True)


def make_system():
    return PimSystem(CONFIG)


def seed_rows(system, rows=4, seed=11):
    """Allocate ``rows`` row-sets and poke a random pattern everywhere."""
    block = system.driver.alloc_rows(rows)
    row_ids = [block.row(i) for i in range(block.num_rows)]
    rng = np.random.default_rng(seed)
    for pch in range(system.num_pchs):
        for bank in system.device.pch(pch).banks:
            for row in row_ids:
                bank.poke(row, 0, rng.integers(0, 256, 32, dtype=np.uint8))
    return row_ids


def snapshot(system):
    """All materialised row bytes, concatenated in a fixed walk order."""
    parts = []
    for pch in range(system.num_pchs):
        for bank in system.device.pch(pch).banks:
            for row in bank.materialized_rows():
                parts.append(bank._rows[row].copy())
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)


class TestFaultConfig:
    def test_default_is_inactive(self):
        assert not FaultConfig().active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bit_flip_rate": 1e-6},
            {"check_flip_rate": 1e-6},
            {"register_fault_rate": 0.1},
            {"failed_channels": (1,)},
        ],
    )
    def test_any_fault_class_activates(self, kwargs):
        assert FaultConfig(**kwargs).active


class TestChannelFailure:
    def test_failed_bank_raises_naming_the_channel(self):
        system = make_system()
        injector = FaultInjector(system, FaultConfig(failed_channels=(1,)))
        assert injector.is_failed(1) and not injector.is_failed(0)
        with pytest.raises(PimChannelError) as err:
            system.device.pch(1).banks[0].peek(0, 0)
        assert err.value.channels == (1,)
        # The healthy channel still serves data.
        system.device.pch(0).banks[0].peek(0, 0)

    def test_out_of_range_channel_rejected(self):
        system = make_system()
        injector = FaultInjector(system, FaultConfig())
        with pytest.raises(PimChannelError):
            injector.fail_channel(99)

    def test_system_config_wires_the_injector(self):
        system = PimSystem(
            CONFIG.replace(faults=FaultConfig(failed_channels=(0,)))
        )
        assert system.fault_injector is not None
        assert system.fault_injector.is_failed(0)

    def test_inactive_config_builds_no_injector(self):
        system = PimSystem(CONFIG.replace(faults=FaultConfig()))
        assert system.fault_injector is None


class TestStorageFaults:
    def test_flips_only_allocated_materialized_rows(self):
        system = make_system()
        block = seed_rows(system, rows=2)
        injector = FaultInjector(
            system, FaultConfig(bit_flip_rate=0.01, seed=3)
        )
        flipped = injector.inject_storage_faults()
        assert flipped > 0
        allocated = set(block)
        for pch in range(system.num_pchs):
            for bank in system.device.pch(pch).banks:
                for row in bank.materialized_rows():
                    if row not in allocated:
                        assert not bank._rows[row].any()

    def test_nothing_flips_without_allocations(self):
        system = make_system()
        injector = FaultInjector(
            system, FaultConfig(bit_flip_rate=0.5, seed=3)
        )
        assert injector.inject_storage_faults() == 0
        assert injector.stats.bit_flips == 0

    def test_scrub_repairs_injected_single_flips(self):
        system = make_system()
        seed_rows(system, rows=2)
        clean = snapshot(system)
        injector = FaultInjector(
            system, FaultConfig(bit_flip_rate=2e-5, seed=5)
        )
        assert injector.inject_storage_faults() > 0
        result = system.driver.scrub()
        assert result.corrected > 0
        assert not result.uncorrectable
        assert np.array_equal(snapshot(system), clean)


class TestDeterminism:
    def test_same_seed_same_pattern(self):
        images = []
        counts = []
        for _ in range(2):
            system = make_system()
            seed_rows(system, rows=3)
            injector = FaultInjector(
                system,
                FaultConfig(
                    bit_flip_rate=1e-3,
                    check_flip_rate=1e-3,
                    register_fault_rate=0.5,
                    seed=42,
                ),
            )
            injector.tick()
            images.append(snapshot(system))
            counts.append(injector.stats.total)
        assert counts[0] == counts[1] > 0
        assert np.array_equal(images[0], images[1])

    def test_different_seeds_diverge(self):
        images = []
        for seed in (1, 2):
            system = make_system()
            seed_rows(system, rows=3)
            FaultInjector(
                system, FaultConfig(bit_flip_rate=1e-3, seed=seed)
            ).inject_storage_faults()
            images.append(snapshot(system))
        assert not np.array_equal(images[0], images[1])


class TestRegisterFaults:
    def test_tick_counts_epochs_and_new_faults(self):
        system = make_system()
        seed_rows(system, rows=1)
        injector = FaultInjector(
            system, FaultConfig(register_fault_rate=1.0, seed=0)
        )
        delta = injector.tick()
        assert delta == injector.stats.register_faults > 0
        assert injector.stats.epochs == 1

    def test_crf_upset_invalidates_broadcast_cache(self):
        system = make_system()
        # Pretend every channel already holds a broadcast microkernel.
        system._crf_loaded = {p: "kernel" for p in range(system.num_pchs)}
        injector = FaultInjector(
            system, FaultConfig(register_fault_rate=1.0, seed=0)
        )
        # With rate 1.0 every unit is struck each epoch; a third of the
        # strikes land in the CRF, so a few epochs guarantee one.
        for _ in range(8):
            injector.tick()
            if injector.stats.crf_faults:
                break
        assert injector.stats.crf_faults > 0
        assert len(system._crf_loaded) < system.num_pchs


class TestTransportCorruption:
    """The latency-tier corruption primitives the chaos harness drives."""

    def test_corrupt_blob_flips_one_bit_and_counts(self):
        injector = FaultInjector(make_system(), FaultConfig(seed=3))
        blob = bytes(range(64))
        corrupted = injector.corrupt_blob(blob)
        assert corrupted != blob
        diff = [i for i, (a, b) in enumerate(zip(blob, corrupted)) if a != b]
        assert len(diff) == 1
        assert bin(blob[diff[0]] ^ corrupted[diff[0]]).count("1") == 1
        assert injector.stats.pipe_corruptions == 1

"""The independent JEDEC timing auditor (repro.dram.audit).

Three layers: hand-written logs that break one rule each; the auditor
reporting clean on real serving runs recorded through ``tests/conftest.py``'s
``timing_audit`` fixture; and mutation tests showing that a recorded log
with one column moved a cycle earlier, or one PRE dropped, is rejected.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dram.audit import TimingAuditor, audit
from repro.dram.commands import CommandType
from repro.dram.timing import HBM2_1GHZ
from repro.stack import PimServer, PimSystem, Request, ServerConfig, SystemConfig

T = HBM2_1GHZ


def rules(log, timing=T, register_rows=()):
    return [v.rule for v in audit(log, timing, register_rows)]


def opened(bg=0, ba=0, row=0, at=0):
    """A log prefix that opens ``row`` of one bank."""
    return [(at, "ACT", bg, ba, row, False)]


class TestRules:
    def test_clean_single_bank_sequence(self):
        log = [
            (0, "ACT", 0, 0, 5, False),
            (T.trcd, "RD", 0, 0, 5, False),
            (T.trcd + T.tccd_l, "RD", 0, 0, 5, False),
            (T.tras, "PRE", 0, 0, 0, False),
            (T.tras + T.trp, "ACT", 0, 0, 6, False),
        ]
        assert rules(log) == []

    def test_accepts_command_types_and_names(self):
        log = [(0, CommandType.ACT, 0, 0, 1, False), (T.trcd, "WR", 0, 0, 1, False)]
        assert rules(log) == []

    def test_trcd(self):
        assert rules(opened() + [(T.trcd - 1, "RD", 0, 0, 0, False)]) == ["tRCD"]

    def test_tras(self):
        assert rules(opened() + [(T.tras - 1, "PRE", 0, 0, 0, False)]) == ["tRAS"]

    def test_trp(self):
        log = opened() + [
            (T.tras, "PRE", 0, 0, 0, False),
            (T.tras + T.trp - 1, "ACT", 0, 0, 1, False),
        ]
        assert "tRP" in rules(log)

    def test_trc(self):
        log = opened() + [
            (T.tras, "PRE", 0, 0, 0, False),
            (T.trc - 1, "ACT", 0, 0, 1, False),
        ]
        assert rules(log, timing=replace(T, trp=1)) == ["tRC"]

    def test_twr_and_trtp(self):
        write = opened() + [(T.trcd, "WR", 0, 0, 0, False)]
        end = T.trcd + T.cwl + T.burst_cycles + T.twr
        assert rules(write + [(end - 1, "PRE", 0, 0, 0, False)]) == ["tWR"]
        assert rules(write + [(end, "PRE", 0, 0, 0, False)]) == []
        late = replace(T, trtp=40)
        read = opened() + [(T.trcd, "RD", 0, 0, 0, False)]
        assert rules(read + [(T.trcd + 39, "PRE", 0, 0, 0, False)], late) == ["tRTP"]

    def test_tccd_short_and_long(self):
        log = [(0, "ACT", 0, 0, 0, False), (T.trrd_s, "ACT", 1, 0, 0, False)]
        start = T.trrd_s + T.trcd
        base = log + [(start, "RD", 0, 0, 0, False)]
        assert rules(base + [(start + T.tccd_s - 1, "RD", 1, 0, 0, False)]) == ["tCCD_S"]
        assert rules(base + [(start + T.tccd_s, "RD", 1, 0, 0, False)]) == []
        assert rules(base + [(start + T.tccd_l - 1, "RD", 0, 0, 0, False)]) == ["tCCD_L"]

    def test_tccd_long_across_an_intervening_group(self):
        """tCCD_L holds between any two columns of one bank group, not only
        consecutive ones (relevant once tCCD_L > 2 tCCD_S)."""
        slow = replace(T, tccd_l=9)
        log = [(0, "ACT", 0, 0, 0, False), (T.trrd_s, "ACT", 1, 0, 0, False)]
        start = T.trrd_s + T.trcd
        log += [
            (start, "RD", 0, 0, 0, False),
            (start + 2, "RD", 1, 0, 0, False),
            (start + 4, "RD", 0, 0, 0, False),
        ]
        assert rules(log, slow) == ["tCCD_L"]

    def test_all_bank_column_keeps_tccd_l_cadence(self):
        log = [(0, "ACT", 0, 0, 3, True), (T.trcd, "RD", 0, 0, 3, True)]
        assert rules(log + [(T.trcd + T.tccd_s, "RD", 1, 0, 3, True)]) == ["tCCD_L"]
        assert rules(log + [(T.trcd + T.tccd_l, "RD", 1, 0, 3, True)]) == []

    def test_all_bank_column_needs_every_bank_open(self):
        log = [(0, "ACT", 0, 0, 3, False), (T.trcd, "RD", 0, 0, 3, True)]
        assert rules(log) == ["state"] * 15

    def test_register_row_columns_bypass_the_banks(self):
        log = [(0, "WR", 0, 0, 60, True), (T.tccd_l, "WR", 0, 0, 60, True)]
        assert rules(log, register_rows=(60,)) == []
        assert "state" in rules(log)

    def test_trrd_short_and_long(self):
        assert rules([(0, "ACT", 0, 0, 0, False), (T.trrd_s - 1, "ACT", 1, 0, 0, False)]) == [
            "tRRD_S"
        ]
        assert rules([(0, "ACT", 0, 0, 0, False), (T.trrd_l - 1, "ACT", 0, 1, 0, False)]) == [
            "tRRD_L"
        ]

    def test_tfaw(self):
        wide = replace(T, tfaw=5 * T.trrd_s)
        log = [(i * T.trrd_s, "ACT", i, 0, 0, False) for i in range(4)]
        fifth = (4 * T.trrd_s, "ACT", 0, 1, 0, False)
        assert rules(log + [fifth], wide) == ["tFAW"]
        assert rules(log + [(wide.tfaw, "ACT", 0, 1, 0, False)], wide) == []

    def test_twtr_and_trtw(self):
        log = [(0, "ACT", 0, 0, 0, False), (T.trrd_s, "ACT", 1, 0, 0, False)]
        start = T.trrd_s + T.trcd
        wtr = start + T.cwl + T.burst_cycles + T.twtr
        write = log + [(start, "WR", 0, 0, 0, False)]
        assert rules(write + [(wtr - 1, "RD", 1, 0, 0, False)]) == ["tWTR"]
        assert rules(write + [(wtr, "RD", 1, 0, 0, False)]) == []
        slow = replace(T, trtw=7)
        read = log + [(start, "RD", 0, 0, 0, False)]
        assert rules(read + [(start + 6, "WR", 1, 0, 0, False)], slow) == ["tRTW"]

    def test_ref_needs_closed_banks_and_trfc(self):
        assert rules(opened() + [(T.trc, "REF", 0, 0, 0, False)]) == ["state"]
        log = [(0, "REF", 0, 0, 0, False)]
        assert rules(log + [(T.trfc - 1, "ACT", 0, 0, 0, False)]) == ["tRFC"]
        assert rules(log + [(T.trfc - 1, "REF", 0, 0, 0, False)]) == ["tRFC"]
        assert rules(log + [(T.trfc, "ACT", 0, 0, 0, False)]) == []

    def test_act_to_open_bank_and_wrong_row(self):
        assert rules(opened() + [(T.trc, "ACT", 0, 0, 1, False)]) == ["state"]
        assert rules(opened() + [(T.trcd, "RD", 0, 0, 1, False)]) == ["state"]

    def test_one_command_per_ca_cycle(self):
        log = [(0, "ACT", 0, 0, 0, False), (0, "ACT", 1, 1, 0, False)]
        assert "CA" in rules(log)

    def test_reset_closes_every_bank(self):
        log = opened() + [(5, "RESET", 0, 0, 0, False), (5 + T.trp, "REF", 0, 0, 0, False)]
        assert "state" not in rules(log)

    def test_violation_names_the_command(self):
        auditor = TimingAuditor(T)
        auditor.replay(opened() + [(1, "RD", 0, 0, 0, False)])
        (violation,) = auditor.violations
        assert (violation.index, violation.cycle, violation.cmd) == (1, 1, "RD")
        assert "tRCD" in str(violation)


# -- real runs, recorded by the timing_audit fixture ------------------------------

GEMV_M, GEMV_N = 64, 96


def _serve_gemv(rounds, round_size=64, matrices=4, seed=0):
    """A serve_gemv-shaped run: Poisson GEMV rounds over resident matrices."""
    rng = np.random.default_rng(seed)
    system = PimSystem(SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1))
    weights = [
        (rng.standard_normal((GEMV_M, GEMV_N)) * 0.25).astype(np.float16)
        for _ in range(matrices)
    ]
    base = 0.0
    with PimServer(system, ServerConfig(lanes=2, max_batch=8)) as server:
        for _ in range(rounds):
            offsets = np.sort(rng.uniform(0.0, round_size * 500.0, size=round_size))
            for i, offset in enumerate(offsets):
                x = (rng.standard_normal(GEMV_N) * 0.25).astype(np.float16)
                server.submit(
                    Request("gemv", a=x, weights=weights[i % matrices], arrival_ns=base + offset)
                )
            profile = server.run()
            base = max(r.finish_ns for r in profile.requests)
    return system


class TestCleanOnServing:
    def test_serve_gemv_two_rounds(self, timing_audit):
        _serve_gemv(rounds=2)
        assert timing_audit.commands > 10_000

    def test_ecc_elementwise_with_scrubs(self, timing_audit):
        rng = np.random.default_rng(1)
        system = PimSystem(
            SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1, ecc=True, scrub_interval=4)
        )
        with PimServer(system, ServerConfig(lanes=2, max_batch=8)) as server:
            for i, op in enumerate(("add", "mul", "relu", "bn") * 3):
                a = (rng.standard_normal(8192) * 0.25).astype(np.float16)
                b = (rng.standard_normal(8192) * 0.25).astype(np.float16)
                server.submit(Request(
                    op, a=a, b=b if op in ("add", "mul") else None,
                    scalars=(1.5, 0.25) if op == "bn" else None,
                    arrival_ns=2000.0 * i,
                ))
            server.run()
        assert timing_audit.commands > 1_000


# -- mutation: the auditor rejects a broken schedule --------------------------------


@pytest.fixture(scope="module")
def gemv_log():
    """One channel's command log from a small GEMV batch."""
    from tests.dram.issue_log import IssueRecorder, register_rows

    with IssueRecorder() as recorder:
        system = _serve_gemv(rounds=1, round_size=8, matrices=2, seed=3)
    channel = system.device.pch(0)
    return recorder.logs[channel], channel.timing, register_rows(channel)


def _name(entry):
    return getattr(entry[1], "value", entry[1])


def _spread(indices, count=24):
    """Up to ``count`` evenly spaced picks, so every mode is represented."""
    step = max(1, len(indices) // count)
    return indices[::step]


class TestMutations:
    def test_recorded_log_is_clean(self, gemv_log):
        log, timing, rows = gemv_log
        modes = {(_name(e), e[5]) for e in log}
        assert {("RD", True), ("RD", False), ("WR", True)} <= modes
        assert audit(log, timing, rows) == []

    def test_column_moved_one_cycle_earlier_is_rejected(self, gemv_log):
        log, timing, rows = gemv_log
        # Columns right behind the previous command went out at their
        # bound; one after a fence stall has slack a cycle earlier.
        columns = [
            i for i, e in enumerate(log)
            if _name(e) in ("RD", "WR") and e[0] - log[i - 1][0] <= timing.trcd
        ]
        picks = _spread(columns)
        assert len(picks) >= 20
        for i in picks:
            mutated = list(log)
            cycle, *rest = mutated[i]
            mutated[i] = (cycle - 1, *rest)
            assert audit(mutated, timing, rows), f"moving column #{i} earlier went unnoticed"

    def test_dropped_precharge_is_rejected(self, gemv_log):
        log, timing, rows = gemv_log
        pres = [i for i, e in enumerate(log) if _name(e) == "PRE"]
        assert len(pres) >= 20
        for i in pres:
            mutated = log[:i] + log[i + 1:]
            assert audit(mutated, timing, rows), f"dropping PRE #{i} went unnoticed"

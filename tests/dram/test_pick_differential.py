"""The fast timing core against the per-request, per-bank code it replaced.

The oracle is the FR-FCFS picking as it was before the bound memo: every
windowed row hit is probed with its own command, and every all-bank bound
is a ``max()`` over the 16 banks' own bounds, recomputed on every probe.
On seeded random single-bank and AB-PIM request streams with fences, the
production controller must issue every command on the same cycle and end
with the same counters.  A second test counts uncached bound computations
on a GEMV batch, so the "about one per command" property is gated by a
count, not by wall time.
"""

import random

import numpy as np
import pytest

from repro.dram.bank import BankConfig
from repro.dram.commands import Command, CommandType
from repro.dram.controller import MemOp, MemoryController, SchedulerPolicy
from repro.dram.pseudochannel import PseudoChannel
from repro.dram.timing import HBM2_1GHZ
from repro.pim.device import PimPseudoChannel
from repro.pim.isa import encode, exit_

NUM_ROWS = 64


class OracleController(MemoryController):
    """FR-FCFS picking as it was: one probe per windowed row hit."""

    def _pick(self, window):
        if self.policy is SchedulerPolicy.FCFS:
            return window[0]
        if self.policy is SchedulerPolicy.SHUFFLE:
            return self._rng.choice(window)
        best = None
        best_cycle = 0
        for request in window:
            if self._shadow_row(request.bg, request.ba) != request.row:
                continue
            cmd_type = CommandType.RD if request.op is MemOp.READ else CommandType.WR
            probe = Command(
                cmd_type, request.bg, request.ba, row=request.row, col=request.col,
                data=request.data,
            )
            cycle = self.channel.earliest_issue(probe)
            if best is None or cycle < best_cycle:
                best = request
                best_cycle = cycle
        if best is not None:
            return best
        return window[0]

    def _opportunistic_activate(self, window, picked, column=None):
        cmd_type = CommandType.RD if picked.op is MemOp.READ else CommandType.WR
        probe = Command(
            cmd_type, picked.bg, picked.ba, row=picked.row, col=picked.col,
            data=picked.data,
        )
        col_cycle = max(self._next_ca, self.channel.earliest_issue(probe))
        if col_cycle <= self._next_ca:
            return
        touched = set()
        for other in window:
            if other is picked:
                continue
            key = (other.bg, other.ba)
            if key in touched or key == (picked.bg, picked.ba):
                continue
            shadow = self._shadow_row(*key)
            if shadow == other.row:
                continue
            if shadow is not None:
                if any(
                    r.bg == other.bg and r.ba == other.ba and r.row == shadow
                    for r in window
                ):
                    continue
                pre = Command(CommandType.PRE, other.bg, other.ba)
                pre_cycle = max(self._next_ca, self.channel.earliest_issue(pre))
                if pre_cycle >= col_cycle:
                    continue
                self.channel.issue(pre, pre_cycle)
                self._next_ca = pre_cycle + 1
                self._open_rows[key] = None
                touched.add(key)
                continue
            act = Command(CommandType.ACT, other.bg, other.ba, row=other.row)
            act_cycle = max(self._next_ca, self.channel.earliest_issue(act))
            if act_cycle >= col_cycle:
                continue
            self.channel.issue(act, act_cycle)
            self._next_ca = act_cycle + 1
            self._open_rows[key] = other.row
            self.row_misses += 1
            touched.add(key)


class OracleChannel(PimPseudoChannel):
    """Every bound recomputed on every probe, all-bank ones bank by bank.

    A bank's own bound in an AB mode is its stored bound raised by the AB
    updates since mode entry (the stand-in bank's bounds).
    """

    def earliest_issue(self, cmd):
        delta = self._ab_delta
        if delta is None:
            return PseudoChannel._compute_bound(self, cmd)

        def own(bank, name):
            return max(getattr(bank, name), getattr(delta, name))

        kind = cmd.cmd
        if kind is CommandType.ACT:
            bank_bound = max(own(bank, "next_act") for bank in self.banks)
            return max(bank_bound, self._act_bus_bound(cmd))
        if kind in (CommandType.PRE, CommandType.PREA):
            return max(own(bank, "next_pre") for bank in self.banks)
        if kind.is_column:
            name = "next_wr" if kind is CommandType.WR else "next_rd"
            bank_bound = max(own(bank, name) for bank in self.banks)
            return max(bank_bound, self._col_bus_bound(cmd))
        return max(own(bank, "next_act") for bank in self.banks)


def _data(rng):
    return np.frombuffer(rng.randbytes(32), dtype=np.uint8)


def _sb_stream(mc, rng, length):
    for i in range(length):
        bg, ba = rng.randrange(4), rng.randrange(2)
        row, col = rng.randrange(3), rng.randrange(32)
        if rng.random() < 0.3:
            mc.write(bg, ba, row, col, _data(rng), tag=i)
        else:
            mc.read(bg, ba, row, col, tag=i)
        if rng.random() < 0.08:
            mc.fence()


def _ab_pim_stream(mc, channel, rng, length):
    """Enter AB-PIM, stream triggering columns over two rows, leave."""
    memory_map = channel.memory_map
    mc.drain()
    mc.precharge_all()
    mc.closed_page_access(0, 0, memory_map.abmr_row)
    program = np.zeros(8, dtype="<u4")
    program[0] = encode(exit_())  # surplus triggers still time like columns
    mc.write(0, 0, memory_map.crf_row, 0, program.view(np.uint8))
    on = np.zeros(32, dtype=np.uint8)
    on[0] = 1
    mc.write(0, 0, memory_map.conf_row, memory_map.PIM_OP_MODE_COL, on)
    mc.fence()
    for i in range(length):
        row, col = rng.randrange(2), rng.randrange(32)
        if rng.random() < 0.25:
            mc.write(0, 0, row, col, _data(rng), tag=i)
        else:
            mc.read(0, 0, row, col, tag=i)
        if rng.random() < 0.1:
            mc.fence()
    mc.fence()
    mc.write(0, 0, memory_map.conf_row, memory_map.PIM_OP_MODE_COL, np.zeros(32, np.uint8))
    mc.drain()
    mc.precharge_all()
    mc.closed_page_access(0, 0, memory_map.sbmr_row)


def _run(controller_cls, channel_cls, seed, ab_pim, policy):
    rng = random.Random(seed)
    channel = channel_cls(HBM2_1GHZ, BankConfig(num_rows=NUM_ROWS))
    mc = controller_cls(channel, policy=policy, seed=seed, window=8)
    issued = []
    for _ in range(3):
        _sb_stream(mc, rng, 40)
        if ab_pim:
            _ab_pim_stream(mc, channel, rng, 40)
        result = mc.drain()
        issued.extend((cycle, repr(req), req.tag) for cycle, req in result.issue_order)
    return channel, {
        "issued": issued,
        "cmd_counts": dict(channel.cmd_counts),
        "row_hits": mc.row_hits,
        "row_misses": mc.row_misses,
        "busy_cycles": mc.busy_cycles,
        "cycle": mc.current_cycle,
        "mode": channel.mode,
    }


@pytest.mark.parametrize("policy", [SchedulerPolicy.FRFCFS, SchedulerPolicy.FCFS])
@pytest.mark.parametrize("ab_pim", [False, True], ids=["sb", "ab_pim"])
@pytest.mark.parametrize("seed", range(6))
def test_matches_per_request_per_bank_oracle(seed, ab_pim, policy, timing_audit):
    oracle_channel, oracle = _run(OracleController, OracleChannel, seed, ab_pim, policy)
    channel, fast = _run(MemoryController, PimPseudoChannel, seed, ab_pim, policy)
    assert fast == oracle
    # Every command, including mode transitions and register writes,
    # issued on the same cycle.
    log = timing_audit.logs[channel]
    assert log == timing_audit.logs[oracle_channel]
    if ab_pim:
        assert ("RD", True) in {(kind.value, all_bank) for _, kind, *_, all_bank in log}


def test_bound_computations_per_command_on_a_gemv_batch(monkeypatch):
    """One 64x96 GEMV batch computes at most two bounds per command."""
    from repro.stack.kernels import GemvKernel
    from repro.stack.runtime import PimSystem, SystemConfig

    computed = [0]
    original = PimPseudoChannel._compute_bound

    def counted(self, cmd):
        computed[0] += 1
        return original(self, cmd)

    system = PimSystem(SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1))
    rng = np.random.default_rng(0)
    weights = (rng.standard_normal((64, 96)) * 0.25).astype(np.float16)
    xs = (rng.standard_normal((8, 96)) * 0.25).astype(np.float16)
    kernel = GemvKernel(system, 64, 96)
    kernel.load_weights(weights)
    before = sum(sum(mc.channel.cmd_counts.values()) for mc in system.controllers)
    monkeypatch.setattr(PimPseudoChannel, "_compute_bound", counted)
    kernel.batched(xs, simulate_pchs=1)
    commands = sum(sum(mc.channel.cmd_counts.values()) for mc in system.controllers) - before
    assert commands > 1000
    assert computed[0] <= 2 * commands, (computed[0], commands)

"""A pseudo-channel: 4 bank groups x 4 banks behind one CA/data bus.

The pseudo-channel owns all *shared-resource* timing constraints: column
cadence (tCCD_S/tCCD_L), activate spacing (tRRD_S/tRRD_L, tFAW), and data-bus
turnaround (tWTR/tRTW).  It also models the middle control logic that decodes
a CA pair and routes it to the target bank (Section II-B).

Timing state changes only in :meth:`PseudoChannel.issue` and
:meth:`PseudoChannel.hard_reset`, so between two of those calls every
command's earliest issue cycle is a constant.  :meth:`earliest_issue`
therefore computes each ``(command type, bank group, bank)`` bound once and
memoises it until the next ``issue``/``hard_reset``: the controller's
scheduling probes and the legality check inside ``issue`` share one
computation.

:class:`repro.pim.device.PimPseudoChannel` subclasses this to add all-bank
broadcast and PIM instruction triggering; the command interface — the JEDEC
boundary — is identical in both.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Type

import numpy as np

from .bank import Bank, BankConfig, TimingViolation
from .commands import Command, CommandType
from .timing import TimingParams

__all__ = ["PseudoChannel", "BANK_GROUPS", "BANKS_PER_GROUP", "BANKS_PER_PCH"]

BANK_GROUPS = 4
BANKS_PER_GROUP = 4
BANKS_PER_PCH = BANK_GROUPS * BANKS_PER_GROUP


class PseudoChannel:
    """One HBM2 pseudo-channel with 16 banks and shared-bus timing."""

    def __init__(
        self,
        timing: TimingParams,
        bank_config: Optional[BankConfig] = None,
        bank_cls: Type[Bank] = Bank,
    ):
        self.timing = timing
        self.bank_config = bank_config or BankConfig()
        self.banks: List[Bank] = [
            bank_cls(self.bank_config, timing) for _ in range(BANKS_PER_PCH)
        ]
        # Shared-resource history.
        self._last_col_cycle: Optional[int] = None
        self._last_col_bg: Optional[int] = None
        self._last_col_was_write = False
        self._last_act_cycle: Optional[int] = None
        self._last_act_bg: Optional[int] = None
        self._act_window: Deque[int] = deque(maxlen=4)  # for tFAW
        # Statistics.
        self.cmd_counts = {ct: 0 for ct in CommandType}
        # (command type value, bg, ba) -> earliest issue cycle; valid until
        # the next issue()/hard_reset().  Keyed on the type's ``_value_``
        # because hashing an Enum member runs Python code.
        self._bounds: Dict[Tuple[str, int, int], int] = {}

    # -- helpers ------------------------------------------------------------

    def bank(self, bg: int, ba: int) -> Bank:
        """The bank addressed by (bank group, bank)."""
        return self.banks[bg * BANKS_PER_GROUP + ba]

    def hard_reset(self, cycle: int) -> None:
        """Force every bank closed (channel-recovery path).

        Models the driver's recovery sequence after a mid-kernel fault: a
        worst-case wait followed by PREA.  Timing legality is not
        re-checked; each bank's next ACT is pushed past ``cycle + tRP``.
        """
        self._bounds.clear()
        for bank in self.banks:
            bank.force_precharge(cycle)

    def latest_bound(self) -> int:
        """The latest per-bank timing bound: every bank command is legal
        from this cycle on (what the channel-recovery sequence waits out)."""
        return max(
            max(bank.next_act, bank.next_pre, bank.next_rd, bank.next_wr)
            for bank in self.banks
        )

    def _col_bus_bound(self, cmd: Command) -> int:
        """Earliest cycle for a column command given shared-bus history."""
        t = self.timing
        bound = 0
        if self._last_col_cycle is not None:
            same_bg = self._last_col_bg == cmd.bg
            ccd = t.tccd_l if same_bg else t.tccd_s
            bound = self._last_col_cycle + ccd
            is_write = cmd.cmd is CommandType.WR
            if self._last_col_was_write and not is_write:
                # End of write burst to read command.
                bound = max(
                    bound,
                    self._last_col_cycle + t.cwl + t.burst_cycles + t.twtr,
                )
            elif not self._last_col_was_write and is_write:
                bound = max(bound, self._last_col_cycle + t.trtw)
        return bound

    def _act_bus_bound(self, cmd: Command) -> int:
        """Earliest cycle for an ACT given tRRD and tFAW history."""
        t = self.timing
        bound = 0
        if self._last_act_cycle is not None:
            same_bg = self._last_act_bg == cmd.bg
            bound = self._last_act_cycle + (t.trrd_l if same_bg else t.trrd_s)
        if len(self._act_window) == self._act_window.maxlen:
            bound = max(bound, self._act_window[0] + t.tfaw)
        return bound

    # -- command interface ----------------------------------------------------

    def earliest_issue(self, cmd: Command) -> int:
        """Earliest legal issue cycle for ``cmd`` (bank + shared bounds)."""
        key = (cmd.cmd._value_, cmd.bg, cmd.ba)
        bound = self._bounds.get(key)
        if bound is None:
            bound = self._bounds[key] = self._compute_bound(cmd)
        return bound

    def _compute_bound(self, cmd: Command) -> int:
        """:meth:`earliest_issue` without the memo."""
        if cmd.cmd is CommandType.ACT:
            bank_bound = self.bank(cmd.bg, cmd.ba).earliest_act()
            return max(bank_bound, self._act_bus_bound(cmd))
        if cmd.cmd is CommandType.PRE:
            return self.bank(cmd.bg, cmd.ba).earliest_pre()
        if cmd.cmd is CommandType.PREA:
            return max(bank.earliest_pre() for bank in self.banks)
        if cmd.cmd.is_column:
            is_write = cmd.cmd is CommandType.WR
            bank_bound = self.bank(cmd.bg, cmd.ba).earliest_col(is_write)
            return max(bank_bound, self._col_bus_bound(cmd))
        if cmd.cmd is CommandType.REF:
            return max(bank.earliest_act() for bank in self.banks)
        raise ValueError(f"unhandled command {cmd.cmd}")

    def issue(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        """Issue ``cmd`` at ``cycle``; returns read data for RD commands."""
        bound = self.earliest_issue(cmd)
        if cycle < bound:
            raise TimingViolation(f"{cmd!r} at {cycle} before bound {bound}")
        self._bounds.clear()
        self.cmd_counts[cmd.cmd] += 1
        if cmd.cmd is CommandType.ACT:
            self.bank(cmd.bg, cmd.ba).activate(cmd.row, cycle)
            self._record_act(cmd.bg, cycle)
            return None
        if cmd.cmd is CommandType.PRE:
            self.bank(cmd.bg, cmd.ba).precharge(cycle)
            return None
        if cmd.cmd is CommandType.PREA:
            for bank in self.banks:
                bank.precharge(cycle)
            return None
        if cmd.cmd is CommandType.RD:
            data = self.bank(cmd.bg, cmd.ba).read(cmd.row, cmd.col, cycle)
            self._record_col(cmd.bg, cycle, is_write=False)
            return data
        if cmd.cmd is CommandType.WR:
            if cmd.data is None:
                raise ValueError("WR command without data")
            self.bank(cmd.bg, cmd.ba).write(cmd.row, cmd.col, cmd.data, cycle)
            self._record_col(cmd.bg, cycle, is_write=True)
            return None
        if cmd.cmd is CommandType.REF:
            for bank in self.banks:
                bank.next_act = max(bank.next_act, cycle + self.timing.trfc)
            return None
        raise ValueError(f"unhandled command {cmd.cmd}")

    def _record_act(self, bg: int, cycle: int) -> None:
        self._last_act_cycle = cycle
        self._last_act_bg = bg
        self._act_window.append(cycle)

    def _record_col(self, bg: Optional[int], cycle: int, is_write: bool) -> None:
        self._last_col_cycle = cycle
        self._last_col_bg = bg
        self._last_col_was_write = is_write

    # -- bookkeeping ----------------------------------------------------------

    @property
    def all_banks_idle(self) -> bool:
        return all(bank.open_row is None for bank in self.banks)

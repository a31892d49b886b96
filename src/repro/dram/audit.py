"""An independent JEDEC timing auditor for issued-command logs.

The banks, the pseudo-channel and the controller both *schedule* commands
and *enforce* their timing from the same state, so a bug in that state
would pass its own check.  This module is the second opinion: it is
written from :mod:`repro.dram.timing` alone, keeps its own history of
every bank, bank group and the buses, and replays a log of issued
commands against the JEDEC rules::

    (cycle, cmd, bg, ba, row, all_bank)

``cmd`` is a command name (``"ACT"``, ``"PRE"``, ``"PREA"``, ``"RD"``,
``"WR"``, ``"REF"``) or a :class:`~repro.dram.commands.CommandType`;
``all_bank`` says the channel was in an all-bank (AB / AB-PIM) mode when
the command issued, so it addressed every bank.  The pseudo-command
``"RESET"`` records the channel-recovery sequence (every bank forced
closed, the next ACT no earlier than tRP later) and is not checked.

Rules checked, with the name each violation reports:

========  ============================================================
CA        one command per CA-bus cycle, in cycle order
state     ACT only to a closed bank; a column only to the open row;
          REF only with every bank closed
tRCD      ACT to a column command of the same bank
tRAS      ACT to PRE of the same bank
tRP       PRE to ACT (or REF) of the same bank
tRC       ACT to ACT of the same bank
tWR       end of a write burst to PRE of the same bank
tRTP      read to PRE of the same bank
tRRD_S/L  ACT to ACT, different / same bank group
tFAW      at most four ACTs in any tFAW window
tCCD_S/L  column to column, different / same bank group; an all-bank
          column occupies every bank group, so it keeps tCCD_L cadence
tWTR      end of a write burst to a read
tRTW      read to write
tRFC      REF to ACT or REF
========  ============================================================

An all-bank column to one of ``register_rows`` is decoded ahead of the
banks (the PIM register file): it needs no open row and leaves the banks
alone, but still keeps tRCD after the last ACT and every bus rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, Tuple

from .timing import TimingParams

__all__ = ["Violation", "TimingAuditor", "audit"]

BANK_GROUPS = 4
BANKS_PER_GROUP = 4

#: One issued command: (cycle, cmd, bg, ba, row, all_bank).
Entry = Tuple[int, object, int, int, int, bool]


@dataclass(frozen=True)
class Violation:
    """One broken rule: where in the log, which command, which rule."""

    index: int
    cycle: int
    cmd: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"#{self.index} {self.cmd}@{self.cycle}: {self.rule} ({self.detail})"


class _Bank:
    """What the auditor remembers about one bank."""

    __slots__ = ("open_row", "act", "closed", "rd", "wr")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.act: Optional[int] = None  # last ACT
        self.closed: Optional[int] = None  # last PRE that closed a row
        self.rd: Optional[int] = None  # last read since the last ACT
        self.wr: Optional[int] = None  # last write since the last ACT


class TimingAuditor:
    """Replays issued commands of one pseudo-channel against JEDEC timing.

    Feed commands in issue order with :meth:`observe` (or a whole log
    with :meth:`replay`); every broken rule is appended to
    :attr:`violations`.
    """

    def __init__(self, timing: TimingParams, register_rows: Iterable[int] = ()):
        self.t = timing
        self.register_rows = frozenset(register_rows)
        self.banks = [[_Bank() for _ in range(BANKS_PER_GROUP)] for _ in range(BANK_GROUPS)]
        self.violations: List[Violation] = []
        self.count = 0  # commands observed
        self._cycle = 0  # the command being checked
        self._cmd = ""
        self._last_cycle: Optional[int] = None
        self._acts: Deque[int] = deque(maxlen=4)  # last four ACT cycles
        self._last_act_bgs: Tuple[int, ...] = ()
        self._last_col_any: Optional[int] = None
        self._last_col_bg: List[Optional[int]] = [None] * BANK_GROUPS
        self._last_rd: Optional[int] = None
        self._last_wr: Optional[int] = None
        self._last_ref: Optional[int] = None

    # -- helpers ----------------------------------------------------------------

    def _need(self, rule: str, earliest: Optional[int], cycle: int, what: str) -> None:
        """Record ``rule`` broken if ``cycle`` is before ``earliest``."""
        if earliest is not None and cycle < earliest:
            self._fail(rule, f"{what}: needs cycle >= {earliest}")

    def _fail(self, rule: str, detail: str) -> None:
        self.violations.append(
            Violation(self.count, self._cycle, self._cmd, rule, detail)
        )

    def _targets(self, bg: int, ba: int, all_bank: bool) -> List[Tuple[str, _Bank]]:
        if all_bank:
            return [
                (f"bank {g}.{b}", self.banks[g][b])
                for g in range(BANK_GROUPS)
                for b in range(BANKS_PER_GROUP)
            ]
        return [(f"bank {bg}.{ba}", self.banks[bg][ba])]

    @staticmethod
    def _plus(base: Optional[int], delay: int) -> Optional[int]:
        return None if base is None else base + delay

    # -- commands ---------------------------------------------------------------

    def observe(
        self, cycle: int, cmd: object, bg: int = 0, ba: int = 0, row: int = 0,
        all_bank: bool = False,
    ) -> None:
        """Check one issued command, then record its effects."""
        name = str(getattr(cmd, "value", cmd))
        self._cycle = cycle
        self._cmd = name
        if name == "RESET":
            self._reset(cycle)
        else:
            if self._last_cycle is not None and cycle <= self._last_cycle:
                self._fail("CA", f"previous command at {self._last_cycle}")
            self._last_cycle = cycle
            if name == "ACT":
                self._act(cycle, bg, ba, row, all_bank)
            elif name in ("PRE", "PREA"):
                self._pre(cycle, bg, ba, all_bank or name == "PREA")
            elif name in ("RD", "WR"):
                self._column(cycle, name == "WR", bg, ba, row, all_bank)
            elif name == "REF":
                self._ref(cycle)
            else:
                raise ValueError(f"unknown command {name!r}")
        self.count += 1

    def replay(self, log: Iterable[Entry]) -> List[Violation]:
        """Observe every entry of ``log``; returns all violations so far."""
        for entry in log:
            self.observe(*entry)
        return self.violations

    def _act(self, cycle: int, bg: int, ba: int, row: int, all_bank: bool) -> None:
        t = self.t
        for where, bank in self._targets(bg, ba, all_bank):
            if bank.open_row is not None:
                self._fail("state", f"ACT to {where} with row {bank.open_row} open")
            self._need("tRP", self._plus(bank.closed, t.trp), cycle, where)
            self._need("tRC", self._plus(bank.act, t.trc), cycle, where)
        self._need("tRFC", self._plus(self._last_ref, t.trfc), cycle, "after REF")
        groups = tuple(range(BANK_GROUPS)) if all_bank else (bg,)
        if self._acts:
            same = any(g in self._last_act_bgs for g in groups)
            rule, delay = ("tRRD_L", t.trrd_l) if same else ("tRRD_S", t.trrd_s)
            self._need(rule, self._acts[-1] + delay, cycle, "after the last ACT")
        if len(self._acts) == self._acts.maxlen:
            self._need("tFAW", self._acts[0] + t.tfaw, cycle, "fifth ACT in the window")
        self._acts.append(cycle)
        self._last_act_bgs = groups
        for _, bank in self._targets(bg, ba, all_bank):
            bank.open_row = row
            bank.act = cycle
            bank.rd = bank.wr = None

    def _pre(self, cycle: int, bg: int, ba: int, every_bank: bool) -> None:
        t = self.t
        for where, bank in self._targets(bg, ba, every_bank):
            if bank.open_row is None:
                continue  # PRE to a closed bank is a NOP
            self._need("tRAS", self._plus(bank.act, t.tras), cycle, where)
            self._need("tRTP", self._plus(bank.rd, t.trtp), cycle, where)
            self._need(
                "tWR", self._plus(bank.wr, t.cwl + t.burst_cycles + t.twr), cycle, where
            )
            bank.open_row = None
            bank.closed = cycle

    def _column(
        self, cycle: int, is_write: bool, bg: int, ba: int, row: int, all_bank: bool
    ) -> None:
        t = self.t
        # Bus: column cadence and read/write turnaround.
        if all_bank:
            self._need("tCCD_L", self._plus(self._last_col_any, t.tccd_l), cycle,
                       "all-bank column cadence")
        else:
            self._need("tCCD_L", self._plus(self._last_col_bg[bg], t.tccd_l), cycle,
                       f"same bank group {bg}")
            self._need("tCCD_S", self._plus(self._last_col_any, t.tccd_s), cycle,
                       "after the last column")
        if is_write:
            self._need("tRTW", self._plus(self._last_rd, t.trtw), cycle, "after a read")
        else:
            self._need("tWTR", self._plus(self._last_wr, t.cwl + t.burst_cycles + t.twtr),
                       cycle, "after a write burst")
        # Banks: the row must be open and past tRCD.  A register access
        # still keeps tRCD after the last ACT, but needs no open row and
        # leaves the banks alone.
        register = all_bank and row in self.register_rows
        for where, bank in self._targets(bg, ba, all_bank):
            self._need("tRCD", self._plus(bank.act, t.trcd), cycle, where)
            if register:
                continue
            if bank.open_row != row:
                self._fail("state", f"column to row {row} of {where}, "
                                    f"open row {bank.open_row}")
            if is_write:
                bank.wr = cycle
            else:
                bank.rd = cycle
        self._last_col_any = cycle
        for g in (range(BANK_GROUPS) if all_bank else (bg,)):
            self._last_col_bg[g] = cycle
        if is_write:
            self._last_wr = cycle
        else:
            self._last_rd = cycle

    def _ref(self, cycle: int) -> None:
        t = self.t
        for where, bank in self._targets(0, 0, True):
            if bank.open_row is not None:
                self._fail("state", f"REF with row {bank.open_row} open in {where}")
            self._need("tRP", self._plus(bank.closed, t.trp), cycle, where)
            self._need("tRC", self._plus(bank.act, t.trc), cycle, where)
        self._need("tRFC", self._plus(self._last_ref, t.trfc), cycle, "after REF")
        self._last_ref = cycle

    def _reset(self, cycle: int) -> None:
        for _, bank in self._targets(0, 0, True):
            bank.open_row = None
            bank.closed = cycle
            bank.rd = bank.wr = None


def audit(
    log: Iterable[Entry], timing: TimingParams, register_rows: Iterable[int] = ()
) -> List[Violation]:
    """Every JEDEC timing violation in one channel's issued-command ``log``."""
    return TimingAuditor(timing, register_rows).replay(log)

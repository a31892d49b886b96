"""Record every command a channel accepts and audit it independently.

:class:`IssueRecorder` wraps ``PseudoChannel.issue``/``hard_reset`` and
their :class:`~repro.pim.device.PimPseudoChannel` overrides from outside
the program, the way ``e2ebench/layers.py`` times layers: nothing in
``src/`` knows it is there, and :meth:`IssueRecorder.uninstall` puts the
original functions back.  Each accepted command is logged as
``(cycle, cmd, bg, ba, row, all_bank)`` and fed to a per-channel
:class:`~repro.dram.audit.TimingAuditor`.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

from repro.dram.audit import TimingAuditor, Violation
from repro.dram.pseudochannel import PseudoChannel
from repro.pim.device import PimPseudoChannel


def register_rows(channel) -> Tuple[int, ...]:
    """Rows whose all-bank column accesses bypass the banks."""
    memory_map = getattr(channel, "memory_map", None)
    if memory_map is None:
        return ()
    return tuple(
        row for row in range(memory_map.first_reserved_row, memory_map.num_rows)
        if memory_map.is_register_row(row)
    )


class IssueRecorder:
    """Per-channel issued-command logs plus their audit."""

    def __init__(self) -> None:
        # Channels are weakly held so a long suite does not keep every
        # device alive; a channel's findings outlive it in ``violations``.
        self.logs: "weakref.WeakKeyDictionary[object, List[tuple]]" = (
            weakref.WeakKeyDictionary()
        )
        self._auditors: "weakref.WeakKeyDictionary[object, TimingAuditor]" = (
            weakref.WeakKeyDictionary()
        )
        self.violations: List[Tuple[str, Violation]] = []
        self.commands = 0
        self._open: Dict[int, int] = {}
        self._patches: List[Tuple[type, str, object]] = []

    def install(self) -> "IssueRecorder":
        for cls in (PseudoChannel, PimPseudoChannel):
            for name, wrap in (("issue", self._wrap_issue), ("hard_reset", self._wrap_reset)):
                original = vars(cls)[name]
                setattr(cls, name, wrap(original))
                self._patches.append((cls, name, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "IssueRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ---------------------------------------------------------------

    def _outermost(self, channel) -> bool:
        """Whether this is the channel's outermost wrapped call (a PIM
        channel's issue calls the base class's, which must not log twice)."""
        return not self._open.get(id(channel))

    def _call(self, fn, channel, *args):
        key = id(channel)
        self._open[key] = self._open.get(key, 0) + 1
        try:
            return fn(channel, *args)
        finally:
            self._open[key] -= 1

    def _wrap_issue(self, fn):
        def issue(channel, cmd, cycle):
            if not self._outermost(channel):
                return fn(channel, cmd, cycle)
            mode = getattr(channel, "mode_ctrl", None)
            all_bank = bool(mode is not None and mode.all_bank)
            result = self._call(fn, channel, cmd, cycle)
            self._record(channel, (cycle, cmd.cmd, cmd.bg, cmd.ba, cmd.row, all_bank))
            return result

        return issue

    def _wrap_reset(self, fn):
        def hard_reset(channel, cycle):
            if not self._outermost(channel):
                return fn(channel, cycle)
            result = self._call(fn, channel, cycle)
            self._record(channel, (cycle, "RESET", 0, 0, 0, False))
            return result

        return hard_reset

    def _record(self, channel, entry: tuple) -> None:
        auditor = self._auditors.get(channel)
        if auditor is None:
            auditor = TimingAuditor(channel.timing, register_rows(channel))
            self._auditors[channel] = auditor
            self.logs[channel] = []
        self.logs[channel].append(entry)
        seen = len(auditor.violations)
        auditor.observe(*entry)
        self.commands += 1
        for violation in auditor.violations[seen:]:
            self.violations.append((f"channel@{id(channel):x}", violation))

    def report(self, limit: int = 10) -> str:
        lines = [f"{where}: {v}" for where, v in self.violations[:limit]]
        more = len(self.violations) - limit
        if more > 0:
            lines.append(f"... and {more} more")
        return "\n".join(lines)

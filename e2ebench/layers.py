"""Host wall-clock attribution per simulator layer, from outside the program.

:class:`LayerTimer` replaces a layer's public entry points with thin
wrappers that time each call with ``perf_counter_ns``.  Every key keeps
three totals:

* ``calls`` — how many times any function filed under the key ran;
* ``incl_ns`` — wall time inside the key, counting a recursive or
  re-entrant call (``peek_columns`` falling back to ``peek``) once;
* ``self_ns`` — wall time inside the key minus the spans of the wrapped
  calls made directly from it.

Nothing in the program knows about the wrappers; :meth:`LayerTimer.uninstall`
puts the original function objects back.  The timer is per object, so two
timers never share state.
"""

from __future__ import annotations

import functools
import time
import types
from typing import Callable, Dict, Iterable, List, Tuple

#: (layer key, owner class or module, attribute name) of every timed entry
#: point; resolved lazily so this module imports without the program.
Target = Tuple[str, object, str]


def layer_targets() -> List[Target]:
    """The program's layer boundaries, keyed by layer.

    Only public entry points are wrapped, plus the server's host-fallback
    path so that ``server.self_s`` can exclude it.  ``PimPseudoChannel``
    is the concrete channel class of every ``PimSystem``; its
    ``earliest_issue`` is the timing probe the controller and the channel
    itself call before every command.
    """
    from repro.dram.controller import MemoryController
    from repro.dram.ecc import EccBank
    from repro.pim.device import PimPseudoChannel
    from repro.pim.lockstep import LockstepGroup
    from repro.stack.driver import PimDeviceDriver
    from repro.stack.fabric import PimFabric
    from repro.stack.kernels import ElementwiseKernel, GemvKernel
    from repro.stack.server import PimServer

    return [
        ("server.run", PimServer, "run"),
        ("server.host", PimServer, "_execute_host"),
        ("kernels.init", GemvKernel, "__init__"),
        ("kernels.init", ElementwiseKernel, "__init__"),
        ("kernels.load", GemvKernel, "load_weights"),
        ("kernels.launch", GemvKernel, "batched"),
        ("kernels.launch", ElementwiseKernel, "batched"),
        ("controller.drain", MemoryController, "drain"),
        ("timing.probe", PimPseudoChannel, "earliest_issue"),
        ("timing.issue", PimPseudoChannel, "issue"),
        ("pim.trigger", LockstepGroup, "trigger_all"),
        ("pim.flush", LockstepGroup, "flush_pending"),
        ("ecc.encode", EccBank, "poke"),
        ("ecc.encode", EccBank, "poke_columns"),
        ("ecc.check", EccBank, "peek"),
        ("ecc.check", EccBank, "peek_columns"),
        ("ecc.scrub", PimDeviceDriver, "scrub"),
        ("fabric.collect", PimFabric, "_collect_round"),
    ]


class LayerTimer:
    """Per-layer call counts, inclusive time and self time.

    ``clock`` returns integer nanoseconds; tests pass a fake clock to
    check the self-time arithmetic on a synthetic call tree.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        # key -> [calls, incl_ns, self_ns]; the lists are captured by the
        # wrappers, so reset() zeroes them in place.
        self.stats: Dict[str, List[int]] = {}
        # One accumulator per open wrapped call: the time its direct
        # wrapped children took.
        self._stack: List[int] = []
        # key -> wrapped calls of that key currently open.
        self._open: Dict[str, int] = {}
        # (owner, name, original, owned): owned is False when the
        # attribute was inherited and must be deleted, not restored.
        self._patches: List[Tuple[object, str, object, bool]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def wrap(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped to account its calls under ``key``."""
        stat = self.stats.setdefault(key, [0, 0, 0])
        stack = self._stack
        open_calls = self._open
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            depth = open_calls.get(key, 0)
            open_calls[key] = depth + 1
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                open_calls[key] = depth
                stat[0] += 1
                stat[2] += span - children
                if not depth:
                    stat[1] += span
                if stack:
                    stack[-1] += span

        return timed

    def patch(self, key: str, owner: object, name: str) -> None:
        """Replace ``owner.name`` (a plain function) by its timed wrapper."""
        owned = name in vars(owner)
        original = vars(owner)[name] if owned else getattr(owner, name)
        if not isinstance(original, types.FunctionType):
            raise TypeError(
                f"{getattr(owner, '__name__', owner)}.{name} is not a plain "
                f"function ({type(original).__name__})"
            )
        setattr(owner, name, self.wrap(key, original))
        self._patches.append((owner, name, original, owned))

    def install(self, targets: Iterable[Target]) -> None:
        """Patch every target; undone in reverse order by :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("timer already installed")
        try:
            for key, owner, name in targets:
                self.patch(key, owner, name)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original function object back."""
        while self._patches:
            owner, name, original, owned = self._patches.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def reset(self) -> None:
        """Zero every total (the wrappers keep running)."""
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        self._stack.clear()
        self._open.clear()

    def snapshot(self) -> Dict[str, Tuple[int, int, int]]:
        return {key: tuple(stat) for key, stat in self.stats.items()}

    def merge(self, delta: Dict[str, Tuple[int, int, int]]) -> None:
        """Add totals measured elsewhere (a fabric worker's)."""
        for key, values in delta.items():
            stat = self.stats.setdefault(key, [0, 0, 0])
            for i, value in enumerate(values):
                stat[i] += value


def diff(
    after: Dict[str, Tuple[int, int, int]],
    before: Dict[str, Tuple[int, int, int]],
) -> Dict[str, Tuple[int, int, int]]:
    """Per-key totals accumulated between two snapshots."""
    zero = (0, 0, 0)
    return {
        key: tuple(a - b for a, b in zip(values, before.get(key, zero)))
        for key, values in after.items()
    }

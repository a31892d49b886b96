"""Self-tests of the benchmark harness; ``run.py`` runs them before every run.

Run standalone with ``python3 e2ebench/selftest.py``: that also wraps and
unwraps the program's real layer entry points.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from golden import order_only, reduce_by_slice, reduce_flat  # noqa: E402
from layers import LayerTimer  # noqa: E402
from stats import percentile, quartiles, samples_beyond  # noqa: E402


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


class _FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_on_nested_tree() -> None:
    """top(1) -> mid(2) -> leaf(5), mid(3) -> leaf(5), top(4); recursion once."""
    clock = _FakeClock()
    tree = types.ModuleType("tree")

    def leaf():
        clock.now += 5

    def mid():
        clock.now += 2
        tree.leaf()
        clock.now += 3
        tree.leaf()

    def top():
        clock.now += 1
        tree.mid()
        clock.now += 4

    def rec(n):
        clock.now += 1
        if n:
            tree.rec(n - 1)

    def boom():
        clock.now += 7
        raise ValueError("boom")

    for fn in (leaf, mid, top, rec, boom):
        setattr(tree, fn.__name__, fn)
    timer = LayerTimer(clock=clock)
    timer.install([(name, tree, name) for name in ("leaf", "mid", "top", "rec", "boom")])
    try:
        tree.top()
        tree.rec(3)
        try:
            tree.boom()
        except ValueError:
            pass
    finally:
        timer.uninstall()
    stats = timer.snapshot()
    _check(stats["leaf"] == (2, 10, 10), f"leaf {stats['leaf']}")
    _check(stats["mid"] == (1, 15, 5), f"mid {stats['mid']}")
    _check(stats["top"] == (1, 20, 5), f"top {stats['top']}")
    # Four nested calls of one key: the inclusive span counts once.
    _check(stats["rec"] == (4, 4, 4), f"rec {stats['rec']}")
    _check(stats["boom"] == (1, 7, 7), f"boom {stats['boom']}")
    timer.reset()
    _check(all(v == (0, 0, 0) for v in timer.snapshot().values()), "reset")


def test_uninstall_restores(targets=None) -> None:
    """Uninstalling puts back the very function objects that were there."""

    class Base:
        def inherited(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    module = types.ModuleType("module")

    def free():
        return "free"

    module.free = free
    synthetic = [
        ("a", Child, "own"),
        ("b", Child, "inherited"),
        ("c", module, "free"),
    ]
    for group in (synthetic, targets or []):
        before = {(id(o), n): vars(o).get(n) for _, o, n in group}
        timer = LayerTimer()
        timer.install(group)
        _check(all(vars(o)[n] is not before[(id(o), n)] for _, o, n in group),
               "install did not replace every target")
        timer.uninstall()
        after = {(id(o), n): vars(o).get(n) for _, o, n in group}
        _check(all(after[k] is before[k] for k in before),
               "uninstall did not restore the original functions")
    _check(Child().inherited() == "base" and "inherited" not in vars(Child),
           "inherited method not restored to inheritance")
    own = vars(Child)["own"]
    try:
        LayerTimer().install([("x", Child, "own"), ("y", Child, "missing")])
    except AttributeError:
        _check(vars(Child)["own"] is own, "a failed install left a wrapper behind")
    else:
        _check(False, "installing a missing attribute must fail")


def test_percentile_rule() -> None:
    """Quote a percentile only with >= 10 samples beyond it, with its count."""
    _check(samples_beyond(100, 0.9) == 10, "100 samples leave 10 beyond p90")
    _check(percentile(range(99), 0.9) == {"value": None, "n": 99}, "p90 of 99")
    _check(percentile(range(100), 0.9) == {"value": 89.0, "n": 100}, "p90 of 100")
    _check(percentile(range(19), 0.5)["value"] is None, "median of 19")
    _check(percentile(range(20), 0.5) == {"value": 9.0, "n": 20}, "median of 20")
    _check(percentile([], 0.5) == {"value": None, "n": 0}, "empty")
    q = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    _check(q["median"] == 5.5 and q["n"] == 10, f"quartiles {q}")


def test_gemv_order_rule() -> None:
    """Excuse a GEMV result only for the FP32 order of its own partials."""
    # One large partial then subnormal ones: the flat order loses every
    # small term against 1.0, the by-slice order adds them up first.
    partials = np.full((4, 1, 8), 2.0**-24, dtype=np.float16)
    partials[0, 0, 0] = 1.0
    by_slice, flat = reduce_by_slice(partials), reduce_flat(partials)
    _check(by_slice.tobytes() != flat.tobytes(), "the two orders must differ here")
    _check(order_only(partials, flat, by_slice), "kernel order not excused")
    wrong_result = np.nextafter(flat, np.float32(0.0))
    _check(not order_only(partials, wrong_result, by_slice), "a wrong result was excused")
    wrong_reference = np.nextafter(by_slice, np.float32(0.0))
    _check(not order_only(partials, flat, wrong_reference), "a wrong reference was accepted")


TESTS = (
    test_self_time_on_nested_tree,
    test_uninstall_restores,
    test_percentile_rule,
    test_gemv_order_rule,
)


def run_selftests(targets=None) -> list:
    """Run every self-test; returns ``["name: error", ...]`` for failures."""
    failures = []
    for test in TESTS:
        try:
            if test is test_uninstall_restores:
                test(targets)
            else:
                test()
        except Exception as err:  # noqa: BLE001 - reported, then the run fails
            failures.append(f"{test.__name__}: {type(err).__name__}: {err}")
    return failures


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from layers import layer_targets

    failures = run_selftests(layer_targets())
    for failure in failures:
        print(failure)
    print(f"{len(TESTS) - len(failures)}/{len(TESTS)} harness self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Bulk ECC transfers against the per-column oracle.

Elementwise kernels stage, compute on and gather ECC-protected data a
whole bank row (or a whole cross-unit operand) at a time: the host walks
the plan's layout table and the PIM units read and write their banks
through :func:`repro.dram.ecc.read_columns` /
:func:`repro.dram.ecc.write_columns`.  ``exec_mode="scalar"`` keeps the
historical one-column-at-a-time path, so every fast mode must leave
exactly what it leaves: the same results, bank bytes, check bytes and
``EccStats``, with and without injected errors, and the same
:class:`~repro.dram.ecc.UncorrectableError` when a word cannot be
corrected.
"""

import numpy as np
import pytest

from repro.dram.bank import Bank, BankConfig
from repro.dram.ecc import (
    EccBank,
    UncorrectableError,
    read_clean,
    read_columns,
    write_columns,
)
from repro.dram.timing import HBM2_1GHZ
from repro.errors import PimChannelError
from repro.stack.api import Request, ServerConfig
from repro.stack.blas import add_reference
from repro.stack.kernels import ElementwiseKernel
from repro.stack.runtime import PimSystem, SystemConfig
from repro.stack.server import PimServer

CONFIG = SystemConfig(num_pchs=4, num_rows=64, simulate_pchs=1, ecc=True)
# 5000 elements on 2 channel slots: 24 blocks per unit stream, so each
# unit holds one full 16-column row and one partial 8-column row.
LENGTH = 5000
CHANNELS = (0, 1)
OPS = ("add", "mul", "relu", "bn")
FAST_MODES = ("lockstep", "fused")

# Injected errors: (channel slot, bank, row offset, column, kind, detail).
# Kinds: "data" flips stored bit ``detail`` of the column; "check" flips
# bit ``detail[1]`` of the column's check byte ``detail[0]``.  Operand
# errors are injected after staging and before the PIM units run;
# result errors after the kernel ran and before the host gathers.
OPERAND_SINGLE = (
    (0, 4, 0, 3, "data", 17),  # operand A, unit 2
    (0, 11, 1, 2, "data", 200),  # operand B, unit 5 (unread by relu/bn)
    (0, 0, 0, 5, "check", (1, 3)),
)
RESULT_SINGLE = (
    (1, 6, 0, 20, "data", 9),  # the shortcut channel's results
    (0, 14, 1, 17, "check", (2, 7)),
    (0, 2, 0, 16, "data", 255),
)
# Two uncorrectable result words.  The first in layout-table order (slot
# 0, unit 0, column 17) holds block 16; the second (slot 1, unit 0, column
# 16) holds block 1, so the historical block-by-block gather reports the
# second.
RESULT_DOUBLE = (
    (0, 0, 0, 17, "data", 70),
    (0, 0, 0, 17, "data", 71),
    (1, 0, 0, 16, "data", 40),
    (1, 0, 0, 16, "data", 41),
)
OPERAND_DOUBLE = (
    (0, 8, 0, 6, "data", 70),  # operand A of unit 4
    (0, 8, 0, 6, "data", 71),
)


def _operands(op):
    rng = np.random.default_rng(OPS.index(op))
    a = (rng.standard_normal(LENGTH) * 0.5).astype(np.float16)
    b = (rng.standard_normal(LENGTH) * 0.5).astype(np.float16)
    return a, (b if op in ("add", "mul") else None)


def _inject(system, kernel, flips):
    for pos, bank_index, row_offset, col, kind, detail in flips:
        bank = system.device.pch(kernel.channels[pos]).banks[bank_index]
        row = kernel.plan.base_row + row_offset
        if kind == "data":
            bank.inject_error(row, col, detail)
        else:
            bank.inject_check_error(row, col, *detail)


def _run(mode, op, operand_flips=(), result_flips=()):
    """One kernel call with errors injected between its steps.

    Returns (result bytes or None, (error type, message) or None, state),
    where state holds every bank's data rows, check bytes and EccStats.
    """
    system = PimSystem(CONFIG.replace(exec_mode=mode))
    kernel = ElementwiseKernel(system, op, LENGTH, channels=CHANNELS)
    stream, gather = kernel._stream_pch, kernel._gather_result

    def stream_after_flips(pos):
        if pos == 0:
            _inject(system, kernel, operand_flips)
        stream(pos)

    def gather_after_flips():
        _inject(system, kernel, result_flips)
        return gather()

    kernel._stream_pch = stream_after_flips
    kernel._gather_result = gather_after_flips
    a, b = _operands(op)
    result = error = None
    try:
        out, _ = kernel(a, b, scalars=(1.5, -0.25) if op == "bn" else None,
                        simulate_pchs=1)
        result = out.tobytes()
    except UncorrectableError as exc:
        error = (type(exc), str(exc))
    state = []
    for channel in system.device.pchs:
        for bank in channel.banks:
            state.append((
                {row: data.tobytes() for row, data in sorted(bank._rows.items())},
                {row: chk.tobytes() for row, chk in sorted(bank._check.items())},
                vars(bank.ecc_stats).copy(),
            ))
    return result, error, state


def _corrected(state):
    return sum(stats["corrected"] for _, _, stats in state)


class TestKernelAgainstScalarOracle:
    @pytest.mark.parametrize("mode", FAST_MODES)
    @pytest.mark.parametrize("op", OPS)
    def test_clean(self, op, mode):
        oracle = _run("scalar", op)
        assert oracle[0] is not None and oracle[1] is None
        assert _run(mode, op) == oracle

    @pytest.mark.parametrize("mode", FAST_MODES)
    @pytest.mark.parametrize("op", OPS)
    def test_single_bit_flips_in_operands_results_and_checks(self, op, mode):
        oracle = _run("scalar", op, OPERAND_SINGLE, RESULT_SINGLE)
        assert oracle[1] is None
        clean = _run("scalar", op)
        # The flips were corrected: same result as a clean run.
        assert oracle[0] == clean[0]
        assert _corrected(oracle[2]) >= 4
        assert _run(mode, op, OPERAND_SINGLE, RESULT_SINGLE) == oracle

    @pytest.mark.parametrize("mode", FAST_MODES)
    @pytest.mark.parametrize("op", OPS)
    def test_double_bit_result_words_raise_in_block_order(self, op, mode):
        oracle = _run("scalar", op, result_flips=RESULT_DOUBLE)
        system = PimSystem(CONFIG)
        row = ElementwiseKernel(system, op, LENGTH, channels=CHANNELS).plan.base_row
        assert oracle[1] == (
            UncorrectableError, f"double-bit error at row {row} col 16 word 0"
        )
        assert _run(mode, op, result_flips=RESULT_DOUBLE) == oracle

    @pytest.mark.parametrize("op", OPS)
    def test_double_bit_operand_word_raises_identically(self, op):
        """Same error from every mode; the post-error states may differ
        (the documented lock-step/fused exception-ordering caveat)."""
        errors = {
            mode: _run(mode, op, operand_flips=OPERAND_DOUBLE)[1]
            for mode in ("scalar",) + FAST_MODES
        }
        assert errors["scalar"] is not None
        assert errors["scalar"][0] is UncorrectableError
        assert "col 6 word 1" in errors["scalar"][1]
        assert errors["lockstep"] == errors["scalar"]
        assert errors["fused"] == errors["scalar"]

    @pytest.mark.parametrize("mode", ("scalar",) + FAST_MODES)
    def test_staging_onto_failed_channel_raises(self, mode):
        """Staging onto a failed channel raises its PimChannelError."""
        system = PimSystem(CONFIG.replace(exec_mode=mode))
        kernel = ElementwiseKernel(system, "add", LENGTH, channels=CHANNELS)
        for bank in system.device.pch(CHANNELS[1]).banks:
            bank.fail(CHANNELS[1])
        a, b = _operands("add")
        with pytest.raises(PimChannelError) as caught:
            kernel(a, b, simulate_pchs=1)
        assert caught.value.channels == (CHANNELS[1],)


# -- the shared cross-bank read and write ----------------------------------------

COLS = np.array([3, 0, 7])


def _banks(kind, seed):
    """Eight banks (one per unit) with random data in rows 0 and 1."""
    cfg = BankConfig(num_rows=8, row_bytes=256)
    rng = np.random.default_rng(seed)
    banks = []
    for _ in range(8):
        bank = kind(cfg, HBM2_1GHZ)
        for row in range(2):
            data = rng.integers(0, 256, size=(cfg.cols_per_row, 32), dtype=np.uint8)
            bank.poke_columns(row, np.arange(cfg.cols_per_row), data)
        banks.append(bank)
    return banks


def _bank_state(banks):
    out = []
    for bank in banks:
        rows = {r: a.tobytes() for r, a in sorted(bank._rows.items())}
        checks = {r: a.tobytes() for r, a in sorted(getattr(bank, "_check", {}).items())}
        stats = vars(bank.ecc_stats).copy() if hasattr(bank, "ecc_stats") else None
        out.append((rows, checks, stats))
    return out


def _per_bank_read(banks, row, cols):
    return np.stack([bank.peek_columns(row, cols) for bank in banks])


def _outcome(fn):
    try:
        return fn(), None
    except UncorrectableError as exc:
        return None, (type(exc), str(exc))


class TestCrossBankRead:
    @pytest.mark.parametrize("kind", [Bank, EccBank])
    def test_clean_read_matches_per_bank_reads(self, kind):
        fast, twin = _banks(kind, 1), _banks(kind, 1)
        got = read_columns(fast, 1, COLS)
        want = _per_bank_read(twin, 1, COLS)
        assert got.shape == (8, 3, 32)
        assert np.array_equal(got, want)
        assert _bank_state(fast) == _bank_state(twin)

    @pytest.mark.parametrize("kind", ["data", "check"])
    def test_one_dirty_bank_corrects_like_per_bank_reads(self, kind):
        fast, twin = _banks(EccBank, 2), _banks(EccBank, 2)
        for banks in (fast, twin):
            if kind == "data":
                banks[5].inject_error(0, 7, 100)
            else:
                banks[5].inject_check_error(0, 7, 3, 6)
        got = read_columns(fast, 0, COLS)
        want = _per_bank_read(twin, 0, COLS)
        assert np.array_equal(got, want)
        assert _bank_state(fast) == _bank_state(twin)
        assert fast[5].ecc_stats.corrected == 1

    def test_double_bit_in_one_bank_raises_like_per_bank_reads(self):
        fast, twin = _banks(EccBank, 3), _banks(EccBank, 3)
        for banks in (fast, twin):
            banks[2].inject_error(1, 3, 9)  # correctable, corrected first
            banks[6].inject_error(1, 0, 1)
            banks[6].inject_error(1, 0, 2)
        got = _outcome(lambda: read_columns(fast, 1, COLS))
        want = _outcome(lambda: _per_bank_read(twin, 1, COLS))
        assert want[1] == (UncorrectableError, "double-bit error at row 1 col 0 word 0")
        assert got == want
        assert _bank_state(fast) == _bank_state(twin)

    @pytest.mark.parametrize("kind", [Bank, EccBank])
    def test_unwritten_rows_read_as_zeros(self, kind):
        fast, twin = _banks(kind, 14), _banks(kind, 14)
        for banks in (fast, twin):
            banks[0]._rows.pop(1)  # one bank never wrote row 1
            if kind is EccBank:
                banks[0]._check.pop(1)
        want = np.concatenate([
            _per_bank_read(twin, 1, COLS).reshape(-1, 32),
            _per_bank_read(twin, 6, COLS).reshape(-1, 32),
        ])
        groups = [(bank, row, COLS) for row in (1, 6) for bank in fast]
        got = read_clean(groups)
        assert got is not None and np.array_equal(got, want)
        assert not got[: len(COLS)].any()
        assert _bank_state(fast) == _bank_state(twin)

    def test_scalar_mode_bank_takes_the_per_bank_path(self):
        fast = _banks(EccBank, 4)
        twin = _banks(EccBank, 4)
        for banks in (fast, twin):
            banks[3].use_vectorized = False
            banks[3].inject_error(0, 0, 33)
        assert read_clean([(bank, 0, COLS) for bank in fast]) is None
        assert np.array_equal(read_columns(fast, 0, COLS), _per_bank_read(twin, 0, COLS))
        assert _bank_state(fast) == _bank_state(twin)

    def test_declined_read_changes_nothing(self):
        banks = _banks(EccBank, 5)
        banks[4].inject_error(0, 3, 0)
        before = _bank_state(banks)
        # Row 5 was never written: a declined read must not materialise it.
        assert read_clean([(bank, row, COLS) for bank in banks for row in (5, 0)]) is None
        assert _bank_state(banks) == before

    def test_failed_bank_is_left_to_the_per_bank_path(self):
        banks = _banks(EccBank, 6)
        banks[1].fail(3)
        assert read_clean([(bank, 0, COLS) for bank in banks]) is None


class TestCrossBankWrite:
    @pytest.mark.parametrize("kind", [Bank, EccBank])
    def test_matches_per_bank_writes(self, kind):
        fast, twin = _banks(kind, 7), _banks(kind, 7)
        data = np.random.default_rng(8).integers(0, 256, size=(8, 3, 32), dtype=np.uint8)
        write_columns(fast, 1, COLS, data)
        for bank, columns in zip(twin, data):
            bank.poke_columns(1, COLS, columns)
        assert _bank_state(fast) == _bank_state(twin)

    def test_overwrites_a_dirty_bank_clean(self):
        fast, twin = _banks(EccBank, 9), _banks(EccBank, 9)
        for banks in (fast, twin):
            banks[0].inject_check_error(0, 3, 0, 0)
            banks[0].inject_error(0, 7, 1)
            banks[0].inject_error(0, 7, 2)
        data = np.random.default_rng(10).integers(0, 256, size=(8, 3, 32), dtype=np.uint8)
        write_columns(fast, 0, COLS, data)
        for bank, columns in zip(twin, data):
            bank.poke_columns(0, COLS, columns)
        assert _bank_state(fast) == _bank_state(twin)
        # The rewritten columns read back clean in one pass.
        assert np.array_equal(read_clean([(bank, 0, COLS) for bank in fast]),
                              data.reshape(-1, 32))

    def test_scalar_mode_bank_takes_the_per_bank_path(self):
        fast, twin = _banks(EccBank, 11), _banks(EccBank, 11)
        for banks in (fast, twin):
            banks[6].use_vectorized = False
        data = np.random.default_rng(12).integers(0, 256, size=(8, 3, 32), dtype=np.uint8)
        write_columns(fast, 1, COLS, data)
        for bank, columns in zip(twin, data):
            bank.poke_columns(1, COLS, columns)
        assert _bank_state(fast) == _bank_state(twin)

    def test_rejects_misshapen_data(self):
        banks = _banks(EccBank, 13)
        with pytest.raises(ValueError):
            write_columns(banks, 0, COLS, np.zeros((8, 2, 32), dtype=np.uint8))


# -- SEC-DED call count ------------------------------------------------------------


def test_secded_calls_per_elementwise_request(monkeypatch):
    """One 8192-element ``add`` request on an ECC system: SEC-DED array calls.

    The serving shape of the elementwise benchmark workload (4 channels, 2
    lanes, one simulated channel per lane).  Staging, the PIM operands and
    the gather used to call the engine once per 32-byte column: 2,560
    calls (1,536 ``encode_words`` + 1,024 ``check_words``).  With one call
    per bank row on the host and one per cross-unit operand on the device
    the request makes 177 (112 + 65).  The gate is an eighth of the old
    count.
    """
    import repro.dram.ecc as ecc

    counts = {"encode_words": 0, "check_words": 0}

    def counted(name):
        original = getattr(ecc, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return call

    system = PimSystem(SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1, ecc=True))
    server = PimServer(system, ServerConfig(lanes=2, max_batch=8))
    rng = np.random.default_rng(0)
    a = rng.standard_normal(8192).astype(np.float16)
    b = rng.standard_normal(8192).astype(np.float16)
    server.submit(Request("add", a=a, b=b))
    server.run()  # builds and caches the kernel
    for name in counts:
        monkeypatch.setattr(ecc, name, counted(name))
    handle = server.submit(Request("add", a=a, b=b))
    server.run()
    server.close()
    assert np.array_equal(handle.result, add_reference(a, b))
    assert sum(counts.values()) <= 2560 // 8, counts

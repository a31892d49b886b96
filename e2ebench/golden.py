"""GEMV partial sums and the two FP32 orders the program reduces them in.

``gemv_reference`` adds each slice's register partials, then the slices;
``GemvKernel`` adds all (slice, register) partials in one
``sum(axis=(0, 1))``.  The FP16 partials are the same, but on rare inputs
the two FP32 orders round one output element differently.  The benchmark
counts such a result as correct only when :func:`order_only` proves that
this is the whole difference, and reports every one it excuses.
"""

from __future__ import annotations

import numpy as np


def gemv_partials(w, x, num_pchs: int, regs: int) -> np.ndarray:
    """FP16 partial sums shaped (slice, output, register).

    The sequential FP16 MAC per sub-accumulator of ``gemv_reference`` (and
    the device), stopped before the FP32 host reduction.
    """
    w = np.asarray(w, dtype=np.float16)
    x = np.asarray(x, dtype=np.float16)
    m, n = w.shape
    n_slice = -(-n // num_pchs)
    n_slice = -(-n_slice // regs) * regs
    wp = np.zeros((m, num_pchs * n_slice), dtype=np.float16)
    wp[:, :n] = w
    xp = np.zeros(num_pchs * n_slice, dtype=np.float16)
    xp[:n] = x
    partials = np.zeros((num_pchs, m, regs), dtype=np.float16)
    for p in range(num_pchs):
        acc = np.zeros((m, regs), dtype=np.float16)
        for k in range(n_slice // regs):
            base = p * n_slice + k * regs
            prod = (wp[:, base : base + regs] * xp[base : base + regs]).astype(np.float16)
            acc = (acc + prod).astype(np.float16)
        partials[p] = acc
    return partials


def reduce_by_slice(partials: np.ndarray) -> np.ndarray:
    """``gemv_reference``'s order: registers of each slice, then slices."""
    total = np.zeros(partials.shape[1], dtype=np.float32)
    for acc in partials:
        total += acc.astype(np.float32).sum(axis=1)
    return total


def reduce_flat(partials: np.ndarray) -> np.ndarray:
    """``GemvKernel``'s order, on its (slice, register, output) layout."""
    by_kernel = np.ascontiguousarray(partials.transpose(0, 2, 1))
    return by_kernel.astype(np.float32).sum(axis=(0, 1))


def order_only(partials: np.ndarray, result: np.ndarray, expected: np.ndarray) -> bool:
    """Whether ``result`` differs from ``expected`` only in reduction order.

    True only if the partials give ``expected`` bit for bit in the
    reference's order and ``result`` bit for bit in the kernel's.
    """
    return (
        reduce_by_slice(partials).tobytes() == expected.tobytes()
        and reduce_flat(partials).tobytes() == result.tobytes()
    )

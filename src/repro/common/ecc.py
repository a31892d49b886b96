"""SEC-DED error-correcting code for on-die DRAM ECC (Section VIII).

The paper's product does not ship ECC but argues the architecture is
ECC-ready: "each PIM execution unit reads and writes data at the same data
access granularity as a host processor", so an on-die (72,64) engine can
protect PIM accesses exactly like host accesses.  This module implements
the classic extended-Hamming SEC-DED code used by on-die DRAM ECC:

* 64 data bits + 7 Hamming parity bits + 1 overall parity bit;
* any single-bit error (data or parity) is located and corrected;
* any double-bit error is detected as uncorrectable.

The cell array stores the 64 data bits as-is; the 8 check bits live in a
separate ECC array (:class:`repro.dram.ecc.EccBank` keeps one check byte
per 8-byte word, four per 32-byte column burst).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = [
    "DecodeStatus",
    "DecodeResult",
    "encode",
    "decode",
    "encode_words",
    "check_words",
    "decode_words",
    "STATUS_CODES",
    "CHECK_BITS",
]

CHECK_BITS = 8  # 7 Hamming + 1 overall parity
_DATA_BITS = 64
_CODE_POSITIONS = 71  # Hamming positions 1..71 (7 parity + 64 data)

# Positions 1..71 that are powers of two carry Hamming parity bits.
_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32, 64)
_DATA_POSITIONS = tuple(
    pos for pos in range(1, _CODE_POSITIONS + 1) if pos not in _PARITY_POSITIONS
)
assert len(_DATA_POSITIONS) == _DATA_BITS

# For each of the 7 syndrome bits: the mask over the 71-bit codeword of
# positions participating in that parity group.
_PARITY_MASKS: List[int] = []
for _bit in range(7):
    _mask = 0
    for _pos in range(1, _CODE_POSITIONS + 1):
        if _pos & (1 << _bit):
            _mask |= 1 << (_pos - 1)
    _PARITY_MASKS.append(_mask)


def _parity(value: int) -> int:
    return bin(value).count("1") & 1


def _scatter(data: int) -> int:
    """Place 64 data bits into their codeword positions (parity bits 0)."""
    word = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        if (data >> i) & 1:
            word |= 1 << (pos - 1)
    return word


def _gather(word: int) -> int:
    data = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        if (word >> (pos - 1)) & 1:
            data |= 1 << i
    return data


class DecodeStatus(enum.Enum):
    """Outcome of checking one codeword."""
    CLEAN = "clean"
    CORRECTED = "corrected-single"
    UNCORRECTABLE = "detected-double"


@dataclass(frozen=True)
class DecodeResult:
    data: int
    status: DecodeStatus


def encode(data: int) -> int:
    """Compute the 8 check bits for 64 data bits."""
    if not 0 <= data < (1 << _DATA_BITS):
        raise ValueError("data must fit in 64 bits")
    word = _scatter(data)
    check = 0
    for bit, mask in enumerate(_PARITY_MASKS):
        if _parity(word & mask):
            check |= 1 << bit
            word |= 1 << (_PARITY_POSITIONS[bit] - 1)
    check |= _parity(word) << 7
    return check


def decode(data: int, check_byte: int) -> DecodeResult:
    """Check (and correct) 64 data bits against their stored check byte.

    Errors may be in the data bits *or* in the check byte; both are
    covered by the codeword.
    """
    word = _scatter(data)
    for bit in range(7):
        if (check_byte >> bit) & 1:
            word |= 1 << (_PARITY_POSITIONS[bit] - 1)
    syndrome = 0
    for bit, mask in enumerate(_PARITY_MASKS):
        if _parity(word & mask):
            syndrome |= 1 << bit
    overall_error = _parity(word) != ((check_byte >> 7) & 1)

    if syndrome == 0:
        if not overall_error:
            return DecodeResult(data, DecodeStatus.CLEAN)
        # The overall parity bit itself flipped: data is intact.
        return DecodeResult(data, DecodeStatus.CORRECTED)
    if overall_error:
        if syndrome <= _CODE_POSITIONS:
            word ^= 1 << (syndrome - 1)
            return DecodeResult(_gather(word), DecodeStatus.CORRECTED)
        return DecodeResult(data, DecodeStatus.UNCORRECTABLE)
    # Non-zero syndrome with matching overall parity: two bits flipped.
    return DecodeResult(data, DecodeStatus.UNCORRECTABLE)


# -- array SEC-DED (the vectorized hot path) ---------------------------------
#
# The syndrome of a codeword is the XOR of the *positions* of its set bits
# (bit b of a position says whether that position joins parity group b), so
# per-byte lookup tables collapse the whole scatter/parity pipeline into
# eight table gathers and an XOR fold.  For each byte lane of the 64-bit
# data word, ``_BYTE_CONTRIB[lane][value]`` carries the XOR of the codeword
# positions of the value's set bits in its low 7 bits and the plain bit
# parity of the value in bit 7 (the overall-parity contribution).

_STATUS_BY_CODE = (
    DecodeStatus.CLEAN,
    DecodeStatus.CORRECTED,
    DecodeStatus.UNCORRECTABLE,
)
STATUS_CODES = {status: code for code, status in enumerate(_STATUS_BY_CODE)}

_BYTE_CONTRIB = np.zeros((8, 256), dtype=np.uint8)
for _lane in range(8):
    for _value in range(256):
        _acc = 0
        for _k in range(8):
            if (_value >> _k) & 1:
                _acc ^= _DATA_POSITIONS[8 * _lane + _k] | 0x80
        _BYTE_CONTRIB[_lane, _value] = _acc

_PARITY8 = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.uint8)
# The check byte of a word whose contribution is ``v`` is ``v`` with bit 7
# flipped by the parity of its 7 Hamming bits (the overall parity covers
# them too).  The map is its own inverse, so it also gives the
# contribution a clean word must have for a stored check byte.
_PARITY_FLIP = (
    np.arange(256, dtype=np.uint8) ^ (_PARITY8[np.arange(256) & 0x7F] << 7)
).astype(np.uint8)
# Lane ``k`` of a word looks up ``_BYTE_CONTRIB[k]``: flat index
# ``256 * k + byte``.
_LANE_BASE = np.arange(0, 8 * 256, 256, dtype=np.intp)
_FLAT_CONTRIB = _BYTE_CONTRIB.ravel()
# Words per lookup pass: bounds the (words, 8) index temporary at 16 KiB.
_CHUNK_WORDS = 256


def _fold(lanes: np.ndarray) -> np.ndarray:
    index = lanes.astype(np.intp)  # cast once, not through a ufunc buffer
    index += _LANE_BASE
    return np.bitwise_xor.reduce(_FLAT_CONTRIB.take(index), axis=-1)


def _contrib(words: np.ndarray) -> np.ndarray:
    """Per-word XOR-fold of byte contributions: low 7 bits hold the parity
    of each Hamming group over the data bits, bit 7 the data parity."""
    lanes = words.view(np.uint8).reshape(-1, 8)
    if len(lanes) <= _CHUNK_WORDS:
        return _fold(lanes)
    return np.concatenate([
        _fold(lanes[start : start + _CHUNK_WORDS])
        for start in range(0, len(lanes), _CHUNK_WORDS)
    ])


def encode_words(words: np.ndarray) -> np.ndarray:
    """Check bytes for an array of 64-bit data words (array ``encode``)."""
    return _PARITY_FLIP[_contrib(np.ascontiguousarray(words, dtype="<u8"))]


def check_words(words: np.ndarray, checks: np.ndarray) -> np.ndarray:
    """Boolean CLEAN mask for an array of (data word, check byte) pairs.

    ``True`` means the word decodes with a zero syndrome and matching
    overall parity — exactly :func:`decode`'s ``CLEAN`` condition, which
    holds exactly when the stored check byte equals the data's own check
    byte.  Words flagged ``False`` need the scalar decoder to classify (and
    possibly correct) them.
    """
    arr = np.ascontiguousarray(words, dtype="<u8")
    chk = np.ascontiguousarray(checks, dtype=np.uint8)
    return _contrib(arr) == _PARITY_FLIP[chk]


def decode_words(
    words: np.ndarray, checks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Array ``decode``: corrected data words plus per-word status codes.

    Clean words (the overwhelmingly common case) are classified entirely
    by the vectorized syndrome check; only words with a nonzero syndrome
    or an overall-parity mismatch fall back to the scalar decoder, which
    also performs the correction.  Status codes index
    ``DecodeStatus`` via ``STATUS_CODES`` (0 = CLEAN, 1 = CORRECTED,
    2 = UNCORRECTABLE).
    """
    arr = np.array(words, dtype="<u8", copy=True).reshape(-1)
    chk = np.ascontiguousarray(checks, dtype=np.uint8).reshape(-1)
    if arr.size != chk.size:
        raise ValueError("words and checks must have equal length")
    statuses = np.zeros(arr.size, dtype=np.uint8)
    clean = check_words(arr, chk)
    for i in np.nonzero(~clean)[0]:
        result = decode(int(arr[i]), int(chk[i]))
        arr[i] = result.data
        statuses[i] = STATUS_CODES[result.status]
    return arr, statuses

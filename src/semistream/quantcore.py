"""Integer-only fixed-point arithmetic for quantized inference.

Everything on the inference path works on integers. Real-valued rescale
factors appear only while deriving parameters ahead of time: a factor
m in (0, 1) is encoded as a 32-bit multiplier plus a right shift, and
applying it to an accumulator is a 64-bit multiply followed by a
rounding shift over whole arrays (apply_rescale, with the per-channel
constants from rescale_constants; requantize_array composes the two).
The module also validates narrow bias storage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RangeError

MULT_BITS = 32
MULT_MIN = 1 << (MULT_BITS - 1)
MULT_MAX = (1 << MULT_BITS) - 1
MAX_SHIFT = 255


class Rounding(Enum):
    """Rounding behaviour of the requantizing right shift.

    NEAREST adds half before shifting, with ties resolved away from
    zero. TRUNCATE is a plain arithmetic shift toward negative
    infinity.
    """

    NEAREST = "nearest"
    TRUNCATE = "truncate"


@dataclass(frozen=True)
class MultShift:
    """Fixed-point encoding of a real scalar m in (0, 1).

    The represented value is mult * 2**-shift. mult is normalized to
    [2**31, 2**32), so shift equals 32 plus the number of doublings
    needed to bring m into [0.5, 1).
    """

    mult: int
    shift: int

    def __post_init__(self):
        if not (MULT_MIN <= self.mult <= MULT_MAX):
            raise DomainError(f"multiplier {self.mult} not normalized to [2^31, 2^32)")
        if not (MULT_BITS <= self.shift <= MAX_SHIFT):
            raise DomainError(f"shift {self.shift} outside [{MULT_BITS}, {MAX_SHIFT}]")

    @property
    def value(self) -> float:
        """The real scalar this pair encodes."""
        return self.mult * 2.0 ** -self.shift


@dataclass(frozen=True)
class AddParams:
    """Parameters of the two-input residual addition.

    Both inputs are re-centered, pre-shifted left by ``pre_shift`` bits
    for headroom and rescaled to a shared intermediate scale; the sum is
    then rescaled to the output quantization. Outputs clamp to [0, 255].
    """

    mult1: MultShift
    mult2: MultShift
    mult3: MultShift
    in1_zero: int
    in2_zero: int
    out_zero: int
    pre_shift: int = 20

    def __post_init__(self):
        for name, z in (("in1", self.in1_zero), ("in2", self.in2_zero), ("out", self.out_zero)):
            if not (0 <= z <= 255):
                raise DomainError(f"{name} zero point {z} outside [0, 255]")
        if self.pre_shift != 20:
            raise DomainError("the addition pre-shift is fixed at 20 bits")


def _round_half_away(x: float) -> int:
    # positive domain only; adding 0.5 is exact for the magnitudes used here
    return math.floor(x + 0.5)


def quantize_multiplier(m: float, rounding: Rounding = Rounding.NEAREST) -> MultShift:
    """Encode a real scalar m in (0, 1) as a MultShift pair.

    m is doubled until it lands in [0.5, 1); the doubled value is scaled
    by 2**32 and rounded to the 32-bit multiplier per ``rounding``. The
    relative encoding error is at most 2**-31. Raises DomainError for
    m <= 0, m >= 1, non-finite m, or when the shift would not fit the
    8-bit encoding.
    """
    if not isinstance(m, (int, float)) or not math.isfinite(m):
        raise DomainError(f"rescale factor {m!r} is not a finite number")
    if m <= 0.0 or m >= 1.0:
        raise DomainError(f"rescale factor {m!r} outside (0, 1)")
    norm, exponent = math.frexp(m)  # exact: m == norm * 2**exponent, norm in [0.5, 1)
    doublings = -exponent
    if MULT_BITS + doublings > MAX_SHIFT:
        raise DomainError(f"rescale factor {m!r} needs a shift beyond {MAX_SHIFT}")
    scaled = norm * float(1 << MULT_BITS)  # still exact
    if rounding is Rounding.TRUNCATE:
        mult = math.floor(scaled)
    else:
        mult = _round_half_away(scaled)
    shift = MULT_BITS + doublings
    if mult == 1 << MULT_BITS:
        # rounding pushed the normalized value up to exactly 1.0
        if doublings > 0:
            mult >>= 1
            shift -= 1
        else:
            mult -= 1
    return MultShift(mult, shift)


class Rescale(NamedTuple):
    """Per-channel rescale constants, built once per layer by rescale_constants.

    mults are the int64 multipliers, shifts are clamped to 63, and half
    is 1 << (shift - 1), the NEAREST rounding offset. half does not
    depend on the rounding mode, so one set serves both.
    """

    mults: np.ndarray | np.int64
    shifts: np.ndarray | np.int64
    half: np.ndarray | np.int64


def rescale_constants(mults: np.ndarray | int, shifts: np.ndarray | int) -> Rescale:
    """The constants apply_rescale needs for these multipliers and shifts.

    Shifts above 63 are applied as 63, which is exact under both
    roundings while |acc * mult| < 2**62: NEAREST gives 0 either way,
    TRUNCATE gives 0 or -1 by sign. Without the clamp 1 << 63 wraps in
    int64 and a shift of 64 or more is undefined.
    """
    shifts = np.minimum(shifts, 63, dtype=np.int64)
    return Rescale(np.asarray(mults, dtype=np.int64), shifts, np.int64(1) << (shifts - 1))


def apply_rescale(
    acc: np.ndarray,
    rescale: Rescale,
    out_zero: np.ndarray | int = 0,
    rounding: Rounding = Rounding.NEAREST,
) -> np.ndarray:
    """Rescale an integer accumulator array and add the output zero point.

    The constants broadcast against acc, which is left untouched: the
    product p = acc * mult is formed in one new int64 buffer and every
    later step runs in place on it. The result is not clamped; the
    engines clamp it to uint8.

    Preconditions: every mult is positive (MultShift keeps it in
    [2**31, 2**32)), so sign(p) == sign(acc); every shift is at least 1;
    and |acc| * mult < 2**62, so the int64 product cannot overflow. A
    per-layer accumulator bound (modelkit.ACC_BOUND) implies the last
    one. It is checked when a layer's parameters are derived and once
    more when the engines first compile the layer; each later engine
    call reuses that verdict.

    NEAREST needs no sign split. With n = 2**s and h = n / 2, rounding
    half away from zero gives (p + h) >> s for p >= 0 and -((-p + h) >> s)
    for p < 0. The latter equals (p + h - 1) >> s, because
    -floor(y / n) == floor((n - 1 - y) / n) and n - h == h. So the array
    path adds h, adds acc >> 63 (-1 for a negative acc, 0 otherwise; an
    arithmetic shift past the width of a signed int32 acc gives the same)
    and shifts once; an exact tie p = (2j + 1) * h is where the -1 matters.
    """
    res = np.multiply(acc, rescale.mults, dtype=np.int64)
    if rounding is Rounding.NEAREST:
        res += rescale.half
        res += acc >> 63
    res >>= rescale.shifts
    if not (isinstance(out_zero, int) and out_zero == 0):  # engines pass 0
        res += out_zero
    return res


def requantize_array(
    acc: np.ndarray,
    mults: np.ndarray | int,
    shifts: np.ndarray | int,
    out_zero: np.ndarray | int = 0,
    rounding: Rounding = Rounding.NEAREST,
) -> np.ndarray:
    """apply_rescale with constants built for this one call.

    mults/shifts/out_zero broadcast against acc. A layer's engine builds
    its constants once, in the layer's record, and calls apply_rescale.
    """
    return apply_rescale(acc, rescale_constants(mults, shifts), out_zero, rounding)


def narrow_bias(bias: int, bits: int) -> int:
    """Validate that a bias fits ``bits`` signed bits; returns it unchanged.

    bits must be 16 or 18. Raises RangeError when the value falls
    outside [-2**(bits-1), 2**(bits-1) - 1].
    """
    if bits not in (16, 18):
        raise DomainError(f"unsupported bias width {bits}, expected 16 or 18")
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    b = int(bias)
    if not (lo <= b <= hi):
        raise RangeError(f"bias {b} does not fit {bits} signed bits [{lo}, {hi}]")
    return b

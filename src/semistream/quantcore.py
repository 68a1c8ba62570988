"""Integer-only fixed-point arithmetic for quantized inference.

Everything on the inference path works on integers. Real-valued rescale
factors appear only while deriving parameters ahead of time: a factor
m in (0, 1) is encoded as a 32-bit multiplier plus a right shift, one
whole array of factors at a time (quantize_multipliers; the scalar
quantize_multiplier wraps it, so the encoding exists once); a layer
keeps its pairs as one read-only record array (pack_multipliers).
Applying one to an accumulator is a 64-bit multiply followed by a
rounding shift over whole arrays, in place on an int64 accumulator the
caller owns (apply_rescale, with the per-channel constants from
rescale_constants; requantize_array composes the two on a copy).
Given a bound on the accumulators, rescale_constants also decides once
whether any product can be a rounding tie, so apply_rescale can skip
the NEAREST tie correction where none can.
The module also validates narrow bias storage (bias_limits, narrow_bias).
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


def quantize_multipliers(
    m: np.ndarray, rounding: Rounding = Rounding.NEAREST
) -> tuple[np.ndarray, np.ndarray]:
    """Encode an array of real scalars in (0, 1) as int64 multiplier and shift arrays.

    Each m is doubled until it lands in [0.5, 1); the doubled value is
    scaled by 2**32 and rounded to the 32-bit multiplier per ``rounding``
    (NEAREST rounds half away from zero). The relative encoding error is
    at most 2**-31. When rounding reaches 2**32 the multiplier is halved
    and the shift drops by one, or, for an m that needed no doubling, the
    multiplier drops by one. Raises DomainError, naming the first
    offending factor, for a factor that is not finite or not in (0, 1),
    or whose shift would not fit the 8-bit encoding.
    """
    m = np.asarray(m, dtype=np.float64)
    bad = ~((m > 0.0) & (m < 1.0))  # nan compares false, so it lands here
    if bad.any():
        first = float(m.flat[bad.argmax()])
        why = "is not a finite number" if not math.isfinite(first) else "outside (0, 1)"
        raise DomainError(f"rescale factor {first!r} {why}")
    norm, exponent = np.frexp(m)  # exact: m == norm * 2**exponent, norm in [0.5, 1)
    shifts = MULT_BITS - exponent.astype(np.int64)
    too_far = shifts > MAX_SHIFT
    if too_far.any():
        first = float(m.flat[too_far.argmax()])
        raise DomainError(f"rescale factor {first!r} needs a shift beyond {MAX_SHIFT}")
    scaled = norm * float(1 << MULT_BITS)  # still exact, and so is adding 0.5 to it
    if rounding is Rounding.NEAREST:
        scaled += 0.5
    mults = np.floor(scaled).astype(np.int64)
    # rounding pushed the normalized value up to exactly 1.0
    top = mults == 1 << MULT_BITS
    if top.any():
        doubled = top & (shifts > MULT_BITS)
        mults[doubled] >>= 1
        shifts[doubled] -= 1
        mults[top & ~doubled] -= 1
    return mults, shifts


def quantize_multiplier(m: float, rounding: Rounding = Rounding.NEAREST) -> MultShift:
    """Encode one real scalar m in (0, 1) as a MultShift pair (quantize_multipliers)."""
    if not isinstance(m, (int, float)):
        raise DomainError(f"rescale factor {m!r} is not a finite number")
    mults, shifts = quantize_multipliers(np.array([m], dtype=np.float64), rounding)
    return MultShift(int(mults[0]), int(shifts[0]))


def pack_multipliers(mults, shifts) -> np.recarray:
    """Per-channel multiplier and shift vectors as one read-only record array.

    packed.mult and packed.shift are its int64 columns, packed[c].mult
    and packed[c].shift one channel's pair. Raises DomainError, naming
    the first bad channel, for a multiplier outside [2**31, 2**32) or a
    shift outside [32, 255], the ranges MultShift keeps.
    """
    mults = np.asarray(mults, dtype=np.int64)
    shifts = np.asarray(shifts, dtype=np.int64)
    for name, v, lo, hi in (("multiplier", mults, MULT_MIN, MULT_MAX),
                            ("shift", shifts, MULT_BITS, MAX_SHIFT)):
        if v.size and (v.min() < lo or v.max() > hi):
            ch = int(((v < lo) | (v > hi)).argmax())
            raise DomainError(f"channel {ch}: {name} {int(v[ch])} outside [{lo}, {hi}]")
    packed = np.empty(mults.shape, [("mult", np.int64), ("shift", np.int64)])
    packed["mult"], packed["shift"] = mults, shifts
    packed.flags.writeable = False
    return packed.view(np.recarray)


class Rescale(NamedTuple):
    """Per-channel rescale constants, built once per layer by rescale_constants.

    mults are the int64 multipliers, shifts are clamped to 63, and half
    is 1 << (shift - 1), the NEAREST rounding offset. half does not
    depend on the rounding mode, so one set serves both. ties is False
    only when an accumulator bound proves that no product acc * mult can
    land exactly halfway between two results, so apply_rescale may skip
    the NEAREST tie correction (see rescale_constants).
    """

    mults: np.ndarray | np.int64
    shifts: np.ndarray | np.int64
    half: np.ndarray | np.int64
    ties: bool = True


def rescale_constants(
    mults: np.ndarray | int, shifts: np.ndarray | int, acc_bound: int | None = None
) -> Rescale:
    """The constants apply_rescale needs for these multipliers and shifts.

    Shifts above 63 are applied as 63, which is exact under both
    roundings while |acc * mult| < 2**62: NEAREST gives 0 either way,
    TRUNCATE gives 0 or -1 by sign. Without the clamp 1 << 63 wraps in
    int64 and a shift of 64 or more is undefined.

    acc_bound, if given, bounds every |acc| the constants will meet and
    decides Rescale.ties. A tie is a product p = acc * mult that is an odd
    multiple of 2**(s - 1) for the applied shift s, that is
    v2(acc) + v2(mult) == s - 1, where v2(x) counts the trailing zero bits
    of x. A nonzero |acc| <= acc_bound has v2(acc) <= floor(log2 acc_bound),
    so no channel can tie when v2(mult) + floor(log2 acc_bound) < s - 1
    for every channel. Without a bound ties stays True.
    """
    shifts = np.minimum(shifts, 63, dtype=np.int64)
    mults = np.asarray(mults, dtype=np.int64)
    ties = True
    if acc_bound is not None:
        v2 = np.bitwise_count((mults & -mults) - 1)  # trailing zeros of mult > 0
        ties = bool(np.any(v2 + (int(acc_bound).bit_length() - 1) >= shifts - 1))
    return Rescale(mults, shifts, np.int64(1) << (shifts - 1), ties)


def apply_rescale(
    acc: np.ndarray,
    rescale: Rescale,
    out_zero: np.ndarray | int = 0,
    rounding: Rounding = Rounding.NEAREST,
) -> np.ndarray:
    """Rescale an integer accumulator array and add the output zero point.

    An int64 acc is rescaled in place and returned: the caller hands
    over an accumulator it owns and no longer needs. Any narrower acc,
    such as the depthwise engine's int32 one, is left untouched and
    widened once into a new int64 array, which is rescaled in place
    instead. The constants and out_zero must broadcast to acc's shape.
    The result is not clamped; the engines clamp it to uint8.

    Preconditions: every mult is positive (pack_multipliers and
    MultShift keep it in [2**31, 2**32)), so sign(p) == sign(acc) for
    the product p = acc * mult; every shift is at least 1; and
    |acc| * mult < 2**62, so the int64 product cannot overflow. A
    per-layer accumulator bound (modelkit.ACC_BOUND) implies the last
    one. It is checked when a layer's parameters are derived and once
    more when the engines first compile the layer; each later engine
    call reuses that verdict.

    NEAREST needs no sign split. With n = 2**s and h = n / 2, rounding
    half away from zero gives (p + h) >> s for p >= 0 and -((-p + h) >> s)
    for p < 0. The latter equals (p + h - 1) >> s, because
    -floor(y / n) == floor((n - 1 - y) / n) and n - h == h. So the array
    path adds p >> 63 (-1 for a negative p, 0 otherwise), then h, and
    shifts once. The -1 matters only at an exact tie p = (2j + 1) * h:
    elsewhere p + h and p + h - 1 have the same floor over n. So when
    rescale.ties is False, which its accumulator bound proves tie-free,
    the correction pass is skipped.
    """
    res = acc if acc.dtype == np.int64 else acc.astype(np.int64)
    res *= rescale.mults
    if rounding is Rounding.NEAREST:
        if rescale.ties:
            res += res >> 63
        res += rescale.half
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
    """apply_rescale with constants built for this one call, on a copy of acc.

    mults/shifts/out_zero must broadcast to acc's shape; acc itself is
    left untouched. A layer's engine builds its constants once, in the
    layer's record, and calls apply_rescale on an accumulator it owns.
    """
    return apply_rescale(np.array(acc, dtype=np.int64), rescale_constants(mults, shifts),
                         out_zero, rounding)


def bias_limits(bits: int) -> tuple[int, int]:
    """The inclusive range [lo, hi] of a ``bits``-wide signed bias lane.

    bits must be 16 or 18.
    """
    if bits not in (16, 18):
        raise DomainError(f"unsupported bias width {bits}, expected 16 or 18")
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def narrow_bias(bias: int, bits: int) -> int:
    """Validate that a bias fits ``bits`` signed bits; returns it unchanged.

    Raises RangeError when the value falls outside bias_limits(bits).
    """
    lo, hi = bias_limits(bits)
    b = int(bias)
    if not (lo <= b <= hi):
        raise RangeError(f"bias {b} does not fit {bits} signed bits [{lo}, {hi}]")
    return b

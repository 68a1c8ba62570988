"""Integer-only fixed-point arithmetic for quantized inference.

Everything on the inference path works on integers. Real-valued rescale
factors appear only while deriving parameters ahead of time: a factor
m in (0, 1) is encoded as a 32-bit multiplier plus a right shift, one
whole array of factors at a time (quantize_multipliers, the one
encoding); a model keeps its pairs as one read-only record array
(pack_multipliers), of which each layer holds a slice, a shortcut
addition its three operand pairs.
Applying one to an accumulator is a 64-bit multiply, one offset add
and a rounding shift over whole arrays, in place on an int64
accumulator the caller owns (apply_rescale, with the per-channel
constants from rescale_constants; requantize_array composes the two on
a copy). The offset carries a layer's bias, times the multiplier, so
the engines hand over raw sums, and under NEAREST also the rounding
half. Given a bound on the accumulators, rescale_constants decides for
each layer whether any product can be a rounding tie, so apply_rescale
can skip the NEAREST tie correction where none can, and whether the
layer's shifts can be aligned to its largest one, so the shift is one
scalar instead of a per-channel vector; given segment starts, it decides
both for every layer of a model in one pass over their concatenated
channels.
The module also validates narrow bias storage (bias_limits, narrow_bias).
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RangeError

MULT_BITS = 32
MULT_MIN = 1 << (MULT_BITS - 1)
MULT_MAX = (1 << MULT_BITS) - 1
MAX_SHIFT = 255
#: The smallest rescale factor whose shift fits MAX_SHIFT: np.frexp puts
#: 2**-224 at exponent -223, which needs a shift of MULT_BITS + 223.
MIN_FACTOR = 2.0 ** (MULT_BITS - 1 - MAX_SHIFT)
#: Bits a shortcut addition shifts each re-centred operand left by, for
#: headroom, before rescaling it onto the shared intermediate scale.
ADD_PRE_SHIFT = 20


class Rounding(Enum):
    """Rounding behaviour of the requantizing right shift.

    NEAREST adds half before shifting, with ties resolved away from
    zero. TRUNCATE is a plain arithmetic shift toward negative
    infinity.
    """

    NEAREST = "nearest"
    TRUNCATE = "truncate"


def first_bad_factor(m: np.ndarray) -> tuple[int, str] | None:
    """The flat index of the first factor quantize_multipliers rejects, and why.

    A factor must be finite, in (0, 1) and at least MIN_FACTOR, so that
    its shift fits the 8-bit encoding. Returns None when every factor of
    the float64 array m qualifies.
    """
    bad = ~((m >= MIN_FACTOR) & (m < 1.0))  # nan compares false, so it lands here
    if not bad.any():
        return None
    i = int(bad.argmax())
    first = float(m.flat[i])
    if not math.isfinite(first):
        why = "is not a finite number"
    elif 0.0 < first < 1.0:
        why = f"needs a shift beyond {MAX_SHIFT}"
    else:
        why = "outside (0, 1)"
    return i, f"rescale factor {first!r} {why}"


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
    offending factor (first_bad_factor), for a factor that is not finite
    or not in (0, 1), or whose shift would not fit the 8-bit encoding.
    """
    m = np.asarray(m, dtype=np.float64)
    fault = first_bad_factor(m)
    if fault is not None:
        raise DomainError(fault[1])
    norm, exponent = np.frexp(m)  # exact: m == norm * 2**exponent, norm in [0.5, 1)
    shifts = MULT_BITS - exponent.astype(np.int64)
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


def pack_multipliers(mults, shifts) -> np.recarray:
    """Per-channel multiplier and shift vectors as one read-only record array.

    packed.mult and packed.shift are its int64 columns, packed[c].mult
    and packed[c].shift one channel's pair. Raises DomainError, naming
    the first bad channel, for a multiplier outside [2**31, 2**32) or a
    shift outside [32, 255], the ranges quantize_multipliers yields. The
    derivation packs a whole model's pairs in one call, so a layer's
    mults, or a shortcut's three pairs, may be a read-only slice of the
    model's array rather than an array of its own.
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
    """Per-channel rescale constants of one layer, built by rescale_constants.

    mults are the int64 multipliers and shifts their shifts, clamped to
    63; when the layer's bound allows, the mults are aligned to the
    largest shift and shifts is that one 0-d value. half is
    1 << (shift - 1), the NEAREST rounding offset. offset is bias * mult
    for a layer whose engine hands over raw sums, or None without a
    bias; offset_half is offset + half, the one offset a tie-free
    NEAREST rescale adds. None of them depends on the rounding mode, so
    one set serves both. ties is False only when an accumulator bound
    proves that no product acc * mult can land exactly halfway between
    two results, so apply_rescale may skip the NEAREST tie correction
    (see rescale_constants).
    """

    mults: np.ndarray | np.int64
    shifts: np.ndarray | np.int64
    half: np.ndarray | np.int64
    offset: np.ndarray | None
    offset_half: np.ndarray | np.int64
    ties: bool = True


def rescale_constants(
    mults: np.ndarray | int, shifts: np.ndarray | int, acc_bound: int | None = None,
    bias: np.ndarray | int | None = None, starts: np.ndarray | None = None,
) -> Rescale | list[Rescale]:
    """The constants apply_rescale needs for these multipliers and shifts.

    Shifts above 63 are applied as 63, which is exact under both
    roundings while |acc * mult| < 2**62: NEAREST gives 0 either way,
    TRUNCATE gives 0 or -1 by sign. Without the clamp 1 << 63 wraps in
    int64 and a shift of 64 or more is undefined.

    bias, if given, is what the caller's raw sums lack: apply_rescale
    rescales acc + bias, through the offsets bias * mult.

    acc_bound, if given, bounds every |acc|, every |bias| and every
    |acc + bias| the constants will meet, and decides two things.

    Rescale.ties. A tie is a product p = x * mult, x = acc + bias, that
    is an odd multiple of 2**(s - 1) for the applied shift s, that is
    v2(x) + v2(mult) == s - 1, where v2(y) counts the trailing zero bits
    of y. A nonzero |x| <= acc_bound has v2(x) <= floor(log2 acc_bound),
    so no channel can tie when v2(mult) + floor(log2 acc_bound) < s - 1
    for every channel. Without a bound ties stays True.

    Alignment. With S the largest shift and mult'_c = mult_c << (S - s_c),
    (a * mult_c) >> s_c == (a * mult'_c) >> S for every a, under both
    roundings: the shift scales numerator and denominator by
    2**(S - s_c), and the NEAREST half scales the same way. So when
    acc_bound * max(mult') < 2**62, the products stay in int64 and the
    constants hold mult' and the one shift S (0-d). Otherwise, or
    without a bound, the per-channel shifts stay. The tie verdict is the
    same either way, since v2(mult') - (S - s) == v2(mult).

    starts, if given, cuts the 1-D channel arrays mults, shifts and bias
    into non-empty segments, one per layer, at these ascending offsets
    (the first is 0), and acc_bound holds one bound per segment. Each
    segment gets its own tie verdict and alignment, all in one pass
    (reduceat), and the result is one Rescale per segment: read-only,
    C-contiguous slices of one array per field, with a 0-d shift and
    half where the segment aligns.
    """
    shifts = np.minimum(shifts, 63, dtype=np.int64)
    mults = np.asarray(mults, dtype=np.int64)
    if starts is not None:
        return _segment_rescales(mults, shifts, acc_bound, bias, np.asarray(starts))
    ties = True
    if acc_bound is not None:
        m, s = np.broadcast_arrays(mults, shifts)
        verdicts, tops, fits, aligned = _verdicts(m.ravel(), s.ravel(), np.zeros(1, int),
                                                  [acc_bound])
        ties = bool(verdicts[0])
        if fits[0]:
            mults, shifts = aligned.reshape(m.shape), np.array(tops[0])
    half = np.asarray(np.int64(1) << (shifts - 1))  # aligned: 0-d, so a record can freeze it
    offset = None if bias is None else np.asarray(bias, dtype=np.int64) * mults
    return Rescale(mults, shifts, half, offset, half if offset is None else offset + half, ties)


def _verdicts(mults: np.ndarray, shifts: np.ndarray, starts: np.ndarray,
              bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each segment's tie verdict, largest shift and whether its aligned
    multipliers fit its bound, with every channel's aligned multiplier
    (rescale_constants): 1-D int64 mults and clamped shifts, cut at starts."""
    sizes = np.diff(starts, append=mults.size)
    log_bound = np.repeat([int(b).bit_length() - 1 for b in bounds], sizes)
    v2 = np.bitwise_count((mults & -mults) - 1)  # trailing zeros of mult > 0
    ties = np.logical_or.reduceat(v2 + log_bound >= shifts - 1, starts)
    tops = np.maximum.reduceat(shifts, starts)
    aligned = mults << (np.repeat(tops, sizes) - shifts)
    # bound * max(mult') < 2**62, without the int64 product
    limits = [((1 << 62) - 1) // int(b) if b else (1 << 63) - 1 for b in bounds]
    return ties, tops, np.maximum.reduceat(aligned, starts) <= limits, aligned


def _segment_rescales(mults: np.ndarray, shifts: np.ndarray, bounds, bias,
                      starts: np.ndarray) -> list[Rescale]:
    """rescale_constants over segments: one Rescale per segment, slicing
    whole arrays built in one pass. An aligned segment's one shift and
    half are one entry each of the shift and half arrays, so these hold
    only what the segments' Rescales read."""
    ties, tops, fits, aligned = _verdicts(mults, shifts, starts, bounds)
    sizes = np.diff(starts, append=mults.size)
    fit = np.repeat(fits, sizes)
    mults = np.where(fit, aligned, mults)
    shifts = np.where(fit, np.repeat(tops, sizes), shifts)
    half = np.int64(1) << (shifts - 1)
    offset = np.asarray(bias, dtype=np.int64) * mults
    offset_half = offset + half
    keep = ~fit
    keep[starts[fits]] = True
    at = (np.cumsum(keep) - 1)[starts].tolist()  # each segment's first entry in shifts, half
    shifts, half = shifts[keep], half[keep]
    for a in (mults, shifts, half, offset, offset_half):
        a.flags.writeable = False
    out = []
    for k, (lo, hi, j) in enumerate(zip(starts.tolist(), (starts + sizes).tolist(), at)):
        s, h = ((shifts[j : j + 1].reshape(()), half[j : j + 1].reshape(())) if fits[k]
                else (shifts[j : j + hi - lo], half[j : j + hi - lo]))
        out.append(Rescale(mults[lo:hi], s, h, offset[lo:hi], offset_half[lo:hi], bool(ties[k])))
    return out


def apply_rescale(
    acc: np.ndarray,
    rescale: Rescale,
    rounding: Rounding = Rounding.NEAREST,
) -> np.ndarray:
    """Rescale an integer accumulator array, plus its bias, onto a zero-centred grid.

    An int64 acc is rescaled in place and returned: the caller hands
    over an accumulator it owns and no longer needs. Any other acc,
    such as the depthwise engine's float32 one of exact integers, is
    left untouched and widened once into a new int64 array, which is
    rescaled in place instead. The constants must broadcast to acc's shape.
    The result is not clamped; the engines add the output zero point as
    they clamp it to uint8.

    Preconditions: every mult is positive (pack_multipliers keeps it in
    [2**31, 2**32)), so sign(p) == sign(acc + bias) for the product
    p = (acc + bias) * mult; every shift is at least 1;
    and |acc|, |bias| and |acc + bias| are each at most a bound B with
    B * mult < 2**62, so no int64 product can overflow. A per-layer
    accumulator bound (modelkit.ACC_BOUND) gives B; rescale_constants
    aligns a layer's multipliers only where B * mult' < 2**62 still
    holds. Then acc * mult and the offset bias * mult are each below
    2**62 in magnitude, and half is at most 2**62, so adding
    bias * mult + half in one pass gives p + half < 2**63: every
    intermediate is exact. The bound is checked when a layer's
    parameters are derived and once more when the engines compile the
    model's records; each later engine call reuses that verdict.

    NEAREST needs no sign split. With n = 2**s and h = n / 2, rounding
    half away from zero gives (p + h) >> s for p >= 0 and -((-p + h) >> s)
    for p < 0. The latter equals (p + h - 1) >> s, because
    -floor(y / n) == floor((n - 1 - y) / n) and n - h == h. So the array
    path adds the offset, then p >> 63 (-1 for a negative p, 0
    otherwise), then h, and shifts once. The -1 matters only at an exact
    tie p = (2j + 1) * h: elsewhere p + h and p + h - 1 have the same
    floor over n. So when rescale.ties is False, which its accumulator
    bound proves tie-free, the correction is skipped and offset and h go
    in as one offset_half: one multiply, one offset and one shift.
    """
    res = acc if acc.dtype == np.int64 else acc.astype(np.int64)
    res *= rescale.mults
    if rounding is Rounding.NEAREST and not rescale.ties:
        res += rescale.offset_half
    else:
        if rescale.offset is not None:
            res += rescale.offset
        if rounding is Rounding.NEAREST:
            res += res >> 63
            res += rescale.half
    res >>= rescale.shifts
    return res


def requantize_array(
    acc: np.ndarray,
    mults: np.ndarray | int,
    shifts: np.ndarray | int,
    out_zero: np.ndarray | int = 0,
    rounding: Rounding = Rounding.NEAREST,
) -> np.ndarray:
    """apply_rescale with constants built for this one call, on a copy of
    acc, plus the output zero point.

    mults/shifts/out_zero must broadcast to acc's shape; acc itself is
    left untouched. A layer's engine builds its constants once, in the
    layer's record, and calls apply_rescale on an accumulator it owns.
    """
    res = apply_rescale(np.array(acc, dtype=np.int64), rescale_constants(mults, shifts),
                        rounding)
    res += out_zero
    return res


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

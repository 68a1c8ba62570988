"""Fixed-point multiplier encoding and the requantizing shift."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semistream.errors import DomainError, RangeError
from semistream.modelkit import ACC_BOUND, AddParams, ModelGraph, prepare
from semistream.quantcore import (
    ADD_PRE_SHIFT,
    MAX_SHIFT,
    MULT_BITS,
    MULT_MAX,
    MULT_MIN,
    Rounding,
    apply_rescale,
    narrow_bias,
    pack_multipliers,
    quantize_multipliers,
    requantize_array,
    rescale_constants,
)

from conftest import c2d_layer, encode, rational_requant


# ---------------------------------------------------------------------------
# multiplier encoding
# ---------------------------------------------------------------------------

def test_quantize_multiplier_frozen_values():
    mults, shifts = quantize_multipliers(np.array([0.5, 2.0 ** -8, 0.375, 1.0 / 49.0]))
    assert mults.tolist() == [2147483648, 2147483648, 3221225472, 2804876601]
    assert shifts.tolist() == [32, 39, 33, 37]


def test_quantize_multiplier_rejects_out_of_domain():
    for bad in (0.0, 1.0, 2.0, -0.25, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            quantize_multipliers(np.array([bad]))
    # doubling count would push the shift beyond its 8-bit encoding
    with pytest.raises(DomainError):
        quantize_multipliers(np.array([2.0 ** -230]))


def test_quantize_multiplier_truncate_mode():
    # 1/3 doubled once = 2/3; 2/3 * 2^32 = 2863311530.666..
    third = np.array([1.0 / 3.0])
    assert quantize_multipliers(third, Rounding.TRUNCATE)[0].tolist() == [2863311530]
    assert quantize_multipliers(third, Rounding.NEAREST)[0].tolist() == [2863311531]


def _exact_encoding(m: float, rounding: Rounding) -> tuple[int, int]:
    """(mult, shift) of m in exact rational arithmetic, without frexp."""
    p, q = m.as_integer_ratio()
    shift = MULT_BITS
    while 2 * p < q:  # double m until it reaches [1/2, 1)
        p, shift = 2 * p, shift + 1
    scaled = Fraction(p, q) * 2**MULT_BITS
    mult = math.floor(scaled + Fraction(1, 2) if rounding is Rounding.NEAREST else scaled)
    if mult == 2**MULT_BITS:
        mult, shift = (mult // 2, shift - 1) if shift > MULT_BITS else (mult - 1, shift)
    return mult, shift


@pytest.mark.parametrize("rounding", list(Rounding))
def test_quantize_multipliers_match_exact_rationals(rounding):
    rng = np.random.default_rng(1712)
    factors = np.concatenate([
        2.0 ** rng.uniform(-40.0, 0.0, 8000),
        # random 53-bit mantissas down to the smallest encodable exponent
        np.ldexp(rng.uniform(0.5, 1.0, 2000), -rng.integers(0, 224, 2000)),
        # mantissas whose rounding lands on 2**32
        np.ldexp(1.0 - rng.integers(1, 2**8, 200) * 2.0**-48, -rng.integers(0, 60, 200)),
    ])
    mults, shifts = quantize_multipliers(factors, rounding)
    assert mults.dtype == shifts.dtype == np.int64
    got = list(zip(mults.tolist(), shifts.tolist()))
    assert got == [_exact_encoding(m, rounding) for m in factors.tolist()]


def test_quantize_multipliers_edge_cases():
    near, trunc = Rounding.NEAREST, Rounding.TRUNCATE

    def enc(m, rounding=near):
        mults, shifts = quantize_multipliers(np.array([m]), rounding)
        return int(mults[0]), int(shifts[0])

    # rounding reaches 2**32: halved with a doubling, decremented without one
    assert enc(0.5 - 2.0**-41) == (2**31, 32)
    assert enc(0.5 - 2.0**-41, trunc) == (2**32 - 1, 33)
    assert enc(1.0 - 2.0**-40) == (2**32 - 1, 32)
    assert enc(1.0 - 2.0**-40, trunc) == (2**32 - 1, 32)
    # the largest shift fits, one more doubling does not
    assert enc(2.0**-224) == (2**31, MAX_SHIFT)
    with pytest.raises(DomainError, match="shift beyond 255"):
        enc(2.0**-225)
    # exact half ties of norm * 2**32 round away from zero under NEAREST
    for doublings in (0, 7):
        tie = (2**32 + 1) / 2.0**(33 + doublings)  # norm * 2**32 == 2**31 + 0.5
        assert enc(tie) == (2**31 + 1, 32 + doublings)
        assert enc(tie, trunc) == (2**31, 32 + doublings)
    tie = (2**33 - 1) / 2.0**34  # norm * 2**32 == 2**32 - 0.5, then 2**32 halves
    assert enc(tie) == (2**31, 32)
    assert enc(tie, trunc) == (2**32 - 1, 33)
    # one bad factor rejects the array, and the first one is named
    with pytest.raises(DomainError, match=r"rescale factor 1\.5 outside \(0, 1\)"):
        quantize_multipliers(np.array([0.25, 1.5, -1.0]))
    with pytest.raises(DomainError, match="nan is not a finite number"):
        quantize_multipliers(np.array([0.25, np.nan]))


@pytest.mark.parametrize("bad", [0.0, -0.25, float("nan"), float("inf"), 1e-300])
def test_derivation_names_the_layer_and_channel_of_a_bad_scale(bad):
    layer = c2d_layer(np.random.default_rng(4))
    layer.filters.scales[5] = bad
    layer.filters.scales[9] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(DomainError, match="layer 0 channel 5: rescale factor"):
            prepare(ModelGraph([layer], resolution=224))


def test_pack_multipliers_names_the_first_bad_channel():
    """The packer keeps the ranges quantize_multipliers yields, at every
    position, and the smallest pair it keeps, (2**31, 32), is 0.5."""
    assert pack_multipliers([MULT_MIN], [MULT_BITS])[0].tolist() == (MULT_MIN, 32)
    assert MULT_MIN * 2.0 ** -MULT_BITS == 0.5
    for column, bad in (("mult", MULT_MIN - 1), ("mult", MULT_MAX + 1),
                        ("shift", MULT_BITS - 1), ("shift", MAX_SHIFT + 1)):
        for at in range(7):
            cols = {"mult": np.full(7, MULT_MIN), "shift": np.full(7, MULT_BITS)}
            cols[column][at:] = bad
            with pytest.raises(DomainError, match=f"channel {at}: "):
                pack_multipliers(cols["mult"], cols["shift"])


def test_pack_multipliers_is_a_read_only_record_array():
    mults, shifts = quantize_multipliers(np.array([0.5, 0.375, 2.0**-40]))
    packed = pack_multipliers(mults, shifts)
    assert packed.dtype.names == ("mult", "shift")
    assert packed.mult.dtype == packed.shift.dtype == np.int64
    np.testing.assert_array_equal(packed.mult, mults)
    np.testing.assert_array_equal(packed.shift, shifts)
    assert (packed[1].mult, packed[1].shift) == (3221225472, 33)
    assert [m.shift for m in packed] == shifts.tolist()
    assert not packed.flags.writeable and not packed.mult.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        packed.shift[0] = 40
    mults[0] = 0  # the packed array is a copy, not a view of its inputs
    assert packed.mult[0] == 2**31


@given(st.floats(min_value=2.0 ** -24, max_value=1.0, exclude_max=True))
@settings(max_examples=300)
def test_quantize_multiplier_encoding_error(m):
    mult, shift = encode([m])[0]
    # rounding the normalized mantissa costs at most half a ULP of the
    # 32-bit multiplier; the corner just below 1.0 clamps and may cost
    # a full ULP
    assert abs(m - mult * 2.0 ** -shift) <= 2.0 ** -shift * 1.0000001


@given(st.floats(min_value=1e-7, max_value=0.9999999))
@settings(max_examples=300)
def test_quantize_multiplier_normalization(m):
    (mult,), (shift,) = quantize_multipliers(np.array([m]))
    assert MULT_MIN <= mult <= MULT_MAX
    assert 32 <= shift <= MAX_SHIFT


# ---------------------------------------------------------------------------
# requantization
# ---------------------------------------------------------------------------

def _requant(accs, ms, rounding=Rounding.NEAREST, out_zero=0, dtype=np.int64):
    """requantize_array over a list of accumulators, as Python ints."""
    mult, shift = ms
    return requantize_array(np.array(accs, dtype=dtype), mult, shift, out_zero,
                            rounding).tolist()


def test_shift_round_frozen_cases():
    # a multiplier of 1 leaves the bare rounding shift
    five = np.array([5, -5])
    assert requantize_array(five, 1, 1, 0, Rounding.NEAREST).tolist() == [3, -3]  # ties away
    assert requantize_array(five, 1, 1, 0, Rounding.TRUNCATE).tolist() == [2, -3]  # arithmetic


def test_requantize_frozen_cases():
    ms = encode([0.375])[0]
    assert _requant([255], ms, Rounding.TRUNCATE) == [95]
    assert _requant([255], ms, Rounding.NEAREST) == [96]
    assert _requant([100], (1 << 31, 32)) == [50]
    assert _requant([0], encode([0.9])[0], out_zero=7) == [7]
    # negative accumulators keep ties away from zero
    assert _requant([-3], encode([0.5])[0]) == [-2]


def test_requantize_result_is_unclamped():
    assert _requant([100], encode([0.9])[0], out_zero=250) == [340]


@given(st.integers(min_value=-(2 ** 20), max_value=2 ** 20),
       st.floats(min_value=2.0 ** -20, max_value=1.0 - 2.0 ** -20),
       st.sampled_from([Rounding.NEAREST, Rounding.TRUNCATE]))
@settings(max_examples=400)
def test_requantize_matches_rational_reference(x, m, rounding):
    ms = encode([m], rounding)[0]
    assert _requant([x], ms, rounding) == [rational_requant(x, ms, 0, rounding)]


@given(st.floats(min_value=2.0 ** -16, max_value=1.0 - 2.0 ** -16))
@settings(max_examples=200)
def test_requantize_monotone_in_accumulator(m):
    ms = encode([m])[0]
    for rounding in Rounding:
        outs = _requant([-4096, -100, -3, -1, 0, 1, 2, 77, 5000, 1 << 19], ms, rounding)
        assert outs == sorted(outs)


def test_requantize_array_matches_scalar():
    """Per-channel vectors against the exact scalar rational reference."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 64))
        acc = rng.integers(-(2 ** 24), 2 ** 24, size=n)
        ms = encode(2.0 ** rng.uniform(-10, -0.01, n))
        zp = int(rng.integers(0, 256))
        for rounding in (Rounding.NEAREST, Rounding.TRUNCATE):
            got = requantize_array(acc, ms.mult, ms.shift, zp, rounding)
            want = [rational_requant(int(a), m, zp, rounding) for a, m in zip(acc, ms)]
            assert got.tolist() == want


def test_requantize_array_ties_round_away_from_zero():
    """acc * mult an exact odd multiple of 2**(shift - 1), both signs.

    mult = m0 * 2**t with m0 odd, acc = k * 2**(shift - 1 - t) with k odd.
    """
    negative_ties = {np.int32: 0, np.int64: 0}
    for m0, t in ((1, 31), (3, 30), (5, 29), (40961, 16)):
        for shift in (32, 33, 40, 61):
            ms = (m0 << t, shift)
            accs = [s * k << (shift - 1 - t) for k in (1, 3, 5, 255) for s in (1, -1)]
            accs = [a for a in accs if abs(a) * ms[0] < 2 ** 62]
            for dtype in negative_ties:
                info = np.iinfo(dtype)
                fit = [a for a in accs if info.min <= a <= info.max]
                want = [rational_requant(a, ms) for a in fit]
                assert _requant(fit, ms, dtype=dtype) == want, (ms, dtype)
                negative_ties[dtype] += sum(a < 0 for a in fit)
    assert min(negative_ties.values()) >= 10


def test_requantize_array_large_shifts():
    """Shifts from 32 to MAX_SHIFT are exact under both roundings, for
    int32 and int64 accumulators, exact ties of both signs included."""
    for shift in range(32, MAX_SHIFT + 1):
        # MULT_MIN * (2k + 1) * 2**(shift - 32) is an exact tie at this shift
        ties = [s * k << (shift - 32) for k in (1, 3, 255) for s in (1, -1)]
        for mult in (MULT_MIN, 3 << 30, MULT_MAX):
            ms = (mult, shift)
            accs = [2 ** 29, -(2 ** 29), 5, -5, 1, -1, 0]
            accs += [a for a in ties if abs(a) * mult < 2 ** 62]
            for dtype in (np.int32, np.int64):
                info = np.iinfo(dtype)
                fit = [a for a in accs if info.min <= a <= info.max]
                for rounding in Rounding:
                    want = [rational_requant(a, ms, 0, rounding) for a in fit]
                    assert _requant(fit, ms, rounding, dtype=dtype) == want, (
                        shift, mult, dtype, rounding)


def test_apply_rescale_works_in_place_on_int64_only():
    """An int64 accumulator is rescaled in place and returned itself; an
    int32 one is widened into a new array and left as it was;
    requantize_array rescales a copy and leaves its input alone."""
    ms = [(MULT_MIN, 33), (MULT_MAX, 40)]
    r = rescale_constants(*np.array(ms).T)
    original = np.array([[1000, -1000], [-7, 123457], [-3, 5]], dtype=np.int64)
    want = [[rational_requant(int(a), m) for a, m in zip(row, ms)] for row in original]
    acc = original.copy()
    assert requantize_array(acc, r.mults, r.shifts).tolist() == want
    np.testing.assert_array_equal(acc, original)
    narrow = original.astype(np.int32)
    got = apply_rescale(narrow, r)
    assert got.dtype == np.int64 and not np.shares_memory(got, narrow)
    assert got.tolist() == want
    np.testing.assert_array_equal(narrow, original)
    assert apply_rescale(acc, r) is acc
    assert acc.tolist() == want


def test_tie_verdict_keeps_the_correction_where_a_tie_can_happen():
    """mult = 2**31, shift = 33: acc = -2 gives p = -2**32, exactly -0.5.
    A bound of 2 admits that accumulator, so the verdict keeps the
    correction and NEAREST rounds away from zero to -1. apply_rescale
    works in place, so each call gets its own accumulator."""
    r = rescale_constants(np.array([MULT_MIN]), np.array([33]), acc_bound=2)
    assert r.ties
    want = rational_requant(-2, (MULT_MIN, 33))
    assert apply_rescale(np.array([-2]), r).tolist() == [want] == [-1]
    skipped = apply_rescale(np.array([-2]), r._replace(ties=False))
    assert skipped.tolist() == [0]  # what the skip would give
    # |acc| <= 1 gives p = +-2**31, a quarter: no tie is possible
    assert not rescale_constants(np.array([MULT_MIN]), np.array([33]), acc_bound=1).ties
    assert rescale_constants(np.array([MULT_MIN]), np.array([33])).ties  # no bound, no verdict


@st.composite
def _channel(draw):
    """A normalized (mult, shift) with t trailing zero bits in mult."""
    t = draw(st.integers(0, MULT_BITS - 1))
    odd = draw(st.integers(1 << (MULT_BITS - 1 - t), (1 << (MULT_BITS - t)) - 1)) | 1
    shift = draw(st.one_of(st.integers(MULT_BITS, 64), st.integers(MULT_BITS, MAX_SHIFT)))
    return odd << t, shift


@given(st.lists(_channel(), min_size=1, max_size=4),
       st.one_of(st.integers(1, ACC_BOUND - 1), st.integers(0, 29).map(lambda e: 1 << e)),
       st.integers(0, 2**32))
@settings(max_examples=400)
def test_tie_verdict_is_exact(channels, bound, seed):
    """Where the verdict says tie-free, skipping the correction changes no
    result on accumulators spread over +-bound, the extremes and the
    multiples of high powers of two (the likeliest ties) included. Where
    it keeps the correction, some |acc| <= bound ties on that channel."""
    mults, shifts = (np.array(v, dtype=np.int64) for v in zip(*channels))
    r = rescale_constants(mults, shifts, bound)
    per_channel = [rescale_constants(m, s, bound).ties for m, s in channels]
    assert r.ties == any(per_channel)
    top = 1 << (bound.bit_length() - 1)
    accs = [bound, bound - 1, top, top >> 1, 3 * (top >> 1), 1, 0]
    accs += np.random.default_rng(seed).integers(-bound, bound, 64, endpoint=True).tolist()
    accs = np.array([a for a in accs if a <= bound] + [-a for a in accs if a <= bound])
    acc = np.repeat(accs[:, None], len(channels), axis=1)
    if not r.ties:  # apply_rescale works in place: each call gets its own copy
        np.testing.assert_array_equal(apply_rescale(acc.copy(), r),
                                      apply_rescale(acc.copy(), r._replace(ties=True)))
    for (m, s), ties in zip(channels, per_channel):
        if ties:  # acc = -2**(s - 1 - v2(m)) makes p an odd multiple of 2**(s - 1)
            v2 = (m & -m).bit_length() - 1
            tie = np.array([-(1 << (min(s, 63) - 1 - v2))])
            assert abs(int(tie[0])) <= bound
            one = rescale_constants(m, s, bound)
            assert (apply_rescale(tie.copy(), one)
                    != apply_rescale(tie.copy(), one._replace(ties=False)))


@st.composite
def _layer_rescale(draw):
    """Normalized per-channel (mults, shifts) of one layer, shifts spread
    by up to 31 bits, some mults with trailing zero bits (tie verdicts);
    a bound B, drawn freely or one step either side of the alignment
    edge B * max(mult') < 2**62; and biases with |b| <= B."""
    n = draw(st.integers(1, 6))
    base = draw(st.integers(MULT_BITS, 66))
    spread = draw(st.integers(0, 31))
    mults, shifts = [], []
    for _ in range(n):
        t = draw(st.sampled_from([0, 0, 1, 9, MULT_BITS - 1]))
        odd = draw(st.integers(1 << (MULT_BITS - 1 - t), (1 << (MULT_BITS - t)) - 1)) | 1
        mults.append(odd << t)
        shifts.append(base + draw(st.integers(0, spread)))
    applied = [min(s, 63) for s in shifts]
    top = max(m << (max(applied) - s) for m, s in zip(mults, applied))
    edge = ((1 << 62) - 1) // top  # the largest B that aligns
    bound = draw(st.one_of(st.integers(1, ACC_BOUND - 1),
                           st.integers(0, 29).map(lambda e: 1 << e),
                           st.sampled_from([edge, edge + 1]).filter(lambda b: b >= 1)))
    assume(bound * max(mults) < 1 << 62)  # what apply_rescale needs without alignment
    bias = [draw(st.integers(-bound, bound)) for _ in range(n)]
    return mults, shifts, bound, bias


@given(_layer_rescale(), st.integers(0, 2**32))
@settings(max_examples=400)
def test_aligned_rescale_with_offset_is_exact(layer, seed):
    """apply_rescale(acc, rescale_constants(m, s, B, bias)) is the exact
    rescale of acc + bias per channel, under both roundings, for every
    |acc| <= B - max|bias| (the extremes and the likeliest ties
    included); the constants hold one 0-d shift exactly when
    B * max(mult << (S - s)) < 2**62, S the largest applied shift."""
    mults, shifts, bound, bias = layer
    r = rescale_constants(np.array(mults), np.array(shifts), bound, np.array(bias))
    applied = [min(s, 63) for s in shifts]
    top = max(m << (max(applied) - s) for m, s in zip(mults, applied))
    assert (np.ndim(r.shifts) == 0) == (bound * top < 1 << 62)
    assert r.ties == rescale_constants(np.array(mults), np.array(shifts), bound).ties
    lim = bound - max(map(abs, bias))
    accs = [lim, lim - 1, (1 << lim.bit_length()) >> 1, 1, 0]
    accs += np.random.default_rng(seed).integers(-lim, lim, 32, endpoint=True).tolist()
    accs = [a for a in accs if 0 <= a <= lim]
    rows = [[a] * len(mults) for a in accs + [-a for a in accs]]
    for m, s, b in zip(mults, applied, bias):  # acc + b = +-2**(s - 1 - v2(m)) ties
        v2 = (m & -m).bit_length() - 1
        rows += [[sign * (1 << (s - 1 - v2)) - b] * len(mults) for sign in (1, -1)
                 if abs(sign * (1 << (s - 1 - v2)) - b) <= lim]
    acc = np.array(rows, dtype=np.int64)
    for rounding in Rounding:
        want = [[rational_requant(int(a) + b, (m, s), 0, rounding)
                 for a, m, s, b in zip(row, mults, shifts, bias)] for row in acc]
        assert apply_rescale(acc.copy(), r, rounding).tolist() == want, rounding


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def test_add_params_pre_shift_is_pinned():
    """The headroom shift is one constant, 20 bits; AddParams holds three
    packed pairs, a residual zero point in [0, 255] and a finite positive
    residual scale."""
    assert ADD_PRE_SHIFT == 20
    pairs = encode([0.5, 0.5, 2.0 ** -19])
    AddParams(pairs, 0, 0.01)
    AddParams(pairs, 255, 0.01)
    with pytest.raises(DomainError, match="three rescale pairs"):
        AddParams(pairs[:2], 0, 0.01)
    for bad in (-1, 256):
        with pytest.raises(DomainError, match="residual zero point"):
            AddParams(pairs, bad, 0.01)
    for bad in (0.0, -0.01, float("inf"), float("nan")):
        with pytest.raises(DomainError, match="residual scale"):
            AddParams(pairs, 0, bad)


# ---------------------------------------------------------------------------
# narrow bias storage
# ---------------------------------------------------------------------------

def test_narrow_bias_bounds():
    assert narrow_bias(32767, 16) == 32767
    assert narrow_bias(-32768, 16) == -32768
    with pytest.raises(RangeError):
        narrow_bias(32768, 16)
    assert narrow_bias(131071, 18) == 131071
    assert narrow_bias(-131072, 18) == -131072
    with pytest.raises(RangeError):
        narrow_bias(131072, 18)
    with pytest.raises(DomainError):
        narrow_bias(0, 17)


@given(st.integers(min_value=-32768, max_value=32767))
def test_narrow_bias_roundtrip_is_identity(b):
    assert narrow_bias(b, 16) == b
    assert narrow_bias(b, 18) == b

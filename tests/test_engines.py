"""Engine-level tests: hand-derived cases, oracle equivalence, record memory."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistream.engines import (
    ACC_BOUND,
    K_CHUNK,
    ExpStreamKernel,
    add_elements,
    check_acc_bound,
    fold_gemm,
    layer_record,
    run_layer,
)
from semistream.errors import DomainError, SequencingError, ShapeError
from semistream.modelkit import (
    LANES,
    Kind,
    LayerDesc,
    QFilterSet,
    QTensor,
    build_mobilenet_v2,
    image_to_qtensor,
    load_package,
    pad_channels,
    prepare,
    save_package,
)
from semistream.dataflow import run_inference
from semistream.perfmodel import ADD_OPS_PER_CYCLE, EngineStats
from semistream.oracle import naive_quant_layer, run_model_naive
from semistream.quantcore import (
    MULT_MAX,
    MULT_MIN,
    Rounding,
    pack_multipliers,
    quantize_multipliers,
    rescale_constants,
)

from conftest import (
    add_layer,
    c2d_layer,
    derive,
    dwc_layer,
    pointwise_layer,
    pointwise_twins,
    pool_layer,
    qinput,
    random_filters,
    rational_requant,
    residual_input,
    toy_model,
)


def halves(n: int) -> np.recarray:
    """n channels of the multiplier 0.5."""
    return pack_multipliers(*quantize_multipliers(np.full(n, 0.5)))


def small_c2d(rng, side=16):
    layer = c2d_layer(rng)
    return dataclasses.replace(
        layer, in_h=side, in_w=side, out_h=side // 2, out_w=side // 2
    )


def flat_input(layer, value):
    data = np.full((layer.in_h, layer.in_w, layer.in_ch), value, dtype=np.uint8)
    return QTensor(layer.in_h, layer.in_w, layer.in_ch, data,
                   layer.in_zero, layer.in_scale)


# ---------------------------------------------------------------------------
# entry convolution
# ---------------------------------------------------------------------------

def test_c2d_single_tap_rounding_split():
    """An accumulator of exactly 1 lands on the rounding boundary of m=0.5."""
    wz = np.full(32, 90, dtype=np.int64)
    weights = np.full((3, 3, 3, 32), 90, dtype=np.uint8)
    weights[1, 1, 0, 0] = 91
    f = QFilterSet(3, 3, 3, 32, weights, wz, np.full(32, 0.5), np.zeros(32, np.int64))
    layer = LayerDesc(
        kind=Kind.C2D, in_h=8, in_w=8, in_ch=3, out_h=4, out_w=4, out_ch=32,
        in_scale=0.01, in_zero=128, out_scale=0.02, out_zero=100,
        stride=2, filters=f, mults=halves(32),
    )
    x = flat_input(layer, 128)
    x.data[2, 2, 0] = 129  # seen by the center tap of output pixel (1, 1)

    out_t, _ = run_layer(x, layer, rounding=Rounding.TRUNCATE)
    assert np.all(out_t.data == 100)  # floor(0.5) = 0, nowhere rounds up
    out_n, _ = run_layer(x, layer, rounding=Rounding.NEAREST)
    assert out_n.data[1, 1, 0] == 101  # 0.5 ties away from zero
    mask = np.zeros_like(out_n.data, dtype=bool)
    mask[1, 1, 0] = True
    assert np.all(out_n.data[~mask] == 100)


def test_c2d_matches_reference_small():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        layer = small_c2d(rng)
        x = qinput(rng, layer)
        rounding = Rounding.NEAREST if seed % 2 else Rounding.TRUNCATE
        got, _ = run_layer(x, layer, rounding=rounding)
        want = naive_quant_layer(x.data, layer, rounding=rounding)
        np.testing.assert_array_equal(got.data, want)


def test_c2d_matches_reference_full_frame():
    rng = np.random.default_rng(7)
    layer = c2d_layer(rng)
    x = qinput(rng, layer)
    got, stats = run_layer(x, layer)
    np.testing.assert_array_equal(got.data, naive_quant_layer(x.data, layer))
    assert stats.cycles == 224 * 224


def test_c2d_shape_contract():
    rng = np.random.default_rng(3)
    layer = small_c2d(rng)
    with pytest.raises(ShapeError, match="even sides"):
        odd = dataclasses.replace(layer, in_h=15, out_h=8)
        run_layer(qinput(rng, odd), odd)
    with pytest.raises(ShapeError, match="3->32"):
        wide = dataclasses.replace(layer, in_ch=16)
        run_layer(qinput(rng, wide), wide)


def test_c2d_rejects_mismatched_input_edge():
    rng = np.random.default_rng(4)
    layer = small_c2d(rng)
    x = qinput(rng, layer)
    bad = QTensor(x.height, x.width, x.channels, x.data, x.zero_point + 1, x.scale)
    with pytest.raises(DomainError, match="quantization"):
        run_layer(bad, layer)
    short = QTensor(4, x.width, x.channels, x.data[:4], x.zero_point, x.scale)
    with pytest.raises(ShapeError):
        run_layer(short, layer)


# ---------------------------------------------------------------------------
# depthwise convolution and pooling
# ---------------------------------------------------------------------------

def test_dwc_identity_kernel_halves_the_offset():
    ch = 16
    wz = np.full(ch, 40, dtype=np.int64)
    weights = np.full((3, 3, 1, ch), 40, dtype=np.uint8)
    weights[1, 1, 0, :] = 41  # center tap of 1 over a field of zeros
    f = QFilterSet(3, 3, 1, ch, weights, wz, np.full(ch, 0.5), np.zeros(ch, np.int64))
    layer = LayerDesc(
        kind=Kind.DWC, in_h=5, in_w=6, in_ch=ch, out_h=5, out_w=6, out_ch=ch,
        in_scale=0.03, in_zero=100, out_scale=0.06, out_zero=60,
        stride=1, filters=f, mults=halves(ch),
    )
    x = flat_input(layer, 200)  # 100 above the input zero point
    for rounding in Rounding:
        out, _ = run_layer(x, layer, rounding=rounding)
        assert np.all(out.data == 110)  # 60 + 100 * 0.5, exact either way


def test_dwc_cycle_count():
    """One frame pass per 16-channel group, one input pixel per cycle."""
    rng = np.random.default_rng(0)
    for layer, cycles in ((dwc_layer(rng, h=8, w=8, ch=16, stride=1), 64),
                          (dwc_layer(rng, h=8, w=8, ch=48, stride=2), 64 * 3)):
        assert run_layer(qinput(rng, layer), layer)[1].cycles == cycles


def test_dwc_matches_reference():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        layer = dwc_layer(rng)
        x = qinput(rng, layer)
        rounding = Rounding.TRUNCATE if seed % 3 == 0 else Rounding.NEAREST
        got, _ = run_layer(x, layer, rounding=rounding)
        np.testing.assert_array_equal(
            got.data, naive_quant_layer(x.data, layer, rounding=rounding)
        )


def test_dwc_rejects_ragged_channels():
    rng = np.random.default_rng(1)
    layer = dwc_layer(rng, ch=16)
    ragged = dataclasses.replace(layer, in_ch=24, out_ch=24)
    with pytest.raises(ShapeError, match="multiple of 16"):
        run_layer(qinput(rng, ragged), ragged)


def test_avgpool_tracks_the_true_mean():
    for seed in range(4):
        rng = np.random.default_rng(200 + seed)
        layer = pool_layer(rng)
        x = qinput(rng, layer)
        out, _ = run_layer(x, layer)
        sums = (x.data.astype(np.int64) - layer.in_zero).sum(axis=(0, 1))
        exact = layer.in_scale * sums / (49 * layer.out_scale) + layer.out_zero
        expected = np.clip(np.floor(exact + 0.5), 0, 255)
        assert np.max(np.abs(out.data[0, 0].astype(np.int64) - expected)) <= 1


def test_avgpool_any_frame_edge():
    rng = np.random.default_rng(5)
    layer = pool_layer(rng, h=3, w=3, ch=32)
    x = qinput(rng, layer)
    got, _ = run_layer(x, layer)
    np.testing.assert_array_equal(got.data, naive_quant_layer(x.data, layer))


def test_avgpool_output_must_be_single_pixel():
    rng = np.random.default_rng(6)
    layer = pool_layer(rng)
    bad = dataclasses.replace(layer, out_h=7, out_w=1)
    with pytest.raises(ShapeError, match="1x1"):
        run_layer(qinput(rng, bad), bad)


# ---------------------------------------------------------------------------
# pointwise engines
# ---------------------------------------------------------------------------

def test_pro_cycle_count():
    rng = np.random.default_rng(0)
    layer = pointwise_layer(rng, Kind.PRO, h=4, w=4, cin=32, cout=48)
    assert (layer.apass, layer.fpass) == (2, 3)
    assert run_layer(qinput(rng, layer), layer)[1].cycles == 96


def test_pro_single_term():
    cin = cout = 16
    wz = np.full(cout, 70, dtype=np.int64)
    weights = np.full((1, 1, cin, cout), 70, dtype=np.uint8)
    weights[0, 0, 0, 0] = 71
    f = QFilterSet(1, 1, cin, cout, weights, wz, np.full(cout, 0.5),
                   np.zeros(cout, np.int64))
    layer = LayerDesc(
        kind=Kind.PRO, in_h=2, in_w=3, in_ch=cin, out_h=2, out_w=3, out_ch=cout,
        in_scale=0.02, in_zero=50, out_scale=0.04, out_zero=77,
        filters=f, mults=halves(cout),
    )
    x = flat_input(layer, 50)
    x.data[:, :, 0] = 150  # only the surviving product term
    out, _ = run_layer(x, layer)
    assert np.all(out.data[:, :, 0] == 127)
    assert np.all(out.data[:, :, 1:] == 77)


def test_pointwise_engines_match_reference():
    for seed in range(8):
        rng = np.random.default_rng(300 + seed)
        kind = Kind.PRO if seed % 2 else Kind.EXP
        layer = pointwise_layer(rng, kind)
        x = qinput(rng, layer)
        rounding = Rounding.NEAREST if seed % 3 else Rounding.TRUNCATE
        got, _ = run_layer(x, layer, rounding=rounding)
        np.testing.assert_array_equal(
            got.data, naive_quant_layer(x.data, layer, rounding=rounding)
        )


def test_pass_orders_agree():
    # outer-filter/inner-activation vs the transpose, same arithmetic
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        pro, exp, x = pointwise_twins(rng)
        a, _ = run_layer(x, pro)
        b, _ = run_layer(x, exp)
        np.testing.assert_array_equal(a.data, b.data)


def test_exp_partials_after_first_batch():
    rng = np.random.default_rng(11)
    layer = pointwise_layer(rng, Kind.EXP, h=1, w=1, cin=32, cout=16)
    x = qinput(rng, layer)
    seen = {}
    run_layer(x, layer, probe=lambda ab, acc: seen.__setitem__(ab, acc))
    assert sorted(seen) == [0, 1]
    f = layer.filters
    w = f.weights[0, 0].astype(np.int64) - f.zero_points[None, :]
    signed = x.data.reshape(1, 32).astype(np.int64) - layer.in_zero
    half = f.biases[None, :] + signed[:, :16] @ w[:16, :]
    np.testing.assert_array_equal(seen[0][0], half)
    np.testing.assert_array_equal(seen[1][0], half + signed[:, 16:] @ w[16:, :])


def test_exp_kernel_sequencing():
    rng = np.random.default_rng(12)
    layer = pointwise_layer(rng, Kind.EXP, h=2, w=2, cin=48, cout=16)
    x = qinput(rng, layer)
    flat = x.data.reshape(4, 48)
    want = naive_quant_layer(x.data, layer).reshape(4, 16)
    kernel = ExpStreamKernel(layer)
    with pytest.raises(SequencingError, match="expected 0"):
        kernel.consume(1, flat[:, 16:32])
    with pytest.raises(ShapeError, match="3 pixels arrived for a 4-pixel frame"):
        kernel.consume(0, flat[:3, :16])  # the bank is sized by the first batch
    kernel.consume(0, flat[:, :16])
    with pytest.raises(ShapeError, match="5 pixels"):
        kernel.consume(1, np.vstack([flat[:, 16:32], flat[:1, 16:32]]))
    with pytest.raises(DomainError, match="not finished"):
        kernel.outputs()
    with pytest.raises(DomainError, match="whole batches"):
        kernel.consume(1, flat)  # batches 1..3 of a 3-batch layer
    with pytest.raises(DomainError, match="whole batches"):
        kernel.consume(1, flat[:, 16:40])  # a ragged batch
    kernel.consume(1, flat[:, 16:32])
    with pytest.raises(SequencingError, match="input batch 1 arrived, expected 2"):
        kernel.consume(1, flat[:, 16:32])  # a repeated run
    with pytest.raises(SequencingError, match="input batch 0 arrived, expected 2"):
        kernel.consume(0, flat)  # a run overlapping batches already folded
    kernel.consume(2, flat[:, 32:])
    np.testing.assert_array_equal(kernel.outputs(), want)
    kernel = ExpStreamKernel(layer)
    kernel.consume(0, flat[:, :32])
    with pytest.raises(SequencingError, match="input batch 1 arrived, expected 2"):
        kernel.consume(1, flat[:, 16:])  # starts on a batch of the last run
    # several consecutive batches per call, and the whole frame in one
    for splits in ((0, 16, 48), (0, 48)):
        kernel = ExpStreamKernel(layer)
        for lo, hi in zip(splits, splits[1:]):
            kernel.consume(lo // LANES, flat[:, lo:hi])
        np.testing.assert_array_equal(kernel.outputs(), want)
    # a probe still sees every batch's partials, in pass order
    f = layer.filters
    w = f.weights[0, 0].astype(np.int64) - f.zero_points
    signed = flat.astype(np.int64) - layer.in_zero
    seen = []
    kernel = ExpStreamKernel(layer, probe=lambda ab, acc: seen.append((ab, acc)))
    kernel.consume(0, flat[:, :16])
    kernel.consume(1, flat[:, 16:])
    assert [ab for ab, _ in seen] == [0, 1, 2]
    for ab, acc in seen:
        k = (ab + 1) * LANES
        want_acc = f.biases + signed[:, :k] @ w[:k]
        assert acc.dtype == np.int64
        np.testing.assert_array_equal(acc[0], want_acc)
    np.testing.assert_array_equal(kernel.outputs(), want)


def test_exp_probe_gets_copies_of_a_one_pass_bank():
    """With fpass == 1 the transposed bank is itself contiguous, so the
    probe must still get copies: no probed array shares memory with the
    kernel's bank, and each keeps its own pass's partials after the frame
    ends."""
    rng = np.random.default_rng(39)
    layer = pointwise_layer(rng, Kind.EXP, h=2, w=3, cin=48, cout=16)
    assert (layer.fpass, layer.apass) == (1, 3)
    x = qinput(rng, layer)
    flat = x.data.reshape(6, 48)
    seen = []
    kernel = ExpStreamKernel(layer, probe=lambda ab, acc: seen.append(acc))
    kernel.consume(0, flat)
    want = naive_quant_layer(x.data, layer).reshape(6, 16)
    np.testing.assert_array_equal(kernel.outputs(), want)
    assert len(seen) == layer.apass
    f = layer.filters
    w = f.weights[0, 0].astype(np.int64) - f.zero_points
    signed = flat.astype(np.int64) - layer.in_zero
    for ab, acc in enumerate(seen):
        assert not np.shares_memory(acc, kernel._acc)
        k = (ab + 1) * LANES
        np.testing.assert_array_equal(acc, (f.biases + signed[:, :k] @ w[:k])[None])


def test_exp_kernel_holds_no_weight_copy():
    """Between consume calls a kernel owns nothing as large as its
    layer's uint8 weight bank: it reads the bank slice by slice. A fresh
    kernel owns no array at all, since its bank is the first fold's
    result."""
    rng = np.random.default_rng(38)
    layer = pointwise_layer(rng, Kind.EXP, h=2, w=2, cin=160, cout=1280)
    flat = qinput(rng, layer).data.reshape(4, 160)
    bank = layer.filters.weights.nbytes

    def owned(kernel):
        return [v.nbytes for v in vars(kernel).values() if isinstance(v, np.ndarray)]

    for step in (LANES, 3 * LANES, 160):
        kernel = ExpStreamKernel(layer)
        assert owned(kernel) == []
        for lo in range(0, 160, step):
            kernel.consume(lo // LANES, flat[:, lo : lo + step])
            assert max(owned(kernel)) < bank
        kernel.outputs()


def test_pointwise_rejects_ragged_channels():
    rng = np.random.default_rng(14)
    layer = pointwise_layer(rng, Kind.PRO, cin=16, cout=16)
    bad = dataclasses.replace(layer, out_ch=20)
    with pytest.raises(ShapeError, match="multiples of 16"):
        run_layer(qinput(rng, bad), bad)


def test_padded_channels_preserve_the_original_layer():
    """Lane padding adds inert positions; real outputs are untouched."""
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        in_scale = float(2.0 ** rng.uniform(-7.0, -4.0))
        out_scale = float(2.0 ** rng.uniform(-7.0, -4.0))
        orig = LayerDesc(
            kind=Kind.PRO, in_h=3, in_w=3, in_ch=24, out_h=3, out_w=3, out_ch=24,
            in_scale=in_scale, in_zero=int(rng.integers(0, 256)),
            out_scale=out_scale, out_zero=int(rng.integers(0, 256)),
            filters=random_filters(rng, 1, 1, 24, 24, in_scale, out_scale),
        )
        orig = derive(orig)
        padded = derive(pad_channels(dataclasses.replace(orig)))
        assert (padded.in_ch, padded.out_ch) == (32, 32)
        assert (padded.orig_in_ch, padded.orig_out_ch) == (24, 24)

        x24 = rng.integers(0, 256, size=(3, 3, 24), dtype=np.uint8)
        x32 = np.full((3, 3, 32), orig.in_zero, dtype=np.uint8)
        x32[:, :, :24] = x24
        xt = QTensor(3, 3, 32, x32, padded.in_zero, padded.in_scale)

        got, _ = run_layer(xt, padded)
        np.testing.assert_array_equal(
            got.data[:, :, :24], naive_quant_layer(x24, orig)
        )
        assert np.all(got.data[:, :, 24:] == padded.out_zero)
        # junk in the padded input lanes must not leak through
        x32[:, :, 24:] = rng.integers(0, 256, size=(3, 3, 8), dtype=np.uint8)
        again, _ = run_layer(xt, padded)
        np.testing.assert_array_equal(again.data, got.data)


# ---------------------------------------------------------------------------
# residual addition
# ---------------------------------------------------------------------------

def test_add_equal_scales_is_exact():
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng(600 + seed)
        layer = add_layer(rng, equal_scales=True)
        if layer.out_zero > 250:
            continue
        x1 = flat_input(layer, layer.in_zero + 1)
        x2 = QTensor(layer.in_h, layer.in_w, layer.in_ch,
                     np.full_like(x1.data, layer.add_params.in2_zero + 1),
                     layer.add_params.in2_zero, layer.in_scale)
        for rounding in Rounding:
            out, _ = run_layer(x1, layer, residual=x2, rounding=rounding)
            # every rescale in the chain is a power of two here
            assert np.all(out.data == layer.out_zero + 2)
        hits += 1
    assert hits >= 10


def test_add_matches_reference():
    for seed in range(8):
        rng = np.random.default_rng(700 + seed)
        layer = add_layer(rng, h=3, w=5)
        x1 = qinput(rng, layer)
        x2 = residual_input(rng, layer)
        rounding = Rounding.TRUNCATE if seed % 2 else Rounding.NEAREST
        got, stats = run_layer(x1, layer, residual=x2, rounding=rounding)
        want = naive_quant_layer(x1.data, layer, residual=x2.data, rounding=rounding)
        np.testing.assert_array_equal(got.data, want)
        assert stats.madds == ADD_OPS_PER_CYCLE * stats.cycles


def test_add_operand_checks():
    rng = np.random.default_rng(15)
    layer = add_layer(rng)
    x1 = qinput(rng, layer)
    x2 = residual_input(rng, layer)
    shrunk = QTensor(2, layer.in_w, layer.in_ch, x2.data[:2],
                     x2.zero_point, x2.scale)
    with pytest.raises(ShapeError, match="residual"):
        run_layer(x1, layer, residual=shrunk)
    off = QTensor(x2.height, x2.width, x2.channels, x2.data,
                  (x2.zero_point + 1) % 256, x2.scale)
    with pytest.raises(DomainError, match="zero point"):
        run_layer(x1, layer, residual=off)


def test_a_residual_on_another_scale_is_rejected():
    """The residual must carry its source's out_scale exactly, as x must
    carry the layer's in_scale: the multipliers were derived for that
    scale, so a residual at 4x it would run to the same codes."""
    rng = np.random.default_rng(5)
    layer = add_layer(rng)
    x1, x2 = qinput(rng, layer), residual_input(rng, layer)
    assert x2.scale == layer.add_params.in2_scale
    run_layer(x1, layer, residual=x2)
    for scale in (4 * x2.scale, float(np.nextafter(x2.scale, 1.0))):
        skewed = QTensor(x2.height, x2.width, x2.channels, x2.data, x2.zero_point, scale)
        with pytest.raises(DomainError, match="residual operand scale"):
            run_layer(x1, layer, residual=skewed)


def test_pass_through_shares_its_input_frame():
    rng = np.random.default_rng(16)
    layer = add_layer(rng)
    plain = dataclasses.replace(
        layer, residual_from=None, add_params=None,
        out_scale=layer.in_scale, out_zero=layer.in_zero,
    )
    x = qinput(rng, plain)
    out, stats = run_layer(x, plain)
    np.testing.assert_array_equal(out.data, x.data)
    assert np.shares_memory(out.data, x.data)
    assert (out.zero_point, out.scale) == (x.zero_point, x.scale)
    assert stats.madds == 0
    assert stats.cycles == layer.in_h * layer.in_w * layer.in_ch // LANES
    skewed = dataclasses.replace(plain, out_zero=plain.in_zero + 1)
    with pytest.raises(DomainError, match="edge"):
        run_layer(qinput(rng, skewed), skewed)


def test_run_layer_dispatch():
    rng = np.random.default_rng(17)
    layer = add_layer(rng)
    x1 = qinput(rng, layer)
    x2 = residual_input(rng, layer)
    got, _ = run_layer(x1, layer, residual=x2)
    np.testing.assert_array_equal(got.data, naive_quant_layer(x1.data, layer, residual=x2.data))
    with pytest.raises(DomainError, match="missing its residual"):
        run_layer(x1, layer)
    plain = dataclasses.replace(
        layer, residual_from=None, add_params=None,
        out_scale=layer.in_scale, out_zero=layer.in_zero,
    )
    with pytest.raises(DomainError, match="pass-through"):
        run_layer(qinput(rng, plain), plain, residual=x2)
    dw = dwc_layer(rng, ch=16)
    got, _ = run_layer(qinput(np.random.default_rng(18), dw), dw)
    assert got.data.shape == (dw.out_h, dw.out_w, 16)


def _replay(model, image):
    """Every layer of a model through run_layer, each residual kept from
    its source layer until its shortcut takes it, as perfbench's traced
    replay carries them. Returns the logits and each layer's stats."""
    x, kept, stats = image, {}, {}
    for idx, layer in enumerate(model.layers):
        residual = kept.pop(layer.residual_from, None) if layer.kind is Kind.ADD else None
        x, stats[idx] = run_layer(x, layer, residual=residual, rounding=model.rounding)
        if idx in model.residual_sources:
            kept[idx] = x
    assert not kept
    return x, stats


def test_run_layer_replays_whole_models():
    """A layer-by-layer run_layer replay gives the logits and stats of
    run_inference in every mode, and the oracle's logits: on toy models
    with both shortcut and pass-through slots, with and without a head,
    and on MobileNetV2 0.5/64 with its head."""
    models = [toy_model(seed, include_head=bool(i % 2),
                        rounding=Rounding.TRUNCATE if i % 2 else Rounding.NEAREST)
              for i, seed in enumerate((0, 1, 2, 5))]
    models.append(prepare(build_mobilenet_v2(0.5, 64, seed=4), rounding=Rounding.TRUNCATE))
    for model in models:
        adds = [l for l in model.layers if l.kind is Kind.ADD]
        assert any(l.residual_from is None for l in adds)
        assert any(l.residual_from is not None for l in adds)
        pixels = np.random.default_rng(model.resolution).integers(
            0, 256, size=(model.resolution, model.resolution, 3), dtype=np.uint8)
        image = image_to_qtensor(pixels, model)
        logits, stats = _replay(model, image)
        np.testing.assert_array_equal(logits.data, run_model_naive(model, pixels))
        for mode in ("sequential", "stream", "threads"):
            result = run_inference(model, image, mode=mode)
            assert result.logits == logits
            assert result.stats == stats


# ---------------------------------------------------------------------------
# work accounting
# ---------------------------------------------------------------------------

def test_stats_addition():
    a = EngineStats(10, 100, 7, 3, acc_working_set=64)
    b = EngineStats(5, 50, 1, 2, acc_working_set=640)
    c = a + b
    assert (c.cycles, c.madds, c.weight_bytes, c.output_elements) == (15, 150, 8, 5)
    assert c.acc_working_set == 640  # a bank is sized by its peak, not the sum


# ---------------------------------------------------------------------------
# exact carrier: differential against the oracle, bound guard
# ---------------------------------------------------------------------------

def _span_mults(layer, rng):
    """The layer with multipliers that make outputs span the uint8 range
    even when every product sits at the extreme (|acc| near K * 255**2)."""
    f = layer.filters
    k = f.kernel_h * f.kernel_w * f.in_channels
    m = 2.0 ** rng.uniform(-8.0, -1.1, layer.out_ch) / (k * 255)
    return dataclasses.replace(layer, mults=pack_multipliers(*quantize_multipliers(m)))


def _worst_case(layer, x, act_hi, w_hi):
    """The layer, and x in place, with every operand at 0 or 255 and its
    zero point at the opposite extreme, and every bias at the edge of its
    storage width with the products' sign: each accumulator reaches
    K * 255**2 + max bias. The output zero point is centred so
    _span_mults keeps results off the clamps. The filter bank is edited
    in place, so run only the returned layer."""
    f = layer.filters
    x.data[...] = 255 if act_hi else 0
    x.zero_point = 0 if act_hi else 255
    f.weights[...] = 255 if w_hi else 0
    f.zero_points[...] = 0 if w_hi else 255
    sign = 1 if act_hi == w_hi else -1
    f.biases[...] = sign * ((1 << (layer.bias_bits - 1)) - 1)
    return dataclasses.replace(layer, in_zero=x.zero_point, out_zero=128)


def _raw_pointwise_acc(layer, x):
    f = layer.filters
    signed = x.data.reshape(-1, layer.in_ch).astype(np.int64) - layer.in_zero
    return signed @ (f.weights[0, 0].astype(np.int64) - f.zero_points) + f.biases


@st.composite
def mac_cases(draw):
    """(layer, input, rounding) for one of the four MAC engines."""
    kind = draw(st.sampled_from([Kind.PRO, Kind.EXP, Kind.C2D, Kind.DWC]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in (Kind.PRO, Kind.EXP):
        layer = pointwise_layer(
            rng, kind, h=draw(st.integers(1, 3)), w=draw(st.integers(1, 3)),
            cin=LANES * draw(st.integers(1, 80)), cout=LANES * draw(st.integers(1, 63)))
    elif kind is Kind.C2D:
        h, w = 2 * draw(st.integers(1, 8)), 2 * draw(st.integers(1, 8))
        layer = dataclasses.replace(c2d_layer(rng), in_h=h, in_w=w, out_h=h // 2, out_w=w // 2)
    else:
        layer = dwc_layer(rng, h=draw(st.integers(1, 9)), w=draw(st.integers(1, 9)),
                          ch=LANES * draw(st.integers(1, 6)), stride=draw(st.sampled_from([1, 2])))
    layer = _span_mults(layer, rng)
    x = qinput(rng, layer)
    if draw(st.booleans()):
        layer = _worst_case(layer, x, draw(st.booleans()), draw(st.booleans()))
    return layer, x, draw(st.sampled_from(list(Rounding)))


def _check_against_oracle(layer, x, rounding):
    """Outputs match the oracle on the first run, which compiles the
    layer's record, and on a second, which reuses it; EXP's raw final
    partials match exactly."""
    want = naive_quant_layer(x.data, layer, rounding=rounding)
    for _ in range(2):
        partials = []
        if layer.kind is Kind.EXP:
            got, _ = run_layer(x, layer, rounding=rounding,
                               probe=lambda ab, acc: partials.append(acc))
            last = partials[-1].transpose(1, 0, 2).reshape(-1, layer.out_ch)
            np.testing.assert_array_equal(last, _raw_pointwise_acc(layer, x))
        else:
            got, _ = run_layer(x, layer, rounding=rounding)
        np.testing.assert_array_equal(got.data, want)
    return want


@given(mac_cases())
@settings(max_examples=80, deadline=None)
def test_mac_engines_match_the_oracle(case):
    _check_against_oracle(*case)


def test_classifier_shape_worst_case_is_exact():
    """npix = 1, K = 1280, N = 1008 at every worst-case corner."""
    rng = np.random.default_rng(31)
    for kind in (Kind.PRO, Kind.EXP):
        for act_hi in (False, True):
            for w_hi in (False, True):
                layer = _span_mults(
                    pointwise_layer(rng, kind, h=1, w=1, cin=1280, cout=1008), rng)
                x = qinput(rng, layer)
                layer = _worst_case(layer, x, act_hi, w_hi)
                for rounding in Rounding:
                    want = _check_against_oracle(layer, x, rounding)
                    assert 0 < want.min() and want.max() < 255  # not clamped away


def test_depthwise_rows_worst_case_is_exact():
    """Stride-1 depthwise rows of 1024 and 3072 lanes, and a 32x32x48
    stride-2 frame: random codes, then every worst-case corner, where
    each interior window sums nine products to 9 * 255**2 in magnitude.
    The corners' taps are all equal, so the random run is the one that
    pins the tap layout."""
    rng = np.random.default_rng(37)
    for h, ch, stride in ((32, 32, 1), (16, 192, 1), (32, 48, 2)):
        layer = _span_mults(dwc_layer(rng, h=h, w=h, ch=ch, stride=stride), rng)
        for rounding in Rounding:
            _check_against_oracle(layer, qinput(rng, layer), rounding)
        for act_hi in (False, True):
            for w_hi in (False, True):
                layer = _span_mults(dwc_layer(rng, h=h, w=h, ch=ch, stride=stride), rng)
                x = qinput(rng, layer)
                layer = _worst_case(layer, x, act_hi, w_hi)
                for rounding in Rounding:
                    want = _check_against_oracle(layer, x, rounding)
                    assert 0 < want.min() and want.max() < 255  # not clamped away


def test_classifier_allocates_no_weight_copy():
    """At npix = 1 no pointwise engine call builds a copy of its bank.
    The first call compiles the layer's record, its int16 bank of
    W - zw and its tap sums, and then runs one float32 K_CHUNK slice:
    its peak stays below those two plus 128 KiB for the per-channel
    vectors and numpy's reduction buffers, about 3.7 MB, which a float32
    copy of the whole bank (5.2 MB) or an int64 copy (10.3 MB) would
    break. A later call stays below the uint8 bank's bytes."""
    rng = np.random.default_rng(36)
    for kind in (Kind.PRO, Kind.EXP):
        layer = pointwise_layer(rng, kind, h=1, w=1, cin=1280, cout=1008)
        x = qinput(rng, layer)
        bank = layer.filters.weights.nbytes
        for bound in (2 * bank + K_CHUNK * layer.out_ch * 4 + 2**17, bank):
            tracemalloc.start()
            try:
                run_layer(x, layer)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


def test_acc_bound_guard_is_tight():
    """K * 255**2 plus the largest bias must stay below 2**30."""
    rng = np.random.default_rng(32)
    k = (ACC_BOUND - 1) // (255 * 255)  # 16512 taps: 49023 of headroom left
    layer = _span_mults(pointwise_layer(rng, Kind.PRO, h=1, w=1, cin=k, cout=16), rng)
    x = qinput(rng, layer)
    layer = _worst_case(layer, x, True, True)
    layer.filters.biases[...] = ACC_BOUND - 1 - k * 255 * 255
    check_acc_bound(layer)
    got, _ = run_layer(x, layer)  # |acc| = 2**30 - 1, still exact
    np.testing.assert_array_equal(got.data, naive_quant_layer(x.data, layer))
    # a layer is a fact: to change one after a run, build a new one
    biases = layer.filters.biases.copy()
    biases[0] += 1
    layer = dataclasses.replace(layer, filters=dataclasses.replace(layer.filters, biases=biases))
    with pytest.raises(DomainError, match="2\\*\\*30"):
        run_layer(x, layer)


def test_k_chunk_is_the_float32_exactness_bound():
    """K_CHUNK is the largest multiple of LANES whose worst-case slice
    sum float32 still holds exactly."""
    assert K_CHUNK % LANES == 0
    assert K_CHUNK * 255**2 < 2**24 <= (K_CHUNK + LANES) * 255**2


def _edge_mults(acc: int, rounding: Rounding, n: int) -> np.recarray:
    """n packed multipliers that each put acc one unit from a rounding
    edge of its output: an even channel's output changes if acc comes out
    one higher, an odd channel's if it comes out one lower. Outputs land
    about 45 codes from the zero point."""
    shift = round(math.log2(abs(acc))) + 26
    edge = round(acc * 2.0**31.5 / 2**shift) << shift
    if rounding is Rounding.NEAREST:
        edge += 1 << (shift - 1)
    mults = []
    for c in range(n):
        step = 1 if c % 2 == 0 else -1
        mult = round(Fraction(edge) / (acc + Fraction(step, 2)))
        assert MULT_MIN <= mult <= MULT_MAX and abs(acc) * mult < 2**62
        assert (rational_requant(acc, (mult, shift), 0, rounding)
                != rational_requant(acc + step, (mult, shift), 0, rounding))
        mults.append(mult)
    return pack_multipliers(mults, [shift] * n)


@pytest.mark.parametrize("k", [1280, (ACC_BOUND - 1) // (255 * 255)])
@pytest.mark.parametrize("kind", [Kind.PRO, Kind.EXP])
def test_float32_slices_are_exact_at_odd_sums(kind, k):
    """Every product is +-255**2 but one, which is 0, so the exact sum
    is odd and above 2**24: float32 cannot hold it, and only slices of
    at most K_CHUNK rows keep it exact. Each output channel sits one
    unit from a rounding edge, so a sum one off in either direction
    changes the output."""
    rng = np.random.default_rng(39)
    layer = pointwise_layer(rng, kind, h=1, w=1, cin=k, cout=16)
    for act_hi in (True, False):
        x = qinput(rng, layer)
        layer = _worst_case(layer, x, act_hi, True)
        layer.filters.biases[...] = 32766 if act_hi else -32766
        x.data[0, 0, k // 3] = layer.in_zero
        acc = _raw_pointwise_acc(layer, x)[0]
        products = acc[0] - layer.filters.biases[0]
        assert products % 2 and abs(products) > 2**24 and np.all(acc == acc[0])
        signed = x.data.reshape(1, k).astype(np.float32) - layer.in_zero
        raw = np.zeros((1, 16), dtype=np.int64)
        fold_gemm(raw, signed, layer_record(layer).taps)
        np.testing.assert_array_equal(raw[0], acc - layer.filters.biases)
        for rounding in Rounding:
            layer = dataclasses.replace(layer, mults=_edge_mults(int(acc[0]), rounding, 16))
            want = naive_quant_layer(x.data, layer, rounding=rounding)
            assert 0 < want.min() and want.max() < 255
            got, _ = run_layer(x, layer, rounding=rounding)
            np.testing.assert_array_equal(got.data, want)
            if kind is Kind.EXP:
                kernel = ExpStreamKernel(layer, rounding)
                for ab in range(layer.apass):
                    kernel.consume(ab, x.data[0, :, ab * LANES : (ab + 1) * LANES])
                np.testing.assert_array_equal(kernel.outputs(), want[0])


def test_every_engine_checks_the_bound():
    rng = np.random.default_rng(33)
    cases = [small_c2d(rng), dwc_layer(rng), pointwise_layer(rng, Kind.PRO),
             pointwise_layer(rng, Kind.EXP)]
    for layer in cases:
        layer.filters.biases[-1] = -ACC_BOUND
        with pytest.raises(DomainError, match="2\\*\\*30"):
            run_layer(qinput(rng, layer), layer)
    with pytest.raises(DomainError, match="2\\*\\*30"):
        ExpStreamKernel(cases[-1])
    pool = pool_layer(rng)
    check_acc_bound(pool)
    with pytest.raises(DomainError, match="2\\*\\*30"):
        check_acc_bound(dataclasses.replace(pool, in_h=2048, in_w=2060))
    check_acc_bound(add_layer(rng))  # no accumulators to bound


def test_exp_probe_partials_are_int64_banks():
    rng = np.random.default_rng(34)
    layer = pointwise_layer(rng, Kind.EXP, h=2, w=3, cin=32, cout=48)
    x = qinput(rng, layer)
    seen = []
    out, _ = run_layer(x, layer, probe=lambda ab, acc: seen.append(acc))
    assert len(seen) == layer.apass
    for acc in seen:
        assert acc.dtype == np.int64
        assert acc.shape == (layer.fpass, 6, LANES)
    f = layer.filters
    signed = x.data.reshape(6, 32).astype(np.int64) - layer.in_zero
    w = f.weights[0, 0].astype(np.int64) - f.zero_points
    first = (signed[:, :16] @ w[:16] + f.biases).reshape(6, layer.fpass, LANES)
    np.testing.assert_array_equal(seen[0], first.transpose(1, 0, 2))
    seen[-1][...] = 0  # the probe gets a copy: the frame is unaffected
    np.testing.assert_array_equal(out.data, naive_quant_layer(x.data, layer))


def test_layers_are_frozen_facts():
    """A layer cannot change after it is built, so its record cannot go
    stale: no field can be assigned and mults is read-only."""
    rng = np.random.default_rng(35)
    pro = pointwise_layer(rng, Kind.PRO, cin=32, cout=32)
    for fld in dataclasses.fields(pro):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pro, fld.name, getattr(pro, fld.name))
    assert not pro.mults.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pro.mults.mult[0] = MULT_MIN


def check_changed_layer_gets_own_record(rng, layer, changed):
    """Run layer, then a dataclasses.replace'd copy of it: the copy
    compiles its own record and matches the oracle, while the original
    keeps the record it built once."""
    x, residual = qinput(rng, layer), None
    if layer.kind is Kind.ADD:
        residual = residual_input(rng, layer)
    before, _ = run_layer(x, layer, residual)
    record = layer_record(layer)
    run_layer(x, layer, residual)
    assert layer_record(layer) is record  # built once
    x.zero_point = changed.in_zero
    after, _ = run_layer(x, changed, residual)
    assert layer_record(changed) is not record
    assert layer_record(layer) is record
    assert not np.array_equal(before.data, after.data)
    np.testing.assert_array_equal(after.data, naive_quant_layer(x, changed, residual))


def test_mult_vectors_follow_reassignment():
    """A layer built with new mults or filters gets its own record; an
    over-bound layer gets no record, so every call raises."""
    rng = np.random.default_rng(35)
    layer = pointwise_layer(rng, Kind.PRO, cin=32, cout=32)
    halved = dataclasses.replace(
        layer, mults=pack_multipliers(layer.mults.mult, layer.mults.shift + 1))
    check_changed_layer_gets_own_record(rng, layer, halved)
    f = halved.filters
    rebound = dataclasses.replace(halved, filters=dataclasses.replace(f, weights=255 - f.weights))
    x = qinput(rng, layer)
    after, _ = run_layer(x, halved)
    got, _ = run_layer(x, rebound)
    assert not np.array_equal(after.data, got.data)
    np.testing.assert_array_equal(got.data, naive_quant_layer(x, rebound))
    biases = f.biases.copy()
    biases[-1] = -ACC_BOUND
    over = dataclasses.replace(layer, filters=dataclasses.replace(f, biases=biases))
    for _ in range(2):  # an over-bound layer never gets a record
        with pytest.raises(DomainError, match="2\\*\\*30"):
            run_layer(x, over)


def test_add_record_follows_rebinding_its_zero_points():
    """A shortcut reads its input and output zero points off the layer
    itself. Rebinding out_zero alone moves every output code onto the new
    zero point; rebinding in_zero alone to in_zero + d, with every input
    code shifted by d, leaves the output as it was. The inputs sit near
    their zero points, so no output clamps. Each rebound layer compiles
    its own record and matches the oracle."""
    rng = np.random.default_rng(5)
    layer, d = add_layer(rng), 9
    shape = (layer.in_h, layer.in_w, layer.in_ch)

    def near(zero, hi):
        return rng.integers(zero - 48, zero + 48, shape).clip(0, hi).astype(np.uint8)

    x = dataclasses.replace(qinput(rng, layer), data=near(layer.in_zero, 255 - d))
    r = residual_input(rng, layer)
    r = dataclasses.replace(r, data=near(r.zero_point, 255))
    before, _ = run_layer(x, layer, r)
    assert 0 < before.data.min() and before.data.max() < 255 - d  # nothing clamps
    moved = dataclasses.replace(layer, out_zero=layer.out_zero + d)
    out, _ = run_layer(x, moved, r)
    assert out.zero_point == moved.out_zero
    np.testing.assert_array_equal(out.data, before.data + d)
    shifted = dataclasses.replace(layer, in_zero=layer.in_zero + d)
    x = dataclasses.replace(x, data=x.data + d, zero_point=shifted.in_zero)
    out, _ = run_layer(x, shifted, r)
    np.testing.assert_array_equal(out.data, before.data)
    for changed in (moved, shifted):
        check_changed_layer_gets_own_record(rng, layer, changed)


def test_depthwise_record_follows_in_zero():
    """The depthwise record folds the input zero point into its bias,
    so a layer with a new in_zero gets its own record."""
    rng = np.random.default_rng(45)
    layer = dwc_layer(rng, h=5, w=4, ch=32, stride=1)
    changed = dataclasses.replace(layer, in_zero=(layer.in_zero + 91) % 256)
    check_changed_layer_gets_own_record(rng, layer, changed)


@pytest.mark.parametrize("width, resolution", [(1.0, 224), (0.5, 64)])
def test_standard_models_pass_the_bound_guard(tmp_path, width, resolution):
    model = prepare(build_mobilenet_v2(width, resolution))
    loaded = load_package(save_package(model, tmp_path / "pkg"))
    for m in (model, loaded):
        for layer in m.layers:
            check_acc_bound(layer)


def test_layer_records_hold_no_weight_copies():
    """What a record may own, per engine kind, so that resident copies
    cannot grow the memory footprint unnoticed: PRO and EXP records own
    exactly one array as large as the bank, their int16 (in_ch, out_ch)
    taps W - zw, and otherwise per-channel vectors; the entry and
    depthwise records own their zero-corrected float32 taps; an addition
    owns two 256-entry tables per rounding. Every rescale holds its
    mults, shifts, half and offset_half, plus the offset of the bias its
    engine's raw sums lack (all but an addition); an aligned one holds a
    0-d shift and half. Over the whole model the records own at most
    twice the uint8 pointwise weight bytes, plus the per-channel vectors,
    the entry and depthwise taps and the addition tables."""
    model = prepare(build_mobilenet_v2(0.5, 64))
    kinds, forms = set(), set()
    owned_bytes = pointwise_bytes = other_bytes = 0
    for layer in model.layers:
        rec, owned = layer_record(layer), []
        for fld in dataclasses.fields(rec):
            value = getattr(rec, fld.name)
            if fld.name == "add_tables" and value is not None:
                assert set(value) == set(Rounding)
                tables = [t for pair in value.values() for t in pair]
                assert len(tables) == 4
                assert all(t.shape == (256,) and t.dtype == np.int64 for t in tables)
                owned_bytes += sum(t.nbytes for t in tables)
                other_bytes += sum(t.nbytes for t in tables)
            else:
                owned += value if isinstance(value, tuple) else [value]
        arrays = [v for v in owned if isinstance(v, np.ndarray)]
        for v in arrays:
            assert not v.flags.writeable and v.flags.c_contiguous
            if layer.filters is not None:
                assert not np.shares_memory(v, layer.filters.weights)
        per_channel = [v for v in arrays if v is not rec.taps]
        assert all(v.size <= layer.out_ch for v in per_channel)
        owned_bytes += sum(v.nbytes for v in arrays)
        other_bytes += sum(v.nbytes for v in per_channel)
        r = rec.rescale
        if r is not None:
            aligned = r.shifts.ndim == 0
            forms.add(aligned)
            assert r.half.ndim == r.shifts.ndim
            assert aligned or r.shifts.shape == (layer.out_ch,)
            assert (r.offset is None) == (layer.kind is Kind.ADD)
        kinds.add(layer.kind)
        if layer.kind in (Kind.PRO, Kind.EXP):
            assert len(arrays) == 6  # rescale and taps
            w = layer.filters.weights[0, 0].astype(np.int64) - layer.filters.zero_points
            assert rec.taps.dtype == np.int16 and rec.taps.shape == (layer.in_ch, layer.out_ch)
            np.testing.assert_array_equal(rec.taps, w)
            pointwise_bytes += layer.filters.weights.nbytes
        elif layer.kind is Kind.AVGPOOL:
            assert len(arrays) == 5 and rec.taps is None
        elif layer.kind is Kind.DWC:
            assert len(arrays) == 6  # rescale and taps
            assert rec.taps.dtype == np.float32 and rec.taps.size == 9 * layer.out_ch
            other_bytes += rec.taps.nbytes
        elif layer.kind is Kind.C2D:
            assert len(arrays) == 6  # rescale and taps
            assert rec.taps.dtype == np.float32 and rec.taps.shape == (27, 32)
            other_bytes += rec.taps.nbytes
        elif layer.residual_from is not None:
            assert len(arrays) == 4 and all(v.size == 1 for v in arrays)  # output pair
            assert rec.add_tables is not None
        else:  # a pass-through slot
            assert arrays == [] and rec.add_tables is None
    assert kinds == set(Kind)
    assert forms == {True, False}  # aligned layers, and long banks that stay per-channel
    assert owned_bytes <= 2 * pointwise_bytes + other_bytes


@pytest.mark.parametrize("w, zw", [(0, 0), (0, 255), (255, 0), (255, 255)])
def test_record_taps_are_exact_at_the_code_extremes(w, zw):
    """Each bank's zero points are cast to its dtype before the subtract:
    at the extremes of weight and zero point, the int16 PRO and EXP banks,
    the float32 depthwise taps and the entry taps, built from an int64
    bank, all equal W - zw computed in int64."""
    rng = np.random.default_rng(52)
    for layer in (pointwise_layer(rng, Kind.PRO), pointwise_layer(rng, Kind.EXP),
                  dwc_layer(rng), c2d_layer(rng)):
        f = layer.filters
        layer = derive(dataclasses.replace(layer, filters=QFilterSet(
            f.kernel_h, f.kernel_w, f.in_channels, f.out_channels,
            np.full(f.weights.shape, w, np.uint8), np.full(f.out_channels, zw),
            f.scales, f.biases)))
        want = np.full(f.weights.shape, w, np.int64) - zw
        taps = layer_record(layer).taps
        if layer.kind in (Kind.PRO, Kind.EXP):
            assert taps.dtype == np.int16
            np.testing.assert_array_equal(taps, want[0, 0])
        else:
            assert taps.dtype == np.float32
            np.testing.assert_array_equal(taps, want[:, :, 0, :] if layer.kind is Kind.DWC
                                          else want.reshape(27, 32))


def test_pointwise_offsets_are_exact_on_the_largest_admitted_bank():
    """A pointwise record sums its int16 bank's columns in int32: on the
    longest bank the accumulator bound admits (K = 16512), every entry
    -255, each sum is -255 * K, and the record's offsets equal those built
    from int64 tap sums."""
    rng = np.random.default_rng(16)
    layer = pointwise_layer(rng, Kind.PRO, h=1, w=1, cin=16512, cout=16)
    f = layer.filters
    layer = derive(dataclasses.replace(layer, in_zero=255, filters=QFilterSet(
        1, 1, 16512, 16, np.zeros(f.weights.shape, np.uint8), np.full(16, 255),
        f.scales, f.biases)))
    sums = (layer.filters.weights[0, 0].astype(np.int64) - 255).sum(axis=0)
    assert (sums == -255 * 16512).all()
    want = rescale_constants(np.ascontiguousarray(layer.mults.mult), layer.mults.shift,
                             check_acc_bound(layer), layer.filters.biases - 255 * sums)
    got = layer_record(layer).rescale
    np.testing.assert_array_equal(got.offset, want.offset)
    np.testing.assert_array_equal(got.offset_half, want.offset_half)


def test_engines_leave_their_inputs_untouched():
    """Each engine rescales an accumulator it owns, in place, so none may
    write its input frame or residual operand, or return an output that
    shares memory with either: run_layer leaves both bit-identical."""
    rng = np.random.default_rng(51)
    exp = pointwise_layer(rng, Kind.EXP, cin=48, cout=32)
    cases = [(small_c2d(rng), None), (dwc_layer(rng, stride=1), None),
             (dwc_layer(rng, stride=2), None), (pool_layer(rng), None),
             (pointwise_layer(rng, Kind.PRO), None), (exp, None), (exp, []),
             (add_layer(rng), None)]
    for layer, seen in cases:
        x = qinput(rng, layer)
        residual = residual_input(rng, layer) if layer.kind is Kind.ADD else None
        operands = [t.data for t in (x, residual) if t is not None]
        before = [a.copy() for a in operands]
        probe = None if seen is None else lambda ab, acc: seen.append(acc)
        for rounding in Rounding:
            out, _ = run_layer(x, layer, residual, rounding, probe)
            np.testing.assert_array_equal(
                out.data, naive_quant_layer(x, layer, residual, rounding))
            for a, b in zip(operands, before):
                np.testing.assert_array_equal(a, b)
                assert not np.shares_memory(out.data, a)
        assert seen is None or len(seen) == 2 * exp.apass


def _all_code_pairs() -> tuple[np.ndarray, np.ndarray]:
    a1, a2 = np.meshgrid(np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8),
                         indexing="ij")
    return a1.reshape(256, 256, 1), a2.reshape(256, 256, 1)


@pytest.mark.parametrize("model_rounding", list(Rounding))
def test_add_tables_match_the_oracle_on_every_code_pair(model_rounding):
    """Every (a1, a2) code pair of every residual addition of mnv2 0.5/64,
    under the model's own rounding and under the other one as an override."""
    model = prepare(build_mobilenet_v2(0.5, 64), rounding=model_rounding)
    adds = [l for l in model.layers if l.residual_from is not None]
    assert len(adds) == 10
    a1, a2 = _all_code_pairs()
    for layer in adds:
        p = layer.add_params
        for rounding in Rounding:
            got = add_elements(a1, a2, layer, rounding)
            want = naive_quant_layer(a1, layer, residual=a2, rounding=rounding)
            np.testing.assert_array_equal(got, want)
            # a table entry off by one rarely moves an output code, so
            # the tables are also checked entry by entry
            tables = layer_record(layer).add_tables[rounding]
            for table, zero, ms in zip(tables, (layer.in_zero, p.in2_zero), p.mults[:2]):
                assert table.tolist() == [rational_requant((a - zero) << 20, ms,
                                                           rounding=rounding)
                                          for a in range(256)]
    other = next(r for r in Rounding if r is not model_rounding)
    image = image_to_qtensor(
        np.random.default_rng(41).integers(0, 256, size=(64, 64, 3), dtype=np.uint8), model)
    want = run_model_naive(model, image.data, rounding=other)
    for mode in ("sequential", "stream"):
        got = run_inference(model, image, mode=mode, rounding=other).logits
        np.testing.assert_array_equal(got.data, want)


def test_add_record_checks_its_sum_bound():
    """The record rejects tables whose sum times the output multiplier
    could reach 2**62.

    Normalized multipliers never do, and pack_multipliers rejects a shift
    below 32, so a raw record array, built around it, carries the pair
    mult 2**31, shift 1 (a scale of 2**30) into the first operand."""
    rng = np.random.default_rng(47)
    layer = add_layer(rng, h=2, w=2)
    x1, x2 = qinput(rng, layer), residual_input(rng, layer)
    run_layer(x1, layer, residual=x2)
    raw = np.array(layer.add_params.mults)  # a writeable copy
    raw[0] = (2**31, 1)
    layer = dataclasses.replace(layer, add_params=dataclasses.replace(
        layer.add_params, mults=raw.view(np.recarray)))
    for _ in range(2):  # an over-bound addition never gets a record
        with pytest.raises(DomainError, match="2\\*\\*62"):
            run_layer(x1, layer, residual=x2)

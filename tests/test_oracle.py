"""Checks the reference evaluators themselves, against exact arithmetic."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from semistream.errors import DomainError
from semistream.modelkit import Kind, QTensor
from semistream.oracle import (
    dequantize,
    float_layer,
    naive_quant_layer,
    run_model_naive,
)
from semistream.quantcore import Rounding, pack_multipliers

from conftest import (
    add_layer,
    benign_add_case,
    benign_conv_case,
    dwc_layer,
    pointwise_layer,
    pool_layer,
    qinput,
    rational_requant,
    residual_input,
    toy_pair,
)


def clip8(v: int) -> int:
    return min(max(v, 0), 255)


# ---------------------------------------------------------------------------
# integer reference vs exact rationals, one element at a time
# ---------------------------------------------------------------------------

def test_naive_pointwise_single_pixel_exact():
    for seed in range(6):
        rng = np.random.default_rng(30 + seed)
        base = pointwise_layer(rng, Kind.PRO, h=1, w=1, cin=16, cout=16)
        x = qinput(rng, base)
        f = base.filters
        signed = x.data.reshape(16).astype(int) - base.in_zero
        # besides the layer's own multipliers, shifts around 64, where a
        # half of 1 << (shift - 1) no longer fits in int64
        variants = [base] + [
            dataclasses.replace(base, mults=pack_multipliers(np.full(16, 2**31 + 5),
                                                             np.full(16, s)), out_zero=128)
            for s in (63, 64, 65)
        ]
        for layer in variants:
            for rounding in Rounding:
                out = naive_quant_layer(x.data, layer, rounding=rounding)
                for c in range(16):
                    acc = int(f.biases[c])
                    for k in range(16):
                        acc += signed[k] * (int(f.weights[0, 0, k, c]) - int(f.zero_points[c]))
                    want = clip8(rational_requant(acc, layer.mults[c],
                                                  layer.out_zero, rounding))
                    assert out[0, 0, c] == want, (layer.mults[c], rounding, acc)


def test_naive_depthwise_single_pixel_exact():
    rng = np.random.default_rng(40)
    layer = dwc_layer(rng, h=1, w=1, ch=16, stride=1)
    x = qinput(rng, layer)
    f = layer.filters
    out = naive_quant_layer(x.data, layer)
    # only the center tap sees data; the ring reads zero-point padding
    for c in range(16):
        tap = int(f.weights[1, 1, 0, c]) - int(f.zero_points[c])
        acc = int(f.biases[c]) + (int(x.data[0, 0, c]) - layer.in_zero) * tap
        assert out[0, 0, c] == clip8(
            rational_requant(acc, layer.mults[c], layer.out_zero)
        )


def test_naive_avgpool_exact():
    rng = np.random.default_rng(41)
    layer = pool_layer(rng, h=4, w=4, ch=16)
    x = qinput(rng, layer)
    for rounding in Rounding:
        out = naive_quant_layer(x.data, layer, rounding=rounding)
        for c in range(16):
            acc = int((x.data[:, :, c].astype(int) - layer.in_zero).sum())
            want = clip8(rational_requant(acc, layer.mults[c],
                                          layer.out_zero, rounding))
            assert out[0, 0, c] == want


def test_naive_add_exact():
    for seed in range(4):
        rng = np.random.default_rng(50 + seed)
        layer = add_layer(rng, h=2, w=2, ch=16)
        x1 = qinput(rng, layer)
        x2 = residual_input(rng, layer)
        p = layer.add_params
        for rounding in Rounding:
            out = naive_quant_layer(x1.data, layer, residual=x2.data,
                                    rounding=rounding)
            for idx in np.ndindex(2, 2, 16):
                a1 = (int(x1.data[idx]) - layer.in_zero) << 20
                a2 = (int(x2.data[idx]) - p.in2_zero) << 20
                t1 = rational_requant(a1, p.mults[0], 0, rounding)
                t2 = rational_requant(a2, p.mults[1], 0, rounding)
                want = clip8(rational_requant(t1 + t2, p.mults[2],
                                              layer.out_zero, rounding))
                assert out[idx] == want


def test_naive_entry_conv_exact():
    rng = np.random.default_rng(60)
    layer, x = benign_conv_case(rng, Kind.C2D)
    tiny = dataclasses.replace(layer, in_h=2, in_w=2, out_h=1, out_w=1)
    data = x.data[:2, :2]
    out = naive_quant_layer(data, tiny)
    f = tiny.filters
    for c in range(32):
        acc = int(f.biases[c])
        # taps (i, j) read input (i-1, j-1); i or j of 0 hits the padding ring
        for i in range(1, 3):
            for j in range(1, 3):
                for k in range(3):
                    acc += (int(data[i - 1, j - 1, k]) - tiny.in_zero) * (
                        int(f.weights[i, j, k, c]) - int(f.zero_points[c])
                    )
        assert out[0, 0, c] == clip8(
            rational_requant(acc, tiny.mults[c], tiny.out_zero)
        )


def test_naive_add_pass_through_and_missing_residual():
    rng = np.random.default_rng(61)
    layer = add_layer(rng)
    with pytest.raises(DomainError, match="residual"):
        naive_quant_layer(qinput(rng, layer).data, layer)
    plain = dataclasses.replace(layer, residual_from=None)
    x = qinput(rng, plain)
    np.testing.assert_array_equal(naive_quant_layer(x.data, plain), x.data)


def test_naive_accepts_qtensor_operands():
    rng = np.random.default_rng(62)
    layer = add_layer(rng)
    x1 = qinput(rng, layer)
    x2 = residual_input(rng, layer)
    np.testing.assert_array_equal(
        naive_quant_layer(x1, layer, residual=x2),
        naive_quant_layer(x1.data, layer, residual=x2.data),
    )


# ---------------------------------------------------------------------------
# whole-model pass with independent residual bookkeeping
# ---------------------------------------------------------------------------

def replay_prefix(model, image, upto, rounding):
    """Recompute the output of layer upto from scratch, recursively."""
    x = np.asarray(image, dtype=np.uint8)
    for idx in range(upto + 1):
        layer = model.layers[idx]
        residual = None
        if layer.kind is Kind.ADD and layer.residual_from is not None:
            residual = replay_prefix(model, image, layer.residual_from, rounding)
        x = naive_quant_layer(x, layer, residual=residual, rounding=rounding)
    return x


def test_run_model_naive_residual_routing():
    for seed in (0, 3, 9):
        model, qt, _ = toy_pair(seed)
        got = run_model_naive(model, qt.data)
        want = replay_prefix(model, qt.data, len(model.layers) - 1, model.rounding)
        np.testing.assert_array_equal(got, want)


def test_run_model_naive_rounding_override():
    model, qt, _ = toy_pair(5)
    a = run_model_naive(model, qt.data, rounding=Rounding.TRUNCATE)
    b = replay_prefix(model, qt.data, len(model.layers) - 1, Rounding.TRUNCATE)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# real-arithmetic reference
# ---------------------------------------------------------------------------

def test_dequantize():
    data = np.array([0, 128, 255], dtype=np.uint8)
    np.testing.assert_allclose(dequantize(data, 0.5, 128), [-64.0, 0.0, 63.5])


def test_float_layer_clamps_to_the_output_grid():
    rng = np.random.default_rng(70)
    layer, x1, x2 = benign_add_case(rng)
    big = np.full((5, 5, 16), 1e9)
    out = float_layer(big, layer, residual=big)
    hi = (255 - layer.out_zero) * layer.out_scale
    assert np.all(out == hi)
    plain = dataclasses.replace(layer, residual_from=None)
    np.testing.assert_array_equal(float_layer(big, plain), big)


def test_float_layer_linearity():
    rng = np.random.default_rng(71)
    layer, x = benign_conv_case(rng, Kind.PRO)
    xr = dequantize(x.data, layer.in_scale, layer.in_zero)
    one = float_layer(xr, layer)
    # doubling a mid-range input doubles the zero-bias response
    nobias = dataclasses.replace(layer, filters=dataclasses.replace(
        layer.filters, biases=np.zeros(layer.out_ch, dtype=np.int64)))
    wide = dataclasses.replace(nobias, out_scale=layer.out_scale * 100)
    y1 = float_layer(xr, wide)
    y2 = float_layer(2.0 * xr, wide)
    np.testing.assert_allclose(y2, 2.0 * y1, atol=1e-9)
    assert one.shape == (6, 6, 16)


def test_quantized_pipeline_tracks_float_on_benign_layers():
    rng = np.random.default_rng(72)
    layer, x = benign_conv_case(rng, Kind.DWC)
    q = naive_quant_layer(x.data, layer)
    xr = dequantize(x.data, layer.in_scale, layer.in_zero)
    real = float_layer(xr, layer)
    err = np.abs(dequantize(q, layer.out_scale, layer.out_zero) - real)
    assert err.max() <= 2 * layer.out_scale
    assert err.mean() <= 0.5 * layer.out_scale


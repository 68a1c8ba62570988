"""Acceptance suite.

One test per criterion, named test_criterion_NN_*, so `pytest -v` emits
exactly one pass/fail line for each. Every tolerance and time budget is
pinned below; nothing here adapts to the machine.
"""
from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from semistream.dataflow import run_inference
from semistream.engines import run_layer
from semistream.modelkit import (
    Kind,
    LayerDesc,
    QTensor,
    build_mobilenet_v2,
    image_to_qtensor,
    pad_channels,
    prepare,
)
from semistream.oracle import dequantize, float_layer, naive_quant_layer, run_model_naive
from semistream.perfmodel import (
    bandwidth_report,
    estimate_timeline,
    first_bandwidth_limited_round,
    normalize_performance,
    throughput_report,
    total_latency,
)
from semistream.quantcore import (
    Rounding,
    narrow_bias,
    quantize_multipliers,
    requantize_array,
)

from conftest import (
    add_layer,
    benign_add_case,
    benign_conv_case,
    c2d_layer,
    derive,
    dwc_layer,
    nearest_ties_away,
    pointwise_layer,
    pointwise_twins,
    pool_layer,
    qinput,
    random_filters,
    rational_requant,
    residual_input,
    toy_pair,
)

# pinned expectations -------------------------------------------------------

ENGINE_GOPS_100MHZ = {"C2D": 89.6, "DWC": 16.0, "PRO": 27.2, "EXP": 27.2, "ADD": 5.4}
ENGINE_GBPS_100MHZ = {"DWC": 140.8, "PRO": 233.6, "EXP": 230.4, "ADD": 12.8}
NORMALIZED_POINTS = [  # (gops, mhz, multipliers) -> normalized gops
    (38.30, 125.0, 220, 84.67),
    (18.53, 100.0, 220, 51.2),
    (20.16, 150.0, 220, 37.14),
]
NORMALIZE_TOL = 0.05
LATENCY_MS = 10.6
LATENCY_REL_TOL = 0.10
TRANSITION_ROUNDS = range(10, 14)  # compute -> bandwidth flip, inclusive window
REQUANT_PAIRS = 100_000
REQUANT_MAX_ERR = 1  # codes, against nearest(x * m) in exact arithmetic
LSB_MAX = 2.0
LSB_MEAN = 0.5
BUDGET_REPORT_S = 1.0
BUDGET_LATENCY_S = 1.0
BUDGET_TWINS_S = 30.0
BUDGET_ENGINES_S = 60.0
TWIN_LAYERS = 200
SEEDS_PER_ENGINE = 100
PIPELINE_PAIRS = 20


@pytest.fixture(scope="module")
def standard224():
    return prepare(build_mobilenet_v2(seed=0))


def test_criterion_01_engine_throughput():
    t0 = time.perf_counter()
    got = throughput_report(100.0)
    assert got == ENGINE_GOPS_100MHZ  # zero tolerance
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_REPORT_S, f"took {elapsed:.3f}s"
    print("ACCEPTANCE 01 engine throughput: PASS")


def test_criterion_02_weight_bandwidth():
    t0 = time.perf_counter()
    got = bandwidth_report(100.0)
    assert got == ENGINE_GBPS_100MHZ  # zero tolerance
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_REPORT_S, f"took {elapsed:.3f}s"
    print("ACCEPTANCE 02 weight bandwidth: PASS")


def test_criterion_03_normalized_comparison():
    for gops, mhz, mults, want in NORMALIZED_POINTS:
        got = normalize_performance(gops, mhz, mults)
        assert abs(got - want) <= NORMALIZE_TOL, f"{got} vs {want}"
    print("ACCEPTANCE 03 normalized comparison: PASS")


def test_criterion_04_latency_and_bottleneck_transition(standard224):
    t0 = time.perf_counter()
    entries = estimate_timeline(standard224)
    ms, fps = total_latency(entries)
    elapsed = time.perf_counter() - t0
    assert abs(ms - LATENCY_MS) <= LATENCY_MS * LATENCY_REL_TOL, f"{ms} ms"
    assert fps == pytest.approx(1e3 / ms)
    first = first_bandwidth_limited_round(entries)
    assert first in TRANSITION_ROUNDS, f"transition at round {first}"
    for e in entries:
        if not e.trailing and e.round_index < first:
            assert e.limiting == "compute"
    assert elapsed < BUDGET_LATENCY_S, f"took {elapsed:.3f}s"
    print(f"ACCEPTANCE 04 latency {ms:.3f} ms ({fps:.1f} f/s), "
          f"transition at round {first}: PASS")


def test_criterion_05_pointwise_orders_equivalent():
    t0 = time.perf_counter()
    for seed in range(TWIN_LAYERS):
        rng = np.random.default_rng(50_000 + seed)
        pro, exp, x = pointwise_twins(rng)
        rounding = Rounding.NEAREST if seed % 2 else Rounding.TRUNCATE
        a, _ = run_layer(x, pro, rounding=rounding)
        b, _ = run_layer(x, exp, rounding=rounding)
        np.testing.assert_array_equal(a.data, b.data)
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_TWINS_S, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 05 pointwise pass orders agree on {TWIN_LAYERS} layers: PASS")


def _padded_pointwise_case(rng, kind):
    """A non-multiple-of-16 layer, lane-padded, with its unpadded original."""
    cin = int(rng.choice([8, 24, 40]))
    cout = int(rng.choice([8, 24, 40]))
    in_scale = float(2.0 ** rng.uniform(-7.0, -4.0))
    out_scale = float(2.0 ** rng.uniform(-7.0, -4.0))
    orig = LayerDesc(
        kind=kind, in_h=4, in_w=4, in_ch=cin, out_h=4, out_w=4, out_ch=cout,
        in_scale=in_scale, in_zero=int(rng.integers(0, 256)),
        out_scale=out_scale, out_zero=int(rng.integers(0, 256)),
        filters=random_filters(rng, 1, 1, cin, cout, in_scale, out_scale),
    )
    orig = derive(orig)
    padded = derive(pad_channels(dataclasses.replace(orig)))
    data = np.full((4, 4, padded.in_ch), orig.in_zero, dtype=np.uint8)
    data[:, :, :cin] = rng.integers(0, 256, size=(4, 4, cin), dtype=np.uint8)
    x = QTensor(4, 4, padded.in_ch, data, padded.in_zero, padded.in_scale)
    return orig, padded, x


def test_criterion_06_engines_bit_exact_vs_reference():
    t0 = time.perf_counter()

    # entry convolution: random even frames plus the production size
    for seed in range(SEEDS_PER_ENGINE - 2):
        rng = np.random.default_rng(60_000 + seed)
        side = 2 * int(rng.integers(4, 17))
        layer = dataclasses.replace(
            c2d_layer(rng), in_h=side, in_w=side, out_h=side // 2, out_w=side // 2)
        x = qinput(rng, layer)
        rounding = Rounding.NEAREST if seed % 2 else Rounding.TRUNCATE
        got, _ = run_layer(x, layer, rounding=rounding)
        np.testing.assert_array_equal(
            got.data, naive_quant_layer(x.data, layer, rounding=rounding))
    for seed in (61_000, 61_001):
        rng = np.random.default_rng(seed)
        layer = c2d_layer(rng)
        x = qinput(rng, layer)
        got, _ = run_layer(x, layer)
        np.testing.assert_array_equal(got.data, naive_quant_layer(x.data, layer))

    # depthwise engine, pooling mode included, both strides exercised
    strides = []
    for seed in range(SEEDS_PER_ENGINE):
        rng = np.random.default_rng(62_000 + seed)
        rounding = Rounding.NEAREST if seed % 3 else Rounding.TRUNCATE
        if seed % 5 == 4:
            layer = pool_layer(rng, h=int(rng.integers(2, 8)),
                               w=int(rng.integers(2, 8)),
                               ch=int(rng.choice([16, 32])))
            x = qinput(rng, layer)
            got, _ = run_layer(x, layer, rounding=rounding)
        elif seed % 7 == 6:
            orig24 = derive(LayerDesc(
                kind=Kind.DWC, in_h=5, in_w=5, in_ch=24, out_h=5, out_w=5,
                out_ch=24, in_scale=0.01, in_zero=int(rng.integers(0, 256)),
                out_scale=0.02, out_zero=int(rng.integers(0, 256)), stride=1,
                filters=random_filters(rng, 3, 3, 1, 24, 0.01, 0.02)))
            layer = derive(pad_channels(dataclasses.replace(orig24)))
            x = qinput(rng, layer)
            got, _ = run_layer(x, layer, rounding=rounding)
            assert np.all(got.data[:, :, 24:] == layer.out_zero)
        else:
            layer = dwc_layer(rng)
            strides.append(layer.stride)
            x = qinput(rng, layer)
            got, _ = run_layer(x, layer, rounding=rounding)
        np.testing.assert_array_equal(
            got.data, naive_quant_layer(x.data, layer, rounding=rounding))
    assert strides.count(2) >= 15, "stride-2 draws came up short"

    # pointwise engines, lane-padded cases every fourth seed
    for kind, base in ((Kind.PRO, 64_000), (Kind.EXP, 66_000)):
        for seed in range(SEEDS_PER_ENGINE):
            rng = np.random.default_rng(base + seed)
            rounding = Rounding.TRUNCATE if seed % 2 else Rounding.NEAREST
            if seed % 4 == 3:
                orig, layer, x = _padded_pointwise_case(rng, kind)
                got, _ = run_layer(x, layer, rounding=rounding)
                np.testing.assert_array_equal(
                    got.data[:, :, : orig.out_ch],
                    naive_quant_layer(x.data[:, :, : orig.in_ch], orig,
                                      rounding=rounding))
                assert np.all(got.data[:, :, orig.out_ch:] == layer.out_zero)
            else:
                layer = pointwise_layer(rng, kind)
                x = qinput(rng, layer)
                got, _ = run_layer(x, layer, rounding=rounding)
            np.testing.assert_array_equal(
                got.data, naive_quant_layer(x.data, layer, rounding=rounding))

    # residual addition
    for seed in range(SEEDS_PER_ENGINE):
        rng = np.random.default_rng(68_000 + seed)
        layer = add_layer(rng, h=int(rng.integers(1, 7)), w=int(rng.integers(1, 7)))
        x1 = qinput(rng, layer)
        x2 = residual_input(rng, layer)
        rounding = Rounding.NEAREST if seed % 2 else Rounding.TRUNCATE
        got, _ = run_layer(x1, layer, residual=x2, rounding=rounding)
        np.testing.assert_array_equal(
            got.data,
            naive_quant_layer(x1.data, layer, residual=x2.data, rounding=rounding))

    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_ENGINES_S, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 06 engines bit-exact on {SEEDS_PER_ENGINE} seeds each: PASS")


def test_criterion_07_streaming_matches_the_oracle(standard224):
    for seed in range(PIPELINE_PAIRS):
        model, image, pixels = toy_pair(seed)
        seq = run_inference(model, image, mode="sequential")
        stream = run_inference(model, image, mode="stream")
        np.testing.assert_array_equal(stream.logits.data, seq.logits.data)
        np.testing.assert_array_equal(
            seq.logits.data, run_model_naive(model, pixels))

    rng = np.random.default_rng(42)
    pixels = rng.integers(0, 256, size=(224, 224, 3), dtype=np.uint8)
    image = image_to_qtensor(pixels, standard224)
    seq = run_inference(standard224, image, mode="sequential")
    stream = run_inference(standard224, image, mode="stream")
    np.testing.assert_array_equal(stream.logits.data, seq.logits.data)
    np.testing.assert_array_equal(
        stream.logits.data, run_model_naive(standard224, pixels))
    print(f"ACCEPTANCE 07 streaming vs oracle on {PIPELINE_PAIRS} pairs "
          f"plus the full pipeline: PASS")


def test_criterion_08_requantization_error_bound():
    rng = np.random.default_rng(8)
    log_lo, log_hi = -20.0, float(np.log2(1.0 - 2.0 ** -20))
    factors, accs = [], []
    for _ in range(REQUANT_PAIRS):
        factors.append(float(2.0 ** rng.uniform(log_lo, log_hi)))
        accs.append(int(rng.integers(-(1 << 20), (1 << 20) + 1)))
    mults, shifts = quantize_multipliers(np.array(factors))
    results = requantize_array(np.array(accs), mults, shifts).tolist()
    worst = 0
    for m, x, ms, got in zip(factors, accs, zip(mults.tolist(), shifts.tolist()), results):
        # the integer path must agree exactly with rational arithmetic
        assert got == rational_requant(x, ms)
        want = nearest_ties_away(Fraction(x) * Fraction(m))
        err = abs(got - want)
        worst = max(worst, err)
        assert err <= REQUANT_MAX_ERR, f"m={m!r} x={x}: {got} vs {want}"
    print(f"ACCEPTANCE 08 requantization within {REQUANT_MAX_ERR} code over "
          f"{REQUANT_PAIRS} pairs (worst {worst}): PASS")


def test_criterion_09_engine_outputs_track_real_arithmetic():
    cases = []
    for seed in range(2):
        rng = np.random.default_rng(90_000 + seed)
        cases.append(benign_conv_case(rng, Kind.C2D))
    for kind in (Kind.DWC, Kind.PRO, Kind.EXP):
        for seed in range(6):
            rng = np.random.default_rng(91_000 + 100 * seed + int(kind is Kind.EXP))
            stride = 2 if (kind is Kind.DWC and seed % 2) else 1
            cases.append(benign_conv_case(rng, kind, stride=stride))
    for layer, x in cases:
        got, _ = run_layer(x, layer)
        xr = dequantize(x.data, layer.in_scale, layer.in_zero)
        real = float_layer(xr, layer)
        err = np.abs(dequantize(got.data, layer.out_scale, layer.out_zero) - real)
        lsb = layer.out_scale
        assert err.max() <= LSB_MAX * lsb, f"{layer.kind}: {err.max() / lsb:.2f} LSB"
        assert err.mean() <= LSB_MEAN * lsb

    for seed in range(6):
        rng = np.random.default_rng(93_000 + seed)
        layer, x1, x2 = benign_add_case(rng)
        got, _ = run_layer(x1, layer, residual=x2)
        r1 = dequantize(x1.data, x1.scale, x1.zero_point)
        r2 = dequantize(x2.data, x2.scale, x2.zero_point)
        real = float_layer(r1, layer, residual=r2)
        err = np.abs(dequantize(got.data, layer.out_scale, layer.out_zero) - real)
        assert err.max() <= LSB_MAX * layer.out_scale
        assert err.mean() <= LSB_MEAN * layer.out_scale
    print("ACCEPTANCE 09 dequantized outputs within "
          f"{LSB_MAX}/{LSB_MEAN} LSB (max/mean): PASS")


def test_criterion_10_lossless_structure_transforms(standard224):
    # lane padding preserves every original output channel
    for kind in (Kind.PRO, Kind.EXP, Kind.DWC):
        for seed in range(3):
            rng = np.random.default_rng(100_000 + seed)
            if kind is Kind.DWC:
                orig = derive(LayerDesc(
                    kind=kind, in_h=4, in_w=4, in_ch=24, out_h=4, out_w=4,
                    out_ch=24, in_scale=0.015, in_zero=int(rng.integers(0, 256)),
                    out_scale=0.03, out_zero=int(rng.integers(0, 256)), stride=1,
                    filters=random_filters(rng, 3, 3, 1, 24, 0.015, 0.03)))
                padded = derive(pad_channels(dataclasses.replace(orig)))
                data = np.full((4, 4, 32), orig.in_zero, dtype=np.uint8)
                data[:, :, :24] = rng.integers(0, 256, size=(4, 4, 24), dtype=np.uint8)
                x = QTensor(4, 4, 32, data, padded.in_zero, padded.in_scale)
                got, _ = run_layer(x, padded)
            else:
                orig, padded, x = _padded_pointwise_case(rng, kind)
                got, _ = run_layer(x, padded)
            want = naive_quant_layer(x.data[:, :, : orig.in_ch], orig)
            np.testing.assert_array_equal(got.data[:, :, : orig.out_ch], want)
            assert np.all(got.data[:, :, orig.out_ch:] == padded.out_zero)

    # a ring of zero-point codes behaves exactly like the implicit border
    rng = np.random.default_rng(100_500)
    layer = dwc_layer(rng, h=6, w=6, ch=16, stride=1)
    x = qinput(rng, layer)
    out, _ = run_layer(x, layer)
    grown = dataclasses.replace(layer, in_h=8, in_w=8, out_h=8, out_w=8)
    framed = np.full((8, 8, 16), layer.in_zero, dtype=np.uint8)
    framed[1:7, 1:7] = x.data
    out2, _ = run_layer(QTensor(8, 8, 16, framed, layer.in_zero, layer.in_scale), grown)
    np.testing.assert_array_equal(out2.data[1:7, 1:7], out.data)

    # bias narrowing is the identity on every bias the models carry
    for l in standard224.layers:
        if l.filters is None:
            continue
        width = 18 if l.kind is Kind.PRO else 16
        for b in l.filters.biases:
            assert narrow_bias(int(b), width) == int(b)
    rng = np.random.default_rng(100_600)
    layer = pointwise_layer(rng, Kind.PRO, cin=16, cout=16)
    x = qinput(rng, layer)
    narrowed = [narrow_bias(int(b), layer.bias_bits) for b in layer.filters.biases]
    relaid = dataclasses.replace(layer, filters=dataclasses.replace(
        layer.filters, biases=np.array(narrowed, dtype=np.int64)))
    a, _ = run_layer(x, layer)
    b, _ = run_layer(x, relaid)
    np.testing.assert_array_equal(a.data, b.data)
    print("ACCEPTANCE 10 padding and bias transforms output-preserving: PASS")

"""Shared builders for the test suite.

Layer constructors assemble LayerDesc records directly and derive their
parameters with the derivation prepare() runs, so each engine can be
driven in isolation without going through graph generation. The
"benign" builders additionally calibrate the output quantization from
the layer's real response range, which is what the dequantization
error-bound tests rely on.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

from semistream.modelkit import (
    AddParams,
    BlockSpec,
    Kind,
    LayerDesc,
    ModelGraph,
    PreparedModel,
    QFilterSet,
    QTensor,
    _derive_parameters,
    build_model,
    image_to_qtensor,
    prepare,
)
from semistream.quantcore import (
    Rounding,
    pack_multipliers,
    quantize_multipliers,
)


# ---------------------------------------------------------------------------
# exact rational reference for the requantizing shift
# ---------------------------------------------------------------------------

def nearest_ties_away(q: Fraction) -> int:
    n, d = q.numerator, q.denominator
    t, r = divmod(abs(n), d)
    if 2 * r >= d:
        t += 1
    return t if n >= 0 else -t


def encode(factors, rounding: Rounding = Rounding.NEAREST) -> np.recarray:
    """Real factors in (0, 1) as the read-only packed (mult, shift) pairs
    the derivation gives them (quantize_multipliers, pack_multipliers)."""
    return pack_multipliers(*quantize_multipliers(np.array(factors, dtype=np.float64),
                                                  rounding))


def rational_requant(
    acc: int,
    ms,
    out_zero: int = 0,
    rounding: Rounding = Rounding.NEAREST,
) -> int:
    """Apply mult * 2**-shift to acc in exact rational arithmetic.

    ms is one (mult, shift) pair: one channel of a packed array,
    layer.mults[c], or a (mult, shift) tuple.
    """
    mult, shift = ms
    q = Fraction(int(acc) * int(mult), 1 << int(shift))
    if rounding is Rounding.TRUNCATE:
        return math.floor(q) + out_zero
    return nearest_ties_away(q) + out_zero


# ---------------------------------------------------------------------------
# layer construction
# ---------------------------------------------------------------------------

def conv_geometry(h: int, w: int, stride: int) -> tuple[int, int]:
    return (h - 1) // stride + 1, (w - 1) // stride + 1


def random_filters(
    rng: np.random.Generator,
    kh: int,
    kw: int,
    cin: int,
    cout: int,
    in_scale: float,
    out_scale: float,
    bias_span: int = 30000,
) -> QFilterSet:
    """Filter bank whose per-channel rescale factors land in 2^[-8, -1]."""
    m = 2.0 ** rng.uniform(-8.0, -1.0, size=cout)
    return QFilterSet(
        kernel_h=kh,
        kernel_w=kw,
        in_channels=cin,
        out_channels=cout,
        weights=rng.integers(0, 256, size=(kh, kw, cin, cout), dtype=np.uint8),
        zero_points=rng.integers(0, 256, size=cout),
        scales=m * out_scale / in_scale,
        biases=rng.integers(-bias_span, bias_span + 1, size=cout),
    )


def derive(layer: LayerDesc, rounding: Rounding = Rounding.NEAREST) -> LayerDesc:
    """A filter or pooling layer with the parameters prepare() derives.

    The derivation makes a model's filter arrays read-only. A test
    layer's are made writeable again, so a test can edit its bank in
    place before the layer first runs and compiles its record.
    """
    derived = _derive_parameters([layer], rounding)[0]
    f = derived.filters
    if f is not None:
        for a in (f.weights, f.zero_points, f.scales, f.biases):
            a.flags.writeable = True
    return derived


def c2d_layer(rng: np.random.Generator) -> LayerDesc:
    """The fixed entry shape: 224x224x3, stride 2, 32 filters."""
    in_scale = float(2.0 ** rng.uniform(-8.0, -4.0))
    out_scale = float(2.0 ** rng.uniform(-8.0, -4.0))
    layer = LayerDesc(
        kind=Kind.C2D,
        in_h=224, in_w=224, in_ch=3,
        out_h=112, out_w=112, out_ch=32,
        in_scale=in_scale, in_zero=int(rng.integers(0, 256)),
        out_scale=out_scale, out_zero=int(rng.integers(0, 256)),
        stride=2,
        filters=random_filters(rng, 3, 3, 3, 32, in_scale, out_scale, bias_span=8000),
    )
    return derive(layer)


def dwc_layer(
    rng: np.random.Generator,
    h: int | None = None,
    w: int | None = None,
    ch: int | None = None,
    stride: int | None = None,
) -> LayerDesc:
    h = int(rng.integers(2, 9)) if h is None else h
    w = int(rng.integers(2, 9)) if w is None else w
    ch = int(rng.choice([16, 32, 48])) if ch is None else ch
    stride = int(rng.choice([1, 2])) if stride is None else stride
    oh, ow = conv_geometry(h, w, stride)
    in_scale = float(2.0 ** rng.uniform(-8.0, -4.0))
    out_scale = float(2.0 ** rng.uniform(-8.0, -4.0))
    f = random_filters(rng, 3, 3, 1, ch, in_scale, out_scale)
    layer = LayerDesc(
        kind=Kind.DWC,
        in_h=h, in_w=w, in_ch=ch,
        out_h=oh, out_w=ow, out_ch=ch,
        in_scale=in_scale, in_zero=int(rng.integers(0, 256)),
        out_scale=out_scale, out_zero=int(rng.integers(0, 256)),
        stride=stride,
        filters=f,
    )
    return derive(layer)


def pool_layer(rng: np.random.Generator, h: int = 7, w: int = 7, ch: int = 16) -> LayerDesc:
    in_scale = float(2.0 ** rng.uniform(-6.0, -3.0))
    layer = LayerDesc(
        kind=Kind.AVGPOOL,
        in_h=h, in_w=w, in_ch=ch,
        out_h=1, out_w=1, out_ch=ch,
        in_scale=in_scale, in_zero=int(rng.integers(0, 256)),
        out_scale=in_scale * float(2.0 ** rng.uniform(-1.0, 1.0)),
        out_zero=int(rng.integers(0, 256)),
    )
    return derive(layer)


def pointwise_layer(
    rng: np.random.Generator,
    kind: Kind,
    h: int | None = None,
    w: int | None = None,
    cin: int | None = None,
    cout: int | None = None,
) -> LayerDesc:
    h = int(rng.integers(1, 9)) if h is None else h
    w = int(rng.integers(1, 9)) if w is None else w
    cin = int(rng.choice([16, 32, 48, 64])) if cin is None else cin
    cout = int(rng.choice([16, 32, 48, 64])) if cout is None else cout
    in_scale = float(2.0 ** rng.uniform(-8.0, -4.0))
    out_scale = float(2.0 ** rng.uniform(-8.0, -4.0))
    layer = LayerDesc(
        kind=kind,
        in_h=h, in_w=w, in_ch=cin,
        out_h=h, out_w=w, out_ch=cout,
        in_scale=in_scale, in_zero=int(rng.integers(0, 256)),
        out_scale=out_scale, out_zero=int(rng.integers(0, 256)),
        filters=random_filters(rng, 1, 1, cin, cout, in_scale, out_scale),
    )
    return derive(layer)


def pointwise_twins(rng: np.random.Generator) -> tuple[LayerDesc, LayerDesc, QTensor]:
    """One random pointwise layer expressed for both engines, plus input."""
    import dataclasses

    pro = pointwise_layer(rng, Kind.PRO)
    exp = dataclasses.replace(pro, kind=Kind.EXP)
    return pro, exp, qinput(rng, pro)


def add_layer(
    rng: np.random.Generator,
    h: int = 4,
    w: int = 4,
    ch: int = 32,
    equal_scales: bool = False,
) -> LayerDesc:
    """Residual addition with derived normalization parameters."""
    s1 = float(2.0 ** rng.uniform(-7.0, -3.0))
    s2 = s1 if equal_scales else float(2.0 ** rng.uniform(-7.0, -3.0))
    smax = max(s1, s2)
    so = s1 if equal_scales else float((s1 + s2) * 2.0 ** rng.uniform(-1.0, 1.0))
    z1 = int(rng.integers(0, 256))
    zo = z1 if equal_scales else int(rng.integers(0, 256))
    params = AddParams(
        encode([s1 / (2.0 * smax), s2 / (2.0 * smax), 2.0 * smax / ((1 << 20) * so)]),
        in2_zero=z1 if equal_scales else int(rng.integers(0, 256)),
        in2_scale=s2,
    )
    return LayerDesc(
        kind=Kind.ADD,
        in_h=h, in_w=w, in_ch=ch,
        out_h=h, out_w=w, out_ch=ch,
        in_scale=s1, in_zero=z1,
        out_scale=so, out_zero=zo,
        residual_from=0,
        add_params=params,
    )


def qinput(rng: np.random.Generator, layer: LayerDesc) -> QTensor:
    return QTensor(
        layer.in_h, layer.in_w, layer.in_ch,
        rng.integers(0, 256, size=(layer.in_h, layer.in_w, layer.in_ch), dtype=np.uint8),
        zero_point=layer.in_zero,
        scale=layer.in_scale,
    )


def residual_input(rng: np.random.Generator, layer: LayerDesc) -> QTensor:
    """Second operand of an addition, on the add_params edge."""
    p = layer.add_params
    return QTensor(
        layer.in_h, layer.in_w, layer.in_ch,
        rng.integers(0, 256, size=(layer.in_h, layer.in_w, layer.in_ch), dtype=np.uint8),
        zero_point=p.in2_zero,
        scale=p.in2_scale,
    )


# ---------------------------------------------------------------------------
# calibrated layers for dequantization error bounds
# ---------------------------------------------------------------------------

def _calibrate_edge(real: np.ndarray) -> tuple[float, int]:
    lo = float(real.min())
    hi = float(real.max())
    if hi <= lo:
        hi = lo + 1e-3
    scale = (hi - lo) / 255.0
    zero = int(np.clip(round(-lo / scale), 0, 255))
    return scale, zero


def benign_conv_case(
    rng: np.random.Generator,
    kind: Kind,
    h: int = 6,
    w: int = 6,
    cin: int = 16,
    cout: int = 16,
    stride: int = 1,
) -> tuple[LayerDesc, QTensor]:
    """A conv layer whose output quantization is calibrated to its input.

    Weights are drawn real, quantized per channel, and the output edge
    covers the pre-activation range seen on the returned input, so the
    only quantized-vs-real discrepancy left is requantization rounding.
    """
    if kind is Kind.C2D:
        kh = kw = 3
        cin, cout, stride = 3, 32, 2
        h = w = 224
    elif kind is Kind.DWC:
        kh = kw = 3
    else:
        kh = kw = 1
    depth = 1 if kind is Kind.DWC else cin
    oh, ow = conv_geometry(h, w, stride) if kh == 3 else (h, w)

    in_scale = 0.02
    in_zero = int(rng.integers(100, 156))
    wreal = rng.normal(0.0, 0.4, size=(kh, kw, depth, cout))
    w_scale = np.abs(wreal).max(axis=(0, 1, 2)) / 127.0
    w_scale = np.maximum(w_scale, 1e-4)
    wz = 128
    wq = np.clip(np.rint(wreal / w_scale + wz), 0, 255).astype(np.uint8)
    bias_real = rng.normal(0.0, 0.5, size=cout)
    bias_q = np.rint(bias_real / (in_scale * w_scale)).astype(np.int64)
    bias_q = np.clip(bias_q, -30000, 30000)

    data = rng.integers(0, 256, size=(h, w, cin), dtype=np.uint8)
    x_real = (data.astype(np.float64) - in_zero) * in_scale
    wdeq = (wq.astype(np.float64) - wz) * w_scale
    bdeq = bias_q.astype(np.float64) * in_scale * w_scale

    pad = np.pad(x_real, ((kh // 2,) * 2, (kw // 2,) * 2, (0, 0))) if kh == 3 else x_real
    real = np.zeros((oh, ow, cout))
    for i in range(kh):
        for j in range(kw):
            if kh == 3:
                patch = pad[i : i + stride * (oh - 1) + 1 : stride,
                            j : j + stride * (ow - 1) + 1 : stride]
            else:
                patch = x_real
            if kind is Kind.DWC:
                real += patch * wdeq[i, j, 0]
            else:
                real += patch @ wdeq[i, j]
    real += bdeq

    out_scale, out_zero = _calibrate_edge(real)
    out_scale = max(out_scale, float(in_scale * w_scale.max()) * 1.1)
    layer = LayerDesc(
        kind=kind,
        in_h=h, in_w=w, in_ch=cin,
        out_h=oh, out_w=ow, out_ch=cout,
        in_scale=in_scale, in_zero=in_zero,
        out_scale=out_scale, out_zero=out_zero,
        stride=stride,
        filters=QFilterSet(kh, kw, depth, cout, wq,
                           np.full(cout, wz), w_scale, bias_q),
    )
    x = QTensor(h, w, cin, data, zero_point=in_zero, scale=in_scale)
    return derive(layer), x


def benign_add_case(
    rng: np.random.Generator, h: int = 5, w: int = 5, ch: int = 16
) -> tuple[LayerDesc, QTensor, QTensor]:
    s1 = 0.015
    s2 = 0.011
    z1, z2 = 120, 140
    d1 = rng.integers(0, 256, size=(h, w, ch), dtype=np.uint8)
    d2 = rng.integers(0, 256, size=(h, w, ch), dtype=np.uint8)
    real = (d1.astype(np.float64) - z1) * s1 + (d2.astype(np.float64) - z2) * s2
    so, zo = _calibrate_edge(real)
    smax = max(s1, s2)
    params = AddParams(
        encode([s1 / (2.0 * smax), s2 / (2.0 * smax), 2.0 * smax / ((1 << 20) * so)]),
        in2_zero=z2,
        in2_scale=s2,
    )
    layer = LayerDesc(
        kind=Kind.ADD,
        in_h=h, in_w=w, in_ch=ch,
        out_h=h, out_w=w, out_ch=ch,
        in_scale=s1, in_zero=z1,
        out_scale=so, out_zero=zo,
        residual_from=0,
        add_params=params,
    )
    x1 = QTensor(h, w, ch, d1, zero_point=z1, scale=s1)
    x2 = QTensor(h, w, ch, d2, zero_point=z2, scale=s2)
    return layer, x1, x2


# ---------------------------------------------------------------------------
# whole models
# ---------------------------------------------------------------------------

def toy_blocks(rng: np.random.Generator) -> list[BlockSpec]:
    nblocks = int(rng.integers(2, 4))
    blocks = []
    ch = int(rng.integers(1, 3)) * 8
    for b in range(nblocks):
        stride = int(rng.choice([1, 2])) if b else 1
        same = bool(rng.integers(0, 2)) and stride == 1
        out_ch = ch if same else int(rng.integers(1, 3)) * 8
        blocks.append(BlockSpec(int(rng.integers(1, 4)), out_ch, stride))
        ch = out_ch
    return blocks


def toy_model(seed: int, include_head: bool = False,
              rounding: Rounding = Rounding.NEAREST) -> PreparedModel:
    rng = np.random.default_rng(seed)
    resolution = int(rng.choice([8, 12, 16]))
    graph = build_model(toy_blocks(rng), resolution,
                        seed=int(rng.integers(0, 2**31)),
                        include_head=include_head)
    return prepare(graph, rounding)


def toy_pair(seed: int) -> tuple[PreparedModel, QTensor, np.ndarray]:
    model = toy_model(seed)
    rng = np.random.default_rng(seed + 977)
    pixels = rng.integers(
        0, 256, size=(model.resolution, model.resolution, 3), dtype=np.uint8)
    return model, image_to_qtensor(pixels, model), pixels


def edit_layers(graph: ModelGraph, edit: str, at: int) -> ModelGraph:
    """graph with one edit to its layer list: "swap" layers at and at + 1,
    "drop" layer at, or "dup" (repeat) layer at.

    Edges keep their places along the chain, so dims and quantization
    still chain wherever the layers allow and only the order varies: the
    layer in position i reads edge i and writes edge i + 1. A dropped
    layer takes its output edge with it, and a repeated one reads and
    writes its own output edge. Each filter bank's scales follow its new
    edges, keeping every rescale factor in_scale * scales / out_scale, and
    shortcut sources follow the layers they name.
    """
    layers = list(graph.layers)
    edges = [(l.in_scale, l.in_zero) for l in layers] + [(layers[-1].out_scale,
                                                          layers[-1].out_zero)]
    moved = list(range(len(layers)))  # old index of the layer in each position
    if edit == "swap":
        moved[at], moved[at + 1] = moved[at + 1], moved[at]
    elif edit == "drop":
        del moved[at], edges[at + 1]
    else:
        moved.insert(at + 1, at)
        edges.insert(at + 1, edges[at + 1])
    where = {old: new for new, old in enumerate(moved)}
    out = []
    for pos, old in enumerate(moved):
        l = layers[old]
        (in_scale, in_zero), (out_scale, out_zero) = edges[pos], edges[pos + 1]
        f = l.filters
        if f is not None:
            factor = (l.in_scale * out_scale) / (l.out_scale * in_scale)
            f = dataclasses.replace(f, scales=f.scales * factor)
        r = l.residual_from
        out.append(dataclasses.replace(
            l, in_scale=in_scale, in_zero=in_zero, out_scale=out_scale, out_zero=out_zero,
            filters=f, residual_from=None if r is None else where.get(r, r)))
    return dataclasses.replace(graph, layers=out)

"""Model construction, preparation and serialization.

Builds quantized MobileNetV2-style graphs (entry 3x3 convolution, a
chain of expansion/depthwise/projection bottleneck blocks with residual
shortcuts, and an optional classification head), derives every run-time
integer parameter from the floating-point quantization scalars, pads
channel counts to the 16-lane engine width, plans the round schedule
each prepared model runs (PreparedModel.rounds), and reads/writes the
on-disk model package format. Image file loading lives here too since
images are just quantized tensors with an external encoding.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from numbers import Integral
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FormatError, PlanError, SemistreamError
from .quantcore import (
    AddParams,
    MultShift,
    Rounding,
    narrow_bias,
    quantize_multiplier,
)

PACKAGE_FORMAT_VERSION = 2
LANES = 16

#: (expand, out_channels, repeats, first_stride) rows of the standard topology.
MOBILENET_V2_SETTINGS = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)
ENTRY_FILTERS = 32
HEAD_CHANNELS = 1280
NUM_CLASSES = 1000

#: Activation scales of generated models are drawn log-uniformly from
#: [2**SCALE_LOG2_MIN, 2**SCALE_LOG2_MAX].
SCALE_LOG2_MIN = -10.0
SCALE_LOG2_MAX = -2.0


class Kind(Enum):
    """Layer kinds; each maps onto exactly one hardware engine."""

    C2D = "C2D"
    DWC = "DWC"
    EXP = "EXP"
    PRO = "PRO"
    ADD = "ADD"
    AVGPOOL = "AVGPOOL"


#: Engine that executes each layer kind (average pooling runs on DWC).
ENGINE_FOR_KIND = {
    Kind.C2D: "C2D",
    Kind.DWC: "DWC",
    Kind.EXP: "EXP",
    Kind.PRO: "PRO",
    Kind.ADD: "ADD",
    Kind.AVGPOOL: "DWC",
}

#: Kernel side of each filter-bearing kind; ADD and AVGPOOL carry no filters.
_KERNEL_SIDE = {Kind.C2D: 3, Kind.DWC: 3, Kind.EXP: 1, Kind.PRO: 1}


def pad16(n: int) -> int:
    """Round a channel count up to the next multiple of 16."""
    return (int(n) + LANES - 1) // LANES * LANES


@dataclass(eq=False)
class QTensor:
    """Quantized activation tensor: uint8 data plus its quantization."""

    height: int
    width: int
    channels: int
    data: np.ndarray
    zero_point: int
    scale: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.data.shape != (self.height, self.width, self.channels):
            raise DomainError(
                f"tensor data shape {self.data.shape} does not match "
                f"({self.height}, {self.width}, {self.channels})"
            )
        if not (0 <= self.zero_point <= 255):
            raise DomainError(f"zero point {self.zero_point} outside [0, 255]")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"scale {self.scale!r} must be positive and finite")

    def __eq__(self, other):
        if not isinstance(other, QTensor):
            return NotImplemented
        return (
            (self.height, self.width, self.channels, self.zero_point) ==
            (other.height, other.width, other.channels, other.zero_point)
            and self.scale == other.scale
            and np.array_equal(self.data, other.data)
        )


@dataclass(eq=False)
class QFilterSet:
    """Quantized filter bank with per-output-channel parameters.

    weights has shape (kernel_h, kernel_w, in_channels, out_channels);
    depthwise banks use in_channels == 1 with one filter per channel.
    """

    kernel_h: int
    kernel_w: int
    in_channels: int
    out_channels: int
    weights: np.ndarray
    zero_points: np.ndarray
    scales: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.uint8)
        if np.asarray(self.zero_points).dtype.kind not in "iu":
            raise DomainError("weight zero points must be integers")
        self.zero_points = np.asarray(self.zero_points, dtype=np.int64)
        self.scales = np.asarray(self.scales, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.int64)
        shape = (self.kernel_h, self.kernel_w, self.in_channels, self.out_channels)
        if self.weights.shape != shape:
            raise DomainError(f"weights shape {self.weights.shape} != {shape}")
        for name, v in (
            ("zero_points", self.zero_points),
            ("scales", self.scales),
            ("biases", self.biases),
        ):
            if v.shape != (self.out_channels,):
                raise DomainError(f"{name} must have one entry per output channel")
        if np.any(self.zero_points < 0) or np.any(self.zero_points > 255):
            raise DomainError("weight zero points must lie in [0, 255]")

    def __eq__(self, other):
        if not isinstance(other, QFilterSet):
            return NotImplemented
        return (
            (self.kernel_h, self.kernel_w, self.in_channels, self.out_channels)
            == (other.kernel_h, other.kernel_w, other.in_channels, other.out_channels)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.zero_points, other.zero_points)
            and np.array_equal(self.scales, other.scales)
            and np.array_equal(self.biases, other.biases)
        )


@dataclass(eq=False)
class LayerDesc:
    """One layer of the graph plus everything its engine needs to run it."""

    kind: Kind
    in_h: int
    in_w: int
    in_ch: int
    out_h: int
    out_w: int
    out_ch: int
    in_scale: float
    in_zero: int
    out_scale: float
    out_zero: int
    stride: int = 1
    filters: QFilterSet | None = None
    block: int | None = None
    residual_from: int | None = None
    bias_bits: int = 16
    orig_in_ch: int = 0
    orig_out_ch: int = 0
    # derived from the fields above by prepare() and load_package()
    mults: list[MultShift] | None = None
    add_params: AddParams | None = None
    apass: int = 0
    fpass: int = 0
    # (mults, int64 multipliers, int64 shifts), built by mult_vectors()
    _mult_vectors: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.orig_in_ch == 0:
            self.orig_in_ch = self.in_ch
        if self.orig_out_ch == 0:
            self.orig_out_ch = self.out_ch

    def __eq__(self, other):
        if not isinstance(other, LayerDesc):
            return NotImplemented
        plain = (
            "kind in_h in_w in_ch out_h out_w out_ch in_scale in_zero out_scale "
            "out_zero stride block residual_from bias_bits orig_in_ch orig_out_ch "
            "mults add_params apass fpass"
        ).split()
        return all(getattr(self, f) == getattr(other, f) for f in plain) and (
            self.filters == other.filters
        )

    def mult_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """``mults`` as read-only int64 multiplier and shift vectors.

        Built on first use and again whenever ``mults`` is reassigned, so
        the engines convert the MultShift list once per layer, not per call.
        """
        cached = self._mult_vectors
        if cached is None or cached[0] is not self.mults:
            mults = np.array([m.mult for m in self.mults], dtype=np.int64)
            shifts = np.array([m.shift for m in self.mults], dtype=np.int64)
            mults.flags.writeable = shifts.flags.writeable = False
            cached = self._mult_vectors = (self.mults, mults, shifts)
        return cached[1], cached[2]


@dataclass(eq=False)
class ModelGraph:
    """Raw generated graph, before preparation."""

    layers: list[LayerDesc]
    resolution: int
    width_multiplier: float = 1.0
    seed: int | None = None

    @property
    def num_blocks(self) -> int:
        return len({l.block for l in self.layers if l.block is not None})


@dataclass(eq=False)
class PreparedModel:
    """Graph with padded channels and all integer parameters derived."""

    layers: list[LayerDesc]
    resolution: int
    width_multiplier: float
    seed: int | None
    rounding: Rounding

    @property
    def num_blocks(self) -> int:
        return len({l.block for l in self.layers if l.block is not None})

    @property
    def entry_quant(self) -> tuple[float, int]:
        """(scale, zero_point) the input image must carry."""
        first = self.layers[0]
        return first.in_scale, first.in_zero

    @property
    def residual_table(self) -> dict[int, int]:
        """Shortcut addition layer index -> index of its residual source."""
        return {i: l.residual_from for i, l in enumerate(self.layers)
                if l.residual_from is not None}

    @property
    def residual_sources(self) -> set[int]:
        return set(self.residual_table.values())

    @cached_property
    def rounds(self) -> list[RoundPlan]:
        """The round plan, built on first use; never saved, not part of ==."""
        return schedule_rounds(self)

    def __eq__(self, other):
        if not isinstance(other, PreparedModel):
            return NotImplemented
        return (
            self.resolution == other.resolution
            and self.width_multiplier == other.width_multiplier
            and self.seed == other.seed
            and self.rounding == other.rounding
            and len(self.layers) == len(other.layers)
            and all(a == b for a, b in zip(self.layers, other.layers))
        )


# ---------------------------------------------------------------------------
# graph generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """One bottleneck block: expansion factor, output channels, stride."""

    expand: int
    out_ch: int
    stride: int


def _expand_settings(settings, width: float) -> list[BlockSpec]:
    blocks = []
    for t, c, n, s in settings:
        scaled = c * width
        if abs(scaled - round(scaled)) > 1e-9:
            raise DomainError(
                f"width multiplier {width} gives non-integer channel count {scaled}"
            )
        for i in range(n):
            blocks.append(BlockSpec(t, int(round(scaled)), s if i == 0 else 1))
    return blocks


def _rand_scale(rng) -> float:
    return float(2.0 ** rng.uniform(SCALE_LOG2_MIN, SCALE_LOG2_MAX))


def _rand_zero(rng) -> int:
    return int(rng.integers(0, 256))


def _conv_out_side(side: int, stride: int) -> int:
    # 3x3 kernel with one ring of zero-point padding
    return (side - 1) // stride + 1


def _gen_filters(rng, kh, kw, cin, cout, in_scale, out_scale, bias_span) -> QFilterSet:
    weights = rng.integers(0, 256, size=(kh, kw, cin, cout), dtype=np.uint8)
    zps = rng.integers(0, 256, size=cout, dtype=np.int64)
    # draw the per-channel rescale factor and back out the weight scale,
    # keeping every derived factor safely inside (0, 1)
    m = 2.0 ** rng.uniform(-8.0, -1.0, size=cout)
    scales = m * out_scale / in_scale
    biases = rng.integers(-bias_span, bias_span + 1, size=cout, dtype=np.int64)
    return QFilterSet(kh, kw, cin, cout, weights, zps, scales, biases)


def build_model(
    blocks: list[BlockSpec],
    resolution: int,
    seed: int = 0,
    include_head: bool = True,
    head_channels: int = HEAD_CHANNELS,
    classes: int = NUM_CLASSES,
    width_multiplier: float = 1.0,
) -> ModelGraph:
    """Build a seeded random quantized graph from bottleneck block specs.

    The entry layer is always the specialized 3x3 stride-2 convolution
    from 3 image channels to 32. Residual shortcuts appear on every
    stride-1 block whose input and output channel counts match.
    """
    if resolution < 4 or resolution % 2:
        raise DomainError(f"resolution {resolution} must be even and at least 4")
    if seed < 0:
        raise DomainError(f"seed {seed} must be non-negative")
    if not blocks:
        raise DomainError("at least one bottleneck block is required")
    for b in blocks:
        if b.expand < 1 or b.out_ch < 1 or b.stride not in (1, 2):
            raise DomainError(f"bad block spec {b}")

    rng = np.random.default_rng(seed)
    layers: list[LayerDesc] = []

    image_scale, image_zero = _rand_scale(rng), _rand_zero(rng)
    side = resolution
    out_side = _conv_out_side(side, 2)
    out_scale, out_zero = _rand_scale(rng), _rand_zero(rng)
    entry_filters = _gen_filters(
        rng, 3, 3, 3, ENTRY_FILTERS, image_scale, out_scale, bias_span=8192
    )
    layers.append(LayerDesc(
        kind=Kind.C2D,
        in_h=side, in_w=side, in_ch=3,
        out_h=out_side, out_w=out_side, out_ch=ENTRY_FILTERS,
        in_scale=image_scale, in_zero=image_zero,
        out_scale=out_scale, out_zero=out_zero,
        stride=2, filters=entry_filters, bias_bits=16,
    ))

    side = out_side
    cin = ENTRY_FILTERS
    prev_add_index: int | None = None

    for bi, spec in enumerate(blocks):
        in_scale, in_zero = layers[-1].out_scale, layers[-1].out_zero
        expanded = spec.expand * cin

        if spec.expand > 1:
            s, z = _rand_scale(rng), _rand_zero(rng)
            f = _gen_filters(rng, 1, 1, cin, expanded, in_scale, s, bias_span=8192)
            layers.append(LayerDesc(
                kind=Kind.EXP,
                in_h=side, in_w=side, in_ch=cin,
                out_h=side, out_w=side, out_ch=expanded,
                in_scale=in_scale, in_zero=in_zero,
                out_scale=s, out_zero=z,
                filters=f, block=bi, bias_bits=16,
            ))
            in_scale, in_zero = s, z

        dw_out = _conv_out_side(side, spec.stride)
        s, z = _rand_scale(rng), _rand_zero(rng)
        f = _gen_filters(rng, 3, 3, 1, expanded, in_scale, s, bias_span=8192)
        layers.append(LayerDesc(
            kind=Kind.DWC,
            in_h=side, in_w=side, in_ch=expanded,
            out_h=dw_out, out_w=dw_out, out_ch=expanded,
            in_scale=in_scale, in_zero=in_zero,
            out_scale=s, out_zero=z,
            stride=spec.stride, filters=f, block=bi, bias_bits=16,
        ))
        in_scale, in_zero = s, z

        s, z = _rand_scale(rng), _rand_zero(rng)
        f = _gen_filters(rng, 1, 1, expanded, spec.out_ch, in_scale, s, bias_span=60000)
        layers.append(LayerDesc(
            kind=Kind.PRO,
            in_h=dw_out, in_w=dw_out, in_ch=expanded,
            out_h=dw_out, out_w=dw_out, out_ch=spec.out_ch,
            in_scale=in_scale, in_zero=in_zero,
            out_scale=s, out_zero=z,
            filters=f, block=bi, bias_bits=18,
        ))

        has_residual = spec.stride == 1 and spec.out_ch == cin and prev_add_index is not None
        if has_residual:
            add_scale, add_zero = _rand_scale(rng), _rand_zero(rng)
        else:
            add_scale, add_zero = s, z  # pass-through keeps the projection edge
        layers.append(LayerDesc(
            kind=Kind.ADD,
            in_h=dw_out, in_w=dw_out, in_ch=spec.out_ch,
            out_h=dw_out, out_w=dw_out, out_ch=spec.out_ch,
            in_scale=s, in_zero=z,
            out_scale=add_scale, out_zero=add_zero,
            block=bi,
            residual_from=prev_add_index if has_residual else None,
        ))
        prev_add_index = len(layers) - 1
        side = dw_out
        cin = spec.out_ch

    if include_head:
        in_scale, in_zero = layers[-1].out_scale, layers[-1].out_zero
        s, z = _rand_scale(rng), _rand_zero(rng)
        f = _gen_filters(rng, 1, 1, cin, head_channels, in_scale, s, bias_span=8192)
        layers.append(LayerDesc(
            kind=Kind.EXP,
            in_h=side, in_w=side, in_ch=cin,
            out_h=side, out_w=side, out_ch=head_channels,
            in_scale=in_scale, in_zero=in_zero,
            out_scale=s, out_zero=z,
            filters=f, bias_bits=16,
        ))
        in_scale, in_zero = s, z
        # pooled edge scale sits above in_scale/(H*W) so the pooling
        # rescale factor cannot leave (0, 1) at any frame size
        pool_scale = in_scale * float(2.0 ** rng.uniform(0.1, 2.0)) / (side * side)
        pool_zero = _rand_zero(rng)
        layers.append(LayerDesc(
            kind=Kind.AVGPOOL,
            in_h=side, in_w=side, in_ch=head_channels,
            out_h=1, out_w=1, out_ch=head_channels,
            in_scale=in_scale, in_zero=in_zero,
            out_scale=pool_scale, out_zero=pool_zero,
        ))
        s, z = _rand_scale(rng), _rand_zero(rng)
        f = _gen_filters(rng, 1, 1, head_channels, classes, pool_scale, s, bias_span=60000)
        layers.append(LayerDesc(
            kind=Kind.PRO,
            in_h=1, in_w=1, in_ch=head_channels,
            out_h=1, out_w=1, out_ch=classes,
            in_scale=pool_scale, in_zero=pool_zero,
            out_scale=s, out_zero=z,
            filters=f, bias_bits=18,
        ))

    return ModelGraph(layers=layers, resolution=resolution,
                      width_multiplier=width_multiplier, seed=seed)


def build_mobilenet_v2(
    width_multiplier: float = 1.0,
    resolution: int = 224,
    seed: int = 0,
) -> ModelGraph:
    """Standard 17-block topology with seeded random quantized parameters.

    resolution must be divisible by 32. Block channel counts scale with
    the width multiplier and must stay integral; the entry convolution
    is pinned to 32 filters by its specialized engine.
    """
    if resolution % 32:
        raise DomainError(f"resolution {resolution} is not divisible by 32")
    if not 0 < width_multiplier < math.inf:
        raise DomainError(f"width multiplier {width_multiplier} must be positive and finite")
    blocks = _expand_settings(MOBILENET_V2_SETTINGS, width_multiplier)
    head = HEAD_CHANNELS
    if width_multiplier > 1.0:
        scaled = HEAD_CHANNELS * width_multiplier
        if abs(scaled - round(scaled)) > 1e-9:
            raise DomainError("width multiplier gives a non-integer head width")
        head = int(round(scaled))
    return build_model(
        blocks, resolution, seed=seed, include_head=True,
        head_channels=head, classes=NUM_CLASSES, width_multiplier=width_multiplier,
    )


# ---------------------------------------------------------------------------
# validation, padding and preparation
# ---------------------------------------------------------------------------

def validate_graph(graph: ModelGraph | PreparedModel) -> None:
    """Check sizes, dimension chaining, edge quantization and filters.

    Also accepts a prepared model, whose padded channels chain the same way.
    """
    layers = graph.layers
    if not layers:
        raise DomainError("graph has no layers")
    for idx, l in enumerate(layers):
        sizes = (l.in_h, l.in_w, l.in_ch, l.out_h, l.out_w, l.out_ch,
                 l.stride, l.orig_in_ch, l.orig_out_ch)
        if not all(isinstance(v, Integral) and v > 0 for v in sizes):
            raise DomainError(f"layer {idx} sizes must be positive integers")
        if not (0 < l.in_scale and 0 < l.out_scale):
            raise DomainError(f"layer {idx} has a non-positive scale")
        if not all(isinstance(z, Integral) and 0 <= z <= 255 for z in (l.in_zero, l.out_zero)):
            raise DomainError(f"layer {idx} zero point outside [0, 255]")
        if idx > 0:
            prev = layers[idx - 1]
            if (l.in_h, l.in_w, l.in_ch) != (prev.out_h, prev.out_w, prev.out_ch):
                raise DomainError(
                    f"layer {idx} input {(l.in_h, l.in_w, l.in_ch)} does not chain "
                    f"from layer {idx - 1} output {(prev.out_h, prev.out_w, prev.out_ch)}"
                )
            if l.in_scale != prev.out_scale or l.in_zero != prev.out_zero:
                raise DomainError(f"layer {idx} input quantization disagrees with its edge")
        if l.kind in (Kind.C2D, Kind.DWC):
            expect = _conv_out_side(l.in_h, l.stride), _conv_out_side(l.in_w, l.stride)
            if (l.out_h, l.out_w) != expect:
                raise DomainError(f"layer {idx} output dims do not match stride {l.stride}")
        if l.kind in (Kind.EXP, Kind.PRO) and (l.out_h, l.out_w) != (l.in_h, l.in_w):
            raise DomainError(f"pointwise layer {idx} must preserve spatial dims")
        if l.kind in (Kind.DWC, Kind.AVGPOOL) and l.out_ch != l.in_ch:
            raise DomainError(f"layer {idx} must preserve its channel count")
        if l.kind is Kind.ADD and (l.in_h, l.in_w, l.in_ch) != (l.out_h, l.out_w, l.out_ch):
            raise DomainError(f"addition layer {idx} must preserve dims")
        if l.residual_from is not None:
            r = l.residual_from
            if not (l.kind is Kind.ADD and isinstance(r, Integral) and 0 <= r < idx):
                raise DomainError(f"layer {idx} residual source {r!r} invalid")
            src = layers[r]
            if (src.out_h, src.out_w, src.out_ch) != (l.in_h, l.in_w, l.in_ch):
                raise DomainError(f"layer {idx} residual dims do not match its input")
        elif l.kind is Kind.ADD and (l.in_scale, l.in_zero) != (l.out_scale, l.out_zero):
            raise DomainError(f"pass-through layer {idx} must keep its input edge")
        side, f = _KERNEL_SIDE.get(l.kind), l.filters
        if (side is None) != (f is None):
            need = "need" if side else "carry no"
            raise DomainError(f"layer {idx}: {l.kind.value} layers {need} filters")
        if f is not None:
            expect = (side, side, 1 if l.kind is Kind.DWC else l.in_ch, l.out_ch)
            if (f.kernel_h, f.kernel_w, f.in_channels, f.out_channels) != expect:
                raise DomainError(f"layer {idx} filter bank does not match the layer")
    first = layers[0]
    if (first.in_h, first.in_w) != (graph.resolution, graph.resolution):
        raise DomainError(f"resolution {graph.resolution!r} does not match the entry layer")


def pad_channels(layer: LayerDesc) -> LayerDesc:
    """Pad a conv layer's channel and filter counts to multiples of 16.

    Added weight positions hold the owning filter's zero point, added
    filters are all-zero-point with zero bias, so padded positions
    contribute exactly nothing to any accumulator and padded output
    channels emit exactly the output zero point. Idempotent.
    """
    if layer.kind not in (Kind.EXP, Kind.PRO, Kind.DWC):
        raise DomainError(f"channel padding applies to EXP/PRO/DWC, not {layer.kind.value}")
    cin_p = pad16(layer.in_ch)
    cout_p = pad16(layer.out_ch)
    if cin_p == layer.in_ch and cout_p == layer.out_ch:
        return dataclasses.replace(layer)  # a copy: derivation writes into it
    f = layer.filters
    synthetic_scale = 0.5 * layer.out_scale / layer.in_scale
    if layer.kind is Kind.DWC:
        weights = np.zeros((3, 3, 1, cout_p), dtype=np.uint8)
        weights[:, :, :, : f.out_channels] = f.weights
        new_cin = 1
    else:
        weights = np.zeros((1, 1, cin_p, cout_p), dtype=np.uint8)
        weights[:, :, : f.in_channels, : f.out_channels] = f.weights
        # padded input channels on real filters carry that filter's zero
        # point so any activation value there contributes zero
        weights[:, :, f.in_channels :, : f.out_channels] = f.zero_points[None, None, None, :]
        new_cin = cin_p
    zps = np.zeros(cout_p, dtype=np.int64)
    zps[: f.out_channels] = f.zero_points
    scales = np.full(cout_p, synthetic_scale, dtype=np.float64)
    scales[: f.out_channels] = f.scales
    biases = np.zeros(cout_p, dtype=np.int64)
    biases[: f.out_channels] = f.biases
    padded = QFilterSet(f.kernel_h, f.kernel_w, new_cin, cout_p, weights, zps, scales, biases)
    return dataclasses.replace(
        layer,
        in_ch=cin_p, out_ch=cout_p, filters=padded,
        orig_in_ch=layer.orig_in_ch, orig_out_ch=layer.orig_out_ch,
    )


def _derive_add_params(layer: LayerDesc, source: LayerDesc, rounding: Rounding) -> AddParams:
    s1 = layer.in_scale
    s2 = source.out_scale
    so = layer.out_scale
    smax = max(s1, s2)
    m1 = s1 / (2.0 * smax)
    m2 = s2 / (2.0 * smax)
    m3 = 2.0 * smax / (float(1 << 20) * so)
    if not (0.0 < m3 < 1.0):
        raise DomainError(f"addition output rescale {m3!r} outside (0, 1)")
    return AddParams(
        mult1=quantize_multiplier(m1, rounding),
        mult2=quantize_multiplier(m2, rounding),
        mult3=quantize_multiplier(m3, rounding),
        in1_zero=layer.in_zero,
        in2_zero=source.out_zero,
        out_zero=layer.out_zero,
    )


#: Bound on every accumulator magnitude: below it, every integer sum the
#: engines form is exact on their float64 GEMM carrier and in int32.
ACC_BOUND = 1 << 30


def check_acc_bound(layer: LayerDesc) -> None:
    """Raise DomainError unless every accumulator of the layer stays below ACC_BOUND.

    A filter bank of K = kh * kw * in_ch taps per output sums K products
    of two zero-corrected codes onto its bias; average pooling sums
    in_h * in_w zero-corrected codes. Addition needs no check: its
    operands are bounded by construction.
    """
    f = layer.filters
    if f is not None:
        k = f.kernel_h * f.kernel_w * f.in_channels
        worst = k * 255 * 255 + int(np.abs(f.biases).max(initial=0))
    elif layer.kind is Kind.AVGPOOL:
        worst = layer.in_h * layer.in_w * 255
    else:
        return
    if worst >= ACC_BOUND:
        raise DomainError(
            f"{layer.kind.value} layer accumulators reach {worst}, not below 2**30: "
            "integer sums would no longer be exact"
        )


def _derive_parameters(layers: list[LayerDesc], rounding: Rounding) -> None:
    """Derive every run-time integer parameter of validated, padded layers in place.

    The one derivation behind prepare() and load_package(): converts
    per-channel rescale factors to multiplier/shift pairs, checks narrow
    bias storage (16 bits, or 18 for projection layers) and the
    accumulator bound, and sets addition parameters and pass counts.
    """
    for idx, l in enumerate(layers):
        check_acc_bound(l)
        l.apass = 1 if l.kind is Kind.C2D else l.in_ch // LANES
        l.fpass = l.out_ch // LANES
        if l.kind in (Kind.C2D, Kind.DWC, Kind.EXP, Kind.PRO):
            f = l.filters
            mults = []
            for ch, (scale, bias) in enumerate(zip(f.scales.tolist(), f.biases.tolist())):
                m = l.in_scale * scale / l.out_scale
                if not (0.0 < m < 1.0):
                    raise DomainError(
                        f"layer {idx} channel {ch}: rescale factor {m!r} outside (0, 1)"
                    )
                mults.append(quantize_multiplier(m, rounding))
                narrow_bias(bias, l.bias_bits)
            l.mults = mults
        elif l.kind is Kind.AVGPOOL:
            m = l.in_scale / (float(l.in_h * l.in_w) * l.out_scale)
            if not (0.0 < m < 1.0):
                raise DomainError(f"pool layer {idx}: rescale factor {m!r} outside (0, 1)")
            ms = quantize_multiplier(m, rounding)
            l.mults = [ms] * l.out_ch
        elif l.kind is Kind.ADD and l.residual_from is not None:
            l.add_params = _derive_add_params(l, layers[l.residual_from], rounding)


class RoundPlan(NamedTuple):
    """Layer indices of one round, stage by stage.

    whole runs whole frames one after another: the entry convolution,
    block 0's expansion and the depthwise layer, or a trailing round's
    single layer. streamed is (projection, addition) or (projection,
    addition, next block's expansion), paced through queues; a trailing
    round has none.
    """

    whole: tuple[int, ...]
    streamed: tuple[int, ...] = ()

    @property
    def trailing(self) -> bool:
        return not self.streamed


def schedule_rounds(model: PreparedModel) -> list[RoundPlan]:
    """Assign every layer to its round and stage (read it as PreparedModel.rounds).

    Raises PlanError unless every layer runs in a round and the last
    round writes the final layer.
    """
    by_block: dict[int, dict[Kind, int]] = {}
    head: list[int] = []
    entry: int | None = None
    for idx, l in enumerate(model.layers):
        if l.block is not None:
            slot = by_block.setdefault(l.block, {})
            if l.kind in slot:
                raise PlanError(f"block {l.block} has two {l.kind.value} layers")
            slot[l.kind] = idx
        elif l.kind is Kind.C2D:
            if entry is not None:
                raise PlanError("more than one entry convolution")
            entry = idx
        else:
            head.append(idx)

    if entry is None:
        raise PlanError("model has no entry convolution")
    nblocks = len(by_block)
    if set(by_block) != set(range(nblocks)):
        raise PlanError("block indices are not contiguous from zero")
    plans: list[RoundPlan] = []
    for k in range(nblocks):
        slot = by_block[k]
        if Kind.DWC not in slot or Kind.PRO not in slot or Kind.ADD not in slot:
            raise PlanError(f"block {k} is missing an engine slot")
        whole = (entry, slot.get(Kind.EXP), slot[Kind.DWC]) if k == 0 else (slot[Kind.DWC],)
        # each round hosts the next block's expansion, one block ahead
        streamed = (slot[Kind.PRO], slot[Kind.ADD], by_block.get(k + 1, {}).get(Kind.EXP))
        plans.append(RoundPlan(tuple(i for i in whole if i is not None),
                               tuple(i for i in streamed if i is not None)))
    for idx in head:
        l = model.layers[idx]
        if l.kind not in (Kind.EXP, Kind.AVGPOOL, Kind.PRO):
            raise PlanError(f"layer {idx} ({l.kind.value}) cannot run as a trailing round")
        plans.append(RoundPlan((idx,)))
    missing = set(range(len(model.layers))).difference(*(p.whole + p.streamed for p in plans))
    if missing:
        raise PlanError(f"layers {sorted(missing)} run in no round")
    if (plans[-1].streamed or plans[-1].whole)[-1] != len(model.layers) - 1:
        raise PlanError("no round produced the final layer's output")
    return plans


def residual_fifo_capacity(model: PreparedModel) -> int:
    """Residual FIFO capacity in 16-lane words.

    The FIFO must hold one full projection output frame while the next
    round drains it, so it is sized by the largest projection frame in
    the network (pixels times channel batches).
    """
    best = 0
    for l in model.layers:
        if l.kind is Kind.PRO:
            best = max(best, l.out_h * l.out_w * (l.out_ch // LANES))
    if best == 0:
        raise PlanError("model has no projection layers")
    return best


def prepare(graph: ModelGraph, rounding: Rounding = Rounding.NEAREST) -> PreparedModel:
    """Derive all run-time integer parameters for a generated graph.

    Validates the graph, pads channels to the 16-lane width and runs the
    derivation load_package() shares: multiplier/shift pairs, narrow bias
    storage, the accumulator bound, addition parameters and pass counts.
    """
    validate_graph(graph)
    layers: list[LayerDesc] = []
    for layer in graph.layers:
        if layer.kind in (Kind.EXP, Kind.PRO, Kind.DWC):
            layers.append(pad_channels(layer))
        elif layer.kind in (Kind.ADD, Kind.AVGPOOL):
            layers.append(dataclasses.replace(
                layer, in_ch=pad16(layer.in_ch), out_ch=pad16(layer.out_ch)))
        else:
            layers.append(dataclasses.replace(layer))
    _derive_parameters(layers, rounding)
    return PreparedModel(
        layers=layers,
        resolution=graph.resolution,
        width_multiplier=graph.width_multiplier,
        seed=graph.seed,
        rounding=rounding,
    )


# ---------------------------------------------------------------------------
# package format
# ---------------------------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: LayerDesc fields a manifest layer entry stores under their own names.
_SCALAR_FIELDS = ("stride", "block", "residual_from", "bias_bits", "orig_in_ch",
                  "orig_out_ch", "in_scale", "in_zero", "out_scale", "out_zero")


def _blob_name(idx: int, part: str) -> str:
    """Package-relative path of a layer's blob, fixed by the layer's position."""
    return f"blobs/layer{idx:03d}.{part}.bin"


def save_package(model: PreparedModel, path: str | Path) -> Path:
    """Write a prepared model as a package directory.

    The ``manifest.json`` stores only facts, every scalar in decimal:
    geometry, quantization, per-blob checksums and the rounding mode. No
    derived parameter is stored; load_package() re-derives them all.
    Blobs are raw little-endian, named by layer position: uint8 weights,
    and biases widened to 32-bit two's complement with their logical
    width declared in the manifest. Saving the same model twice produces
    byte-identical trees.
    """
    root = Path(path)
    (root / "blobs").mkdir(parents=True, exist_ok=True)
    manifest_layers = []
    for idx, l in enumerate(model.layers):
        entry = {
            "kind": l.kind.value,
            "in": [l.in_h, l.in_w, l.in_ch],
            "out": [l.out_h, l.out_w, l.out_ch],
            "filters": None,
            **{name: getattr(l, name) for name in _SCALAR_FIELDS},
        }
        if l.filters is not None:
            f = l.filters
            wdata = f.weights.tobytes()
            bdata = f.biases.astype("<i4").tobytes()
            (root / _blob_name(idx, "weights")).write_bytes(wdata)
            (root / _blob_name(idx, "biases")).write_bytes(bdata)
            entry["filters"] = {
                "kernel": [f.kernel_h, f.kernel_w],
                "in_channels": f.in_channels,
                "out_channels": f.out_channels,
                "weights_sha256": _sha256(wdata),
                "bias_sha256": _sha256(bdata),
                "zero_points": [int(z) for z in f.zero_points],
                "scales": [float(s) for s in f.scales],
            }
        manifest_layers.append(entry)

    manifest = {
        "format_version": PACKAGE_FORMAT_VERSION,
        "family": "semistream-quantized-model",
        "resolution": model.resolution,
        "width_multiplier": model.width_multiplier,
        "seed": model.seed,
        "rounding": model.rounding.value,
        "layers": manifest_layers,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (root / "manifest.json").write_text(text)
    return root


def _load_blob(root: Path, rel: str, sha: str, expect_len: int) -> bytes:
    p = root / rel
    if not p.is_file():
        raise FormatError(f"package blob missing: {rel}")
    data = p.read_bytes()
    if len(data) != expect_len:
        raise FormatError(
            f"blob {rel} truncated or oversized: {len(data)} bytes, expected {expect_len}"
        )
    if _sha256(data) != sha:
        raise FormatError(f"blob {rel} failed its checksum")
    return data


def _load_layer(root: Path, idx: int, entry: dict) -> LayerDesc:
    """One manifest layer entry and its blobs, before validation."""
    filters = None
    fent = entry["filters"]
    if fent is not None:
        (kh, kw), cin, cout = fent["kernel"], fent["in_channels"], fent["out_channels"]
        wdata = _load_blob(
            root, _blob_name(idx, "weights"), fent["weights_sha256"], kh * kw * cin * cout
        )
        bdata = _load_blob(root, _blob_name(idx, "biases"), fent["bias_sha256"], 4 * cout)
        filters = QFilterSet(
            kh, kw, cin, cout,
            np.frombuffer(wdata, dtype=np.uint8).reshape(kh, kw, cin, cout).copy(),
            fent["zero_points"],
            fent["scales"],
            np.frombuffer(bdata, dtype="<i4").astype(np.int64),
        )
    (in_h, in_w, in_ch), (out_h, out_w, out_ch) = entry["in"], entry["out"]
    return LayerDesc(
        kind=Kind(entry["kind"]),
        in_h=in_h, in_w=in_w, in_ch=in_ch,
        out_h=out_h, out_w=out_w, out_ch=out_ch,
        filters=filters,
        **{name: entry[name] for name in _SCALAR_FIELDS},
    )


def load_package(path: str | Path) -> PreparedModel:
    """Read a package directory back into a PreparedModel.

    Blob names follow from layer positions, so the manifest cannot point
    a read outside the package. The model must pass validate_graph(), and
    every integer parameter is re-derived by the code prepare() runs.

    Raises FormatError for a malformed manifest, another format version
    (regenerate older packages) or a missing, truncated or corrupt blob;
    DomainError or RangeError when validation or derivation rejects it.
    """
    root = Path(path)
    mpath = root / "manifest.json"
    if not mpath.is_file():
        raise FormatError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(mpath.read_text())
    except ValueError as e:
        raise FormatError(f"manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise FormatError("manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != PACKAGE_FORMAT_VERSION:
        raise FormatError(
            f"unsupported package format version {version}; this reader understands "
            f"only version {PACKAGE_FORMAT_VERSION}: regenerate the package "
            "(semistream gen-model, or prepare() and save_package())"
        )
    try:
        model = PreparedModel(
            layers=[_load_layer(root, idx, entry)
                    for idx, entry in enumerate(manifest["layers"])],
            resolution=manifest["resolution"],
            width_multiplier=manifest["width_multiplier"],
            seed=manifest["seed"],
            rounding=Rounding(manifest["rounding"]),
        )
        validate_graph(model)
        _derive_parameters(model.layers, model.rounding)
    except SemistreamError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"malformed manifest: {e!r}") from e
    return model


# ---------------------------------------------------------------------------
# image files
# ---------------------------------------------------------------------------

def load_image(path: str | Path) -> np.ndarray:
    """Read an 8-bit image file into an (h, w, c) uint8 array.

    Accepts binary PPM (P6, maxval 255) or a raw blob with a one-line
    ``HWC <h> <w> <c>`` header. Header sizes must be positive integers;
    any malformed file raises FormatError.
    """
    data = Path(path).read_bytes()
    if data.startswith(b"P6"):
        return _parse_ppm(data)
    if data.startswith(b"HWC "):
        header, nl, body = data.partition(b"\n")
        parts = header.split()
        if not nl or len(parts) != 4:
            raise FormatError("raw image header must be one line 'HWC <h> <w> <c>'")
        h, w, c = _header_sizes(parts[1:], "raw image")
        if len(body) != h * w * c:
            raise FormatError(
                f"raw image body holds {len(body)} bytes, expected {h * w * c}"
            )
        return np.frombuffer(body, dtype=np.uint8).reshape(h, w, c).copy()
    raise FormatError("unrecognized image file: expected P6 PPM or HWC raw blob")


#: Longest image header size field, in digits; a longer one could never
#: match the file's body, and int() refuses strings past 4300 digits.
MAX_HEADER_DIGITS = 9


def _header_sizes(fields: list[bytes], what: str) -> list[int]:
    """Image header fields as positive decimal integers, else FormatError."""
    if not all(f.isdigit() and len(f) <= MAX_HEADER_DIGITS and int(f) > 0 for f in fields):
        shown = b" ".join(fields)[:60].decode("ascii", "replace")
        raise FormatError(f"{what} header fields must be positive integers of at most "
                          f"{MAX_HEADER_DIGITS} digits, got '{shown}'")
    return [int(f) for f in fields]


def _parse_ppm(data: bytes) -> np.ndarray:
    pos = 2  # past the magic
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated PPM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    w, h, maxval = _header_sizes(fields, "PPM")
    if maxval != 255:
        raise FormatError(f"PPM maxval {maxval} unsupported, expected 255")
    body = data[pos:]
    if len(body) != h * w * 3:
        raise FormatError(f"PPM body holds {len(body)} bytes, expected {h * w * 3}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).copy()


def save_ppm(path: str | Path, pixels: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as binary PPM."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise DomainError("PPM output needs an (h, w, 3) array")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(pixels.tobytes())


def save_raw(path: str | Path, pixels: np.ndarray) -> None:
    """Write an (h, w, c) uint8 array as a raw blob with a HWC header."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3:
        raise DomainError("raw output needs an (h, w, c) array")
    h, w, c = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"HWC {h} {w} {c}\n".encode())
        fh.write(pixels.tobytes())


def image_to_qtensor(pixels: np.ndarray, model: PreparedModel) -> QTensor:
    """Wrap image pixels in the quantization the model's entry edge expects."""
    scale, zero = model.entry_quant
    pixels = np.asarray(pixels, dtype=np.uint8)
    return QTensor(pixels.shape[0], pixels.shape[1], pixels.shape[2], pixels, zero, scale)

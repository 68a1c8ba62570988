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

import copy
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FormatError, PlanError, SemistreamError
from .quantcore import (
    ADD_PRE_SHIFT,
    Rounding,
    bias_limits,
    first_bad_factor,
    narrow_bias,
    pack_multipliers,
    quantize_multipliers,
)

PACKAGE_FORMAT_VERSION = 4
LANES = 16
#: Integer types accepted for sizes, zero points and indices, the same as
#: numbers.Integral admits; a plain tuple is several times cheaper to check.
_INT_TYPES = (int, np.integer)

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

#: Signed bit width of each engine's bias lanes; the projection engine's
#: are wider. The addition engine has no bias.
BIAS_BITS = {"C2D": 16, "DWC": 16, "PRO": 18, "EXP": 16}

#: Kernel side of each filter-bearing kind; ADD and AVGPOOL carry no filters.
_KERNEL_SIDE = {Kind.C2D: 3, Kind.DWC: 3, Kind.EXP: 1, Kind.PRO: 1}

#: The layer order validate_graph checks, for schedule_rounds to read: the
#: slot of each kind in a block, which runs [EXP] DWC PRO ADD, and the kinds
#: that may run as trailing head rounds, outside any block.
_BLOCK_SLOT = {Kind.EXP: 0, Kind.DWC: 1, Kind.PRO: 2, Kind.ADD: 3}
_HEAD_KINDS = frozenset({Kind.EXP, Kind.AVGPOOL, Kind.PRO})


def pad16(n: int) -> int:
    """Round a channel count up to the next multiple of 16."""
    return (int(n) + LANES - 1) // LANES * LANES


def _codes(data, what: str = "tensor data") -> np.ndarray:
    """data as a uint8 array, itself if it is one; DomainError unless every
    value is an integer in [0, 255] (NaN fails every comparison)."""
    a = np.asarray(data)
    if a.dtype != np.uint8 and (a.dtype.kind not in "iuf" or a.size and not (
            a.min() >= 0 and a.max() <= 255 and (a.dtype.kind != "f" or (a == a.round()).all()))):
        raise DomainError(f"{what} of {a.dtype} must hold integers in [0, 255] only")
    return a.astype(np.uint8, copy=False)


def _fields_equal(self, other):
    """== for records holding arrays: same type and every dataclass field
    equal, arrays compared by np.array_equal."""
    if type(other) is not type(self):
        return NotImplemented
    for f in dataclasses.fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                else a == b):
            return False
    return True


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
        self.data = _codes(self.data)
        if self.data.shape != (self.height, self.width, self.channels):
            raise DomainError(
                f"tensor data shape {self.data.shape} does not match "
                f"({self.height}, {self.width}, {self.channels})"
            )
        if not (0 <= self.zero_point <= 255):
            raise DomainError(f"zero point {self.zero_point} outside [0, 255]")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise DomainError(f"scale {self.scale!r} must be positive and finite")

    __eq__ = _fields_equal


@dataclass(eq=False)
class QFilterSet:
    """Quantized filter bank with per-output-channel parameters.

    weights has shape (kernel_h, kernel_w, in_channels, out_channels);
    depthwise banks use in_channels == 1 with one filter per channel.
    Weights are uint8 codes: uint8 weights are kept as they are, other
    integer or integral float weights are checked to lie in [0, 255]
    and cast, and anything else raises DomainError instead of wrapping.
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
        self.weights = _codes(self.weights, "weights")
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

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class AddParams:
    """What a shortcut addition derives beyond its own edges.

    mults is a read-only 3-row record array of (mult, shift) pairs, a
    slice of the model's one packed array (pack_multipliers), in operand
    order: the input's and the residual's rescale onto the shared
    intermediate scale, after the ADD_PRE_SHIFT headroom shift, then the
    sum's rescale onto the output (_factors). in2_zero and in2_scale are
    the residual operand's edge, its source's out_zero and out_scale.
    The input and output edges are the layer's own. Outputs clamp to
    [0, 255].
    """

    mults: np.recarray
    in2_zero: int
    in2_scale: float

    def __post_init__(self):
        if np.shape(self.mults) != (3,):
            raise DomainError("a shortcut has three rescale pairs: input, residual, output")
        if not (0 <= self.in2_zero <= 255):
            raise DomainError(f"residual zero point {self.in2_zero} outside [0, 255]")
        if not (math.isfinite(self.in2_scale) and self.in2_scale > 0):
            raise DomainError(f"residual scale {self.in2_scale} is not finite and positive")

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class LayerDesc:
    """One layer of the graph plus everything its engine needs to run it.

    Frozen: a changed layer is a new one, built with dataclasses.replace.
    """

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
    orig_in_ch: int = 0
    orig_out_ch: int = 0
    # derived by prepare() and load_package(); mults is a read-only record
    # array of one (mult, shift) pair per output channel, a slice of the
    # model's one packed array (pack_multipliers), and None on an addition,
    # whose three pairs are the slice add_params.mults
    mults: np.recarray | None = None
    add_params: AddParams | None = None

    def __post_init__(self):
        if self.orig_in_ch == 0:
            object.__setattr__(self, "orig_in_ch", self.in_ch)
        if self.orig_out_ch == 0:
            object.__setattr__(self, "orig_out_ch", self.out_ch)

    __eq__ = _fields_equal

    @property
    def apass(self) -> int:
        """Input-channel batches per pass; the entry convolution takes one."""
        return 1 if self.kind is Kind.C2D else self.in_ch // LANES

    @property
    def fpass(self) -> int:
        """Output-channel batches (filter passes)."""
        return self.out_ch // LANES

    @property
    def bias_bits(self) -> int | None:
        """Bias lane width of the layer's engine; None on the addition engine."""
        return BIAS_BITS.get(ENGINE_FOR_KIND[self.kind])


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


@dataclass(frozen=True, eq=False)
class PreparedModel:
    """Graph with padded channels and all integer parameters derived.

    Frozen: layers is a tuple (a list passed in is stored as one) of
    frozen layers, and a model from prepare() or load_package() holds
    read-only filter arrays, so it never changes once built; a changed
    model is a new one (dataclasses.replace). Its round plan, its
    validate_graph verdict and its residual sources are computed once
    per model object, on first use, and the drivers read the verdict
    instead of re-checking each engine call. prepare() and load_package()
    set the verdict themselves, since they validated those layers.
    """

    layers: tuple[LayerDesc, ...]
    resolution: int
    width_multiplier: float
    seed: int | None
    rounding: Rounding

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def num_blocks(self) -> int:
        return len({l.block for l in self.layers if l.block is not None})

    @property
    def entry_quant(self) -> tuple[float, int]:
        """(scale, zero_point) the input image must carry."""
        first = self.layers[0]
        return first.in_scale, first.in_zero

    @cached_property
    def residual_sources(self) -> frozenset[int]:
        """Indices of the layers whose output frames a shortcut reads."""
        return frozenset(l.residual_from for l in self.layers if l.residual_from is not None)

    @cached_property
    def rounds(self) -> list[RoundPlan]:
        """The round plan, built once (raising the model's verdict if it has
        one); never saved, not part of ==."""
        return schedule_rounds(self)

    @cached_property
    def verdict(self) -> SemistreamError | None:
        """validate_graph's error for this model, or None; found on first use."""
        try:
            validate_graph(self)
        except SemistreamError as e:
            return e
        return None

    def require_valid(self) -> None:
        """Raise the verdict's error, if the model has one."""
        if self.verdict is not None:
            raise self.verdict.with_traceback(None)

    __eq__ = _fields_equal


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
    # (side, channels, scale, zero point) of the newest edge; the image's first
    edge = (resolution, 3, _rand_scale(rng), _rand_zero(rng))

    def append(kind: Kind, out_ch: int, stride: int = 1, out_quant=None, **extra) -> None:
        """Append a layer of kind reading the newest edge. Draws its output
        scale and zero point, unless out_quant gives them, then its filters."""
        nonlocal edge
        side, cin, in_scale, in_zero = edge
        out_side = 1 if kind is Kind.AVGPOOL else _conv_out_side(side, stride)
        out_scale, out_zero = out_quant or (_rand_scale(rng), _rand_zero(rng))
        filters = None
        if kind in _KERNEL_SIDE:
            k = _KERNEL_SIDE[kind]
            filters = _gen_filters(rng, k, k, 1 if kind is Kind.DWC else cin, out_ch, in_scale,
                                   out_scale, bias_span=60000 if kind is Kind.PRO else 8192)
        layers.append(LayerDesc(
            kind=kind, in_h=side, in_w=side, in_ch=cin,
            out_h=out_side, out_w=out_side, out_ch=out_ch,
            in_scale=in_scale, in_zero=in_zero, out_scale=out_scale, out_zero=out_zero,
            stride=stride, filters=filters, **extra,
        ))
        edge = (out_side, out_ch, out_scale, out_zero)

    append(Kind.C2D, ENTRY_FILTERS, stride=2)
    prev_add: int | None = None
    for bi, spec in enumerate(blocks):
        cin = edge[1]
        expanded = spec.expand * cin
        if spec.expand > 1:
            append(Kind.EXP, expanded, block=bi)
        append(Kind.DWC, expanded, stride=spec.stride, block=bi)
        append(Kind.PRO, spec.out_ch, block=bi)
        shortcut = spec.stride == 1 and spec.out_ch == cin and prev_add is not None
        # a pass-through slot keeps the projection edge
        append(Kind.ADD, spec.out_ch, out_quant=None if shortcut else edge[2:], block=bi,
               residual_from=prev_add if shortcut else None)
        prev_add = len(layers) - 1

    if include_head:
        append(Kind.EXP, head_channels)
        # pooled edge scale sits above in_scale/(H*W) so the pooling
        # rescale factor cannot leave (0, 1) at any frame size
        side, _, in_scale, _ = edge
        pool_scale = in_scale * float(2.0 ** rng.uniform(0.1, 2.0)) / (side * side)
        append(Kind.AVGPOOL, head_channels, out_quant=(pool_scale, _rand_zero(rng)))
        append(Kind.PRO, classes)

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
    """Check sizes, chaining, edge quantization, shortcuts, filters and order.

    A shortcut must read the nearest earlier addition, whose frame is the
    one the residual FIFO holds. The order is the one the round plan reads:
    an optional entry convolution at layer 0, blocks 0, 1, 2, ... each
    exactly [EXP] DWC PRO ADD, then head layers outside any block, each
    EXP, AVGPOOL or PRO. Block layers need the entry convolution, which
    starts round 0. The first layer out of order raises PlanError, after
    its own DomainErrors. Also accepts a prepared model, whose padded
    channels chain the same way.
    """
    layers = graph.layers
    if not layers:
        raise DomainError("graph has no layers")
    last_add = None
    block, slot = -1, 3  # the newest block layer's; slot 3 ends a block, 4 is the head
    for idx, l in enumerate(layers):
        sizes = (l.in_h, l.in_w, l.in_ch, l.out_h, l.out_w, l.out_ch,
                 l.stride, l.orig_in_ch, l.orig_out_ch)
        if not all(isinstance(v, _INT_TYPES) and v > 0 for v in sizes):
            raise DomainError(f"layer {idx} sizes must be positive integers")
        if not (0 < l.in_scale and 0 < l.out_scale):
            raise DomainError(f"layer {idx} has a non-positive scale")
        if not all(isinstance(z, _INT_TYPES) and 0 <= z <= 255 for z in (l.in_zero, l.out_zero)):
            raise DomainError(f"layer {idx} zero point outside [0, 255]")
        if l.block is not None and not isinstance(l.block, _INT_TYPES):
            raise DomainError(f"layer {idx} block {l.block!r} is not an integer")
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
            if not (l.kind is Kind.ADD and isinstance(r, _INT_TYPES) and 0 <= r < idx):
                raise DomainError(f"layer {idx} residual source {r!r} invalid")
            src = layers[r]
            if (src.out_h, src.out_w, src.out_ch) != (l.in_h, l.in_w, l.in_ch):
                raise DomainError(f"layer {idx} residual dims do not match its input")
            if r != last_add:
                raise DomainError(
                    f"layer {idx} residual source {r} is not the nearest earlier addition")
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
        if l.kind is Kind.ADD:
            last_add = idx
        if l.block is None:
            in_order = (idx == 0 and l.kind is Kind.C2D) or (slot >= 3 and l.kind in _HEAD_KINDS)
            slot = slot if l.kind is Kind.C2D else 4
        else:
            at = _BLOCK_SLOT.get(l.kind)
            if slot < 3:  # inside a block: its next slot
                in_order = l.block == block and at == slot + 1
            else:  # the next block opens, after the entry convolution and before the head
                in_order = (slot == 3 and layers[0].kind is Kind.C2D
                            and l.block == block + 1 and at in (0, 1))
            block, slot = l.block, at
        if not in_order or (idx == len(layers) - 1 and slot < 3):
            raise PlanError(f"layer {idx} ({l.kind.value}, block {l.block}) breaks the layer "
                            "order: an optional C2D at layer 0, blocks 0, 1, ... each "
                            "[EXP] DWC PRO ADD, then EXP, AVGPOOL or PRO head layers")
    first = layers[0]
    if (first.in_h, first.in_w) != (graph.resolution, graph.resolution):
        raise DomainError(f"resolution {graph.resolution!r} does not match the entry layer")


def pad_channels(layer: LayerDesc) -> LayerDesc:
    """Pad a conv layer's channel and filter counts to multiples of 16.

    Added weight positions hold the owning filter's zero point, added
    filters are all-zero-point with zero bias, so padded positions
    contribute exactly nothing to any accumulator and padded output
    channels emit exactly the output zero point. Idempotent: a layer that
    needs no padding is returned as it is.
    """
    if layer.kind not in (Kind.EXP, Kind.PRO, Kind.DWC):
        raise DomainError(f"channel padding applies to EXP/PRO/DWC, not {layer.kind.value}")
    if pad16(layer.in_ch) == layer.in_ch and pad16(layer.out_ch) == layer.out_ch:
        return layer
    return _own_padded(layer)


def _own_padded(layer: LayerDesc) -> LayerDesc:
    """The filter layer rebuilt once, on a padded copy of its filter bank.

    Pads as pad_channels does, except the entry convolution, whose
    engine fixes its channels: it gets a plain copy. Every filter array
    is new, even where nothing is padded.
    """
    f = layer.filters
    cin_p, cout_p = layer.in_ch, layer.out_ch
    if layer.kind is not Kind.C2D:
        cin_p, cout_p = pad16(cin_p), pad16(cout_p)
    new_cin = cin_p if layer.kind in (Kind.EXP, Kind.PRO) else f.in_channels
    weights = np.empty((f.kernel_h, f.kernel_w, new_cin, cout_p), dtype=np.uint8)
    weights[:, :, : f.in_channels, : f.out_channels] = f.weights
    # padded input channels on real filters carry that filter's zero
    # point so any activation value there contributes zero
    weights[:, :, f.in_channels :, : f.out_channels] = f.zero_points
    weights[..., f.out_channels :] = 0
    zps = np.zeros(cout_p, dtype=np.int64)
    zps[: f.out_channels] = f.zero_points
    scales = np.full(cout_p, 0.5 * layer.out_scale / layer.in_scale, dtype=np.float64)
    scales[: f.out_channels] = f.scales
    biases = np.zeros(cout_p, dtype=np.int64)
    biases[: f.out_channels] = f.biases
    own = copy.copy(f)  # every array below already has its checked dtype and shape
    own.in_channels, own.out_channels = new_cin, cout_p
    own.weights, own.zero_points, own.scales, own.biases = weights, zps, scales, biases
    return dataclasses.replace(layer, in_ch=cin_p, out_ch=cout_p, filters=own)


#: Bound on every accumulator magnitude: below it, every accumulator fits
#: int32 and stays exact in the int64 bank that PRO and EXP add their
#: float32 GEMM slices of K_CHUNK rows into (engines.fold_gemm).
ACC_BOUND = 1 << 30


def check_acc_bound(layer: LayerDesc) -> int | None:
    """The bound on every |accumulator| of the layer, checked below ACC_BOUND.

    A filter bank of K = kh * kw * in_ch taps per output sums K products
    of a code (raw or zero-corrected) and a zero-corrected weight, each
    at most 255**2 in magnitude, onto its bias; average pooling sums
    in_h * in_w zero-corrected codes. Raises DomainError when that bound
    reaches ACC_BOUND. Returns None for a layer without accumulators.
    Addition has its own bound on the sum of its operand tables, checked
    once when its record is compiled (engines.compile_records).
    """
    f = layer.filters
    if f is not None:
        k = f.kernel_h * f.kernel_w * f.in_channels
        worst = k * 255 * 255 + int(np.abs(f.biases).max(initial=0))
    elif layer.kind is Kind.AVGPOOL:
        worst = layer.in_h * layer.in_w * 255
    else:
        return None
    if worst >= ACC_BOUND:
        raise DomainError(
            f"{layer.kind.value} layer accumulators reach {worst}, not below 2**30: "
            "integer sums would no longer be exact"
        )
    return worst


def _factors(l: LayerDesc, layers: list[LayerDesc]) -> np.ndarray | None:
    """The layer's rescale factors, in channel or operand order; None if it has none.

    A filter bank has one per output channel, a pooling layer one per
    channel, all equal, and a shortcut addition three: its input's, its
    residual's (each onto the shared intermediate scale) and its output's.
    """
    if l.kind in _KERNEL_SIDE:
        with np.errstate(all="ignore"):  # nan and inf factors are rejected later
            return l.in_scale * l.filters.scales / l.out_scale
    if l.kind is Kind.AVGPOOL:
        return np.full(l.out_ch, l.in_scale / (float(l.in_h * l.in_w) * l.out_scale))
    if l.kind is Kind.ADD and l.residual_from is not None:
        s1, s2, so = l.in_scale, layers[l.residual_from].out_scale, l.out_scale
        smax = max(s1, s2)
        return np.array((s1 / (2.0 * smax), s2 / (2.0 * smax),
                         2.0 * smax / (float(1 << ADD_PRE_SHIFT) * so)))
    return None


def _derive_parameters(layers: list[LayerDesc], rounding: Rounding) -> list[LayerDesc]:
    """Validated, padded layers with every run-time integer parameter derived.

    The one derivation behind prepare() and load_package(), in
    whole-model passes. Every filter bank's and pooling layer's rescale
    factors and every shortcut addition's three are concatenated in
    layer order and encoded once (first_bad_factor, quantize_multipliers,
    pack_multipliers): the model has one read-only array of multiplier/
    shift pairs, and each layer's mults, or each shortcut's
    AddParams.mults, is a read-only slice of it. Every bias is checked
    against its engine's lane width (BIAS_BITS) in one pass over all
    banks. Errors keep the order of a layer-by-layer derivation: the
    earliest failing layer is the one named, and within a layer the
    accumulator bound comes before the rescale factors, which come
    before the biases; within each, the first bad channel is named.
    Each layer that gains a parameter is a new one (dataclasses.replace).
    Every filter array is made read-only in place, so a compiled engine
    record can never go stale: the caller hands over arrays nothing
    else writes (prepare() copies those it shares with its graph).
    """
    acc_fault = None
    factors, starts, ends = [], [], []
    banks, biases, limits = [], [], []
    end = 0
    for idx, l in enumerate(layers):
        try:
            check_acc_bound(l)
        except DomainError as e:  # raised below unless an earlier layer fails first
            acc_fault = e
            break
        if l.kind in _KERNEL_SIDE:
            f = l.filters
            for a in (f.weights, f.zero_points, f.scales, f.biases):
                a.flags.writeable = False
            banks.append(idx)
            biases.append(f.biases)
            limits.append(bias_limits(l.bias_bits))
        m = _factors(l, layers)
        starts.append(end)
        if m is not None:
            factors.append(m)
            end += m.size
        ends.append(end)
    m = np.concatenate(factors) if factors else np.empty(0)
    fault = first_bad_factor(m)
    at = len(starts) if fault is None else int(np.searchsorted(ends, fault[0], side="right"))
    b = np.concatenate(biases) if biases else np.empty(0, np.int64)
    sizes = [a.size for a in biases]
    lim = np.repeat(np.array(limits, np.int64).reshape(-1, 2), sizes, axis=0)
    wide = (b < lim[:, 0]) | (b > lim[:, 1])
    if wide.any():
        i = int(wide.argmax())
        bank = int(np.searchsorted(np.cumsum(sizes), i, side="right"))
        if banks[bank] < at:
            narrow_bias(b[i], layers[banks[bank]].bias_bits)  # raises
    if fault is not None:
        l, c = layers[at], fault[0] - starts[at]
        part = ("input", "residual", "output")[c] if l.kind is Kind.ADD else None
        where = (f"pool layer {at}" if l.kind is Kind.AVGPOOL else
                 f"addition layer {at} {part}" if part else f"layer {at} channel {c}")
        raise DomainError(f"{where}: {fault[1]}")
    if acc_fault is not None:
        raise acc_fault
    mults, shifts = quantize_multipliers(m, rounding)
    # each layer views a slice of the plain array: slicing a recarray costs ten times more
    rows = pack_multipliers(mults, shifts).view(np.ndarray)
    derived = []
    for l, s, e in zip(layers, starts, ends):
        if l.kind is Kind.ADD and s < e:
            source = layers[l.residual_from]
            l = dataclasses.replace(l, add_params=AddParams(
                rows[s:e].view(np.recarray), source.out_zero, source.out_scale))
        elif s < e:
            l = dataclasses.replace(l, mults=rows[s:e].view(np.recarray))
        derived.append(l)
    return derived


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

    Raises the model's validate_graph verdict, then reads the order that
    check enforces: each block is one round, and each later layer (each
    layer, in a model without blocks) is one trailing round.
    """
    model.require_valid()
    by_block: dict[int, dict[Kind, int]] = {}
    for idx, l in enumerate(model.layers):
        if l.block is not None:
            by_block.setdefault(l.block, {})[l.kind] = idx
    plans: list[RoundPlan] = []
    for k, slot in by_block.items():
        whole = (0, slot.get(Kind.EXP), slot[Kind.DWC]) if k == 0 else (slot[Kind.DWC],)
        # each round hosts the next block's expansion, one block ahead
        streamed = (slot[Kind.PRO], slot[Kind.ADD], by_block.get(k + 1, {}).get(Kind.EXP))
        plans.append(RoundPlan(tuple(i for i in whole if i is not None),
                               tuple(i for i in streamed if i is not None)))
    # the head layers follow the last block's addition, or start the model
    head = plans[-1].streamed[-1] + 1 if plans else 0
    plans += [RoundPlan((idx,)) for idx in range(head, len(model.layers))]
    return plans


def residual_fifo_capacity(model: PreparedModel) -> int:
    """Residual FIFO capacity in 16-lane words; 0 for a model without shortcuts.

    A shortcut source's round puts its whole output frame into the FIFO,
    and the shortcut's round, which runs later on the same addition
    chain, takes each residual run before it puts its own output, so the
    FIFO holds at most one source frame at a time. It is sized by the
    largest frame among model.residual_sources (pixels times channel
    batches).
    """
    frames = (model.layers[i].out_h * model.layers[i].out_w * model.layers[i].fpass
              for i in model.residual_sources)
    return max(frames, default=0)


def prepare(graph: ModelGraph, rounding: Rounding = Rounding.NEAREST) -> PreparedModel:
    """Derive all run-time integer parameters for a generated graph.

    Validates the graph, pads channels to the 16-lane width and runs the
    derivation load_package() shares: multiplier/shift pairs, narrow bias
    storage, the accumulator bound and addition parameters. Each filter
    layer is rebuilt once, on its own padded copy of the bank, so the
    model's arrays are read-only and the graph's stay writeable; an
    addition or pooling layer is rebuilt only if its channels need
    padding. Sets the model's verdict, as load_package() does, since
    padding keeps what validate_graph checked.
    """
    validate_graph(graph)
    layers: list[LayerDesc] = []
    for layer in graph.layers:
        if layer.filters is not None:
            layer = _own_padded(layer)
        elif pad16(layer.in_ch) != layer.in_ch or pad16(layer.out_ch) != layer.out_ch:
            layer = dataclasses.replace(
                layer, in_ch=pad16(layer.in_ch), out_ch=pad16(layer.out_ch))
        layers.append(layer)
    model = PreparedModel(
        layers=_derive_parameters(layers, rounding),
        resolution=graph.resolution,
        width_multiplier=graph.width_multiplier,
        seed=graph.seed,
        rounding=rounding,
    )
    # padding keeps what validate_graph checked: channels are padded alike
    # along the chain, banks with them, and edges and order are unchanged;
    # only an entry convolution's channels stay as they are, which breaks
    # the chain where its engine's 32 would not
    entry = layers[0]
    if entry.kind is not Kind.C2D or entry.out_ch == pad16(entry.out_ch):
        model.__dict__["verdict"] = None
    return model


# ---------------------------------------------------------------------------
# package format
# ---------------------------------------------------------------------------

def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


#: LayerDesc fields a manifest layer entry stores under their own names.
_SCALAR_FIELDS = ("stride", "block", "residual_from", "orig_in_ch", "orig_out_ch",
                  "in_scale", "in_zero", "out_scale", "out_zero")

#: The package's one blob file: each filter bank's regions, in layer order.
BLOB_FILE = "blobs.bin"

#: The regions of one filter bank, in file order: (QFilterSet field, prefix
#: of its manifest checksum key, stored dtype). Zero points fit uint8
#: because QFilterSet bounds them to [0, 255]; biases fit 32 bits because
#: every engine's bias lane (BIAS_BITS) is narrower.
_BANK_REGIONS = (
    ("weights", "weights", "u1"),
    ("zero_points", "zero_points", "u1"),
    ("scales", "scales", "<f8"),
    ("biases", "bias", "<i4"),
)


def save_package(model: PreparedModel, path: str | Path) -> Path:
    """Write a prepared model as a package directory of two files.

    ``manifest.json`` stores only per-layer facts, every scalar in
    decimal, on one line: geometry, edge quantization, each filter bank's
    kernel and channel counts with a sha-256 per blob region, and the
    rounding mode. It holds no per-channel number. No derived parameter
    is stored; load_package() re-derives them all. ``blobs.bin`` holds,
    for each filter-bearing layer in order, four regions in QFilterSet
    field order (_BANK_REGIONS): uint8 weights, uint8 zero points,
    little-endian float64 scales and biases widened to little-endian
    32-bit two's complement. No offset is stored: each region's place
    and length follow from the manifest's geometry. Pass counts and bias
    widths follow from each layer's engine and are never stored. Saving
    the same model twice produces byte-identical trees.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest_layers = []
    with (root / BLOB_FILE).open("wb") as fh:
        for l in model.layers:
            entry = {
                "kind": l.kind.value,
                "in": [l.in_h, l.in_w, l.in_ch],
                "out": [l.out_h, l.out_w, l.out_ch],
                "filters": None,
                **{name: getattr(l, name) for name in _SCALAR_FIELDS},
            }
            f = l.filters
            if f is not None:
                fent = entry["filters"] = {
                    "kernel": [f.kernel_h, f.kernel_w],
                    "in_channels": f.in_channels,
                    "out_channels": f.out_channels,
                }
                for field, key, dtype in _BANK_REGIONS:
                    region = np.ascontiguousarray(getattr(f, field), dtype=dtype)
                    fh.write(region)
                    fent[f"{key}_sha256"] = _sha256(region)
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
    # no indent, so CPython's C encoder writes it
    (root / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return root


class _BlobReader:
    """Reads blobs.bin front to back, each region straight into a new array.

    Each read() takes the region's shape and stored dtype and fills a
    new array of them with readinto, with no parsing or conversion. A
    region that would run past the end of the file raises FormatError
    at once. Checksums and trailing bytes are judged later, by verify(),
    so that a manifest which misplaces the regions is reported by graph
    validation instead.
    """

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size
        self.pending: list[tuple[int, str, object, np.ndarray]] = []

    def read(self, idx: int, part: str, shape: tuple, dtype: str, sha) -> np.ndarray:
        if not all(isinstance(d, _INT_TYPES) and d >= 0 for d in shape):
            raise FormatError(f"layer {idx} {part} shape {shape!r} is not a list of sizes")
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if nbytes > self.left:  # refused before anything is allocated
            raise FormatError(f"{BLOB_FILE} ends inside layer {idx}'s {part}")
        arr = np.empty(shape, dtype)
        if self.fh.readinto(arr) != nbytes:
            raise FormatError(f"{BLOB_FILE} ends inside layer {idx}'s {part}")
        self.left -= nbytes
        self.pending.append((idx, part, sha, arr))
        return arr

    def verify(self) -> None:
        for idx, part, sha, arr in self.pending:
            if _sha256(arr) != sha:
                raise FormatError(f"layer {idx} {part} in {BLOB_FILE} failed its checksum")
        if self.left:
            raise FormatError(f"{BLOB_FILE} holds {self.left} bytes past its last region")


def _load_layer(blobs: _BlobReader, idx: int, entry: dict) -> LayerDesc:
    """One manifest layer entry and its blob regions, before validation."""
    filters = None
    fent = entry["filters"]
    if fent is not None:
        (kh, kw), cin, cout = fent["kernel"], fent["in_channels"], fent["out_channels"]
        regions = {
            field: blobs.read(idx, field, (kh, kw, cin, cout) if field == "weights" else (cout,),
                              dtype, fent[f"{key}_sha256"])
            for field, key, dtype in _BANK_REGIONS
        }
        filters = QFilterSet(kh, kw, cin, cout, **regions)
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

    The manifest names no file and stores no offset: blobs.bin is read
    front to back, four regions per filter bank in layer order
    (save_package()), each with the length its geometry gives, so the
    manifest cannot point a read anywhere else. Every per-channel number
    comes from a checksummed region. The model must pass
    validate_graph(), and every integer parameter is re-derived by the
    code prepare() runs.

    Raises FormatError for a malformed manifest, another format version
    (there is no reader for version 3 or older: regenerate the package,
    which gen-model rebuilds from its seed), or a missing or short blob
    file at once;
    after graph validation, FormatError for a region that fails its
    checksum or bytes past the last region; DomainError, PlanError or
    RangeError when validation or derivation rejects the model. Keys the
    reader does not use, such as the bias_bits older writers stored, are
    ignored: bias widths come from each layer's engine.
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
    bpath = root / BLOB_FILE
    if not bpath.is_file():
        raise FormatError(f"package blob file missing: {BLOB_FILE}")
    try:
        with bpath.open("rb") as fh:
            blobs = _BlobReader(fh)
            layers = [_load_layer(blobs, idx, entry)
                      for idx, entry in enumerate(manifest["layers"])]
        graph = ModelGraph(layers, manifest["resolution"], manifest["width_multiplier"],
                           manifest["seed"])
        rounding = Rounding(manifest["rounding"])
        validate_graph(graph)
        blobs.verify()
        model = PreparedModel(_derive_parameters(layers, rounding), graph.resolution,
                              graph.width_multiplier, graph.seed, rounding)
        # validate_graph passed on these layers above, and derivation adds
        # only parameters it does not read: no frame validates them again
        model.__dict__["verdict"] = None
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
    """Wrap image pixels in the quantization the model's entry edge expects.

    Raises DomainError unless every pixel is an integer in [0, 255].
    """
    scale, zero = model.entry_quant
    pixels = np.asarray(pixels)
    return QTensor(pixels.shape[0], pixels.shape[1], pixels.shape[2], pixels, zero, scale)

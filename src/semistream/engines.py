"""The five fixed-function engines and their weight memory layout.

Every engine consumes uint8 activations, accumulates exact integer sums,
rescales through a 32-bit multiplier plus right shift, and clamps back
to uint8. The observable pass boundaries of each engine are preserved
(the expansion engine folds input batches in order, one at a time, and
its probe sees every partial bank); inside those boundaries the
arithmetic is vectorized with numpy.

The multiply-accumulate of C2D, PRO and EXP runs on float32 as an exact
integer carrier, so numpy can hand it to a BLAS GEMM. Every product
pairs an activation in [-255, 255] (a raw code for C2D, a zero-corrected
one for PRO and EXP) with a zero-corrected weight in [-255, 255], so it
is an integer of at most 255**2. The entry convolution sums 27 of them,
read through one window view of its zero-point-padded frame (_windows);
its record's bias holds -in_zero times each filter's tap sum, so the
result is the zero-corrected sum. The pointwise engines fold their
bank of K rows in slices of at most K_CHUNK = 256 rows (fold_gemm):
each slice is cast from the uint8 bank into one float32 buffer and
zero-corrected there. Every partial sum of a slice then stays below
256 * 255**2 < 2**24, where float32 holds every integer, so any
summation order is exact. The first slice's result, cast to int64,
becomes the layer's bank and fold_gemm returns it; every later slice
is added to it. check_acc_bound
holds every accumulator of a layer, K * 255**2 plus its largest bias
for K terms, below ACC_BOUND = 2**30. No engine call copies a whole bank
to float64. DWC is one int32 einsum over the same window view: it sums
raw codes times taps, at most 9 * 255**2 in magnitude, and then adds a
bias that holds -in_zero times the tap sum, so every partial sum stays
far below 2**31. Each engine hands the rescale an accumulator it owns,
which apply_rescale rescales in place (DWC's int32 one is widened once),
under the |acc| * mult < 2**62 precondition the bound also gives.
This is the integer-GEMM-on-zero-points scheme of Jacob et al.,
arXiv 1712.05877.

The bound is checked once per layer, when an engine first runs the
layer and compiles its record (layer_record): a layer that breaks it
gets no record, so every call raises. The bound also gives the
layer's rescale its tie verdict (quantcore.rescale_constants): when no
product acc * mult can land exactly halfway between two codes, the
NEAREST rescale skips its tie correction pass. The record also holds the
layer's stats, its rescale constants, the zero-corrected taps of the
entry and depthwise convolutions (with the input zero point folded into
a bias), the pointwise weight zero points as float32 and an addition's
per-code operand tables, so no engine call recomputes them. A LayerDesc
is frozen and its mults are read-only, so a layer object's record never
goes stale: a changed layer is a new object (dataclasses.replace),
which gets its own.

Engines:
  C2D  entry 3x3 stride-2 convolution, 3 -> 32 channels, one im2col GEMM
  DWC  depthwise 3x3 over 16-channel groups (also runs average pooling)
  PRO  1x1 projection, one GEMM per frame
  EXP  1x1 expansion, channel-major pass order, partial sums held across
       input batches (streaming kernel available for the dataflow runner)
  ADD  elementwise residual addition: each operand's rescale is a
       256-entry per-code table (Jacob et al.), then one rescale of the sum
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .modelkit import (
    ACC_BOUND,
    BIAS_BITS,
    ENGINE_FOR_KIND,
    LANES,
    Kind,
    LayerDesc,
    QFilterSet,
    QTensor,
    check_acc_bound,
)
from .quantcore import (
    AddParams,
    Rescale,
    Rounding,
    apply_rescale,
    pack_multipliers,
    rescale_constants,
)

#: Multiply-accumulate throughput of each engine, per clock cycle.
MADDS_PER_CYCLE = {"C2D": 896, "DWC": 160, "PRO": 272, "EXP": 272}
#: Elementwise operations the addition chain performs per cycle.
ADD_OPS_PER_CYCLE = 54

#: Per-engine weight port geometry: (memories, word bits, bias word bits).
#: Each memory delivers one word per cycle; the bias port delivers one
#: bias word (16 lanes of BIAS_BITS) per output batch. The entry
#: convolution keeps its weights in fabric constants and has no port.
WEIGHT_GEOMETRY = {
    engine: (memories, 128, LANES * BIAS_BITS[engine])
    for engine, memories in (("DWC", 9), ("PRO", 16), ("EXP", 16))
}
#: Width of the streams feeding the addition engine.
ADD_STREAM_BITS = 128

#: Weight rows per float32 GEMM slice: the largest multiple of LANES
#: whose worst-case slice sum, K_CHUNK * 255**2, float32 holds exactly.
K_CHUNK = 2**24 // (255 * 255) // LANES * LANES


@dataclass(frozen=True, slots=True)
class EngineStats:
    """Work accounting for one engine invocation."""

    cycles: int
    madds: int
    weight_bytes: int
    output_elements: int
    acc_working_set: int = 0

    def __add__(self, other: "EngineStats") -> "EngineStats":
        return EngineStats(
            self.cycles + other.cycles,
            self.madds + other.madds,
            self.weight_bytes + other.weight_bytes,
            self.output_elements + other.output_elements,
            max(self.acc_working_set, other.acc_working_set),
        )


def engine_cycles(layer: LayerDesc) -> int:
    """Cycle count of one layer on its engine.

    Raster engines (C2D, DWC) are paced by input pixels per frame pass;
    the pointwise engines by output pixels times both pass counts; the
    addition engine by 16-lane words of its output frame.
    """
    if layer.kind is Kind.C2D:
        return layer.in_h * layer.in_w
    if layer.kind in (Kind.DWC, Kind.AVGPOOL):
        return layer.in_h * layer.in_w * (layer.in_ch // LANES)
    if layer.kind in (Kind.PRO, Kind.EXP):
        return layer.out_h * layer.out_w * layer.apass * layer.fpass
    if layer.kind is Kind.ADD:
        return layer.out_h * layer.out_w * (layer.out_ch // LANES)
    raise DomainError(f"no cycle model for {layer.kind}")


def weight_bytes(layer: LayerDesc) -> int:
    """Bytes of (padded) filter weights the layer occupies."""
    if layer.filters is None:
        return 0
    return int(layer.filters.weights.size)


def _layer_stats(layer: LayerDesc) -> EngineStats:
    cycles = engine_cycles(layer)
    if layer.kind is Kind.ADD:
        # a pass-through slot streams its frame but does no arithmetic
        madds = ADD_OPS_PER_CYCLE * cycles if layer.residual_from is not None else 0
    else:
        madds = MADDS_PER_CYCLE[ENGINE_FOR_KIND[layer.kind]] * cycles
    acc = layer.fpass * LANES if layer.kind is Kind.EXP else 0
    return EngineStats(
        cycles=cycles,
        madds=madds,
        weight_bytes=weight_bytes(layer),
        output_elements=layer.out_h * layer.out_w * layer.out_ch,
        acc_working_set=acc,
    )


@dataclass(frozen=True, slots=True)
class LayerRecord:
    """A layer's run-time facts, compiled once per layer object by layer_record.

    stats is what every engine call reports; rescale holds read-only,
    C-contiguous per-channel constants of the layer's mults (of an
    addition's mult3), or None for a layer without them. The rest is
    None except on the layers that use it, and read-only: taps are the
    zero-corrected entry (27 x 32 float32) or depthwise (3 x 3 x C
    int32) weights; bias is the entry (int64) or depthwise (int32) bias
    minus in_zero times each filter's tap sum, so those engines sum raw
    codes; zw holds a pointwise layer's weight zero points as float32,
    what fold_gemm subtracts from each weight slice; add_tables maps
    each Rounding to an addition's two 256-entry per-code tables.
    """

    stats: EngineStats
    rescale: Rescale | None
    taps: np.ndarray | None
    bias: np.ndarray | None
    zw: np.ndarray | None
    add_tables: dict | None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _add_tables(p: AddParams) -> dict:
    """Per-code operand tables of an addition, one pair per rounding.

    Each operand is rescaled on its own before the sum (Jacob et al.,
    arXiv 1712.05877), so its rescaled value is a function of one uint8
    code: T[a] = rescale((a - zero) << pre_shift, mult). Raises
    DomainError unless (max|T1| + max|T2|) * mult3 < 2**62, the
    precondition of the final rescale; normalized multipliers always
    meet it (each |T| < 2**28, mult3 < 2**32). apply_rescale works in
    place, so each table is rescaled from its own copy of the operand.
    """
    codes = np.arange(256, dtype=np.int64)
    operands = [((codes - zero) << p.pre_shift, rescale_constants(m.mult, m.shift))
                for zero, m in ((p.in1_zero, p.mult1), (p.in2_zero, p.mult2))]
    tables = {}
    for rounding in Rounding:
        t1, t2 = (_read_only(apply_rescale(x.copy(), r, 0, rounding)) for x, r in operands)
        worst = int(np.abs(t1).max()) + int(np.abs(t2).max())
        if worst * p.mult3.mult >= 1 << 62:
            raise DomainError(
                f"addition sums reach {worst}, and times mult3 not below 2**62: "
                "the output rescale would overflow int64"
            )
        tables[rounding] = (t1, t2)
    return tables


def layer_record(layer: LayerDesc) -> LayerRecord:
    """The layer's compiled record, built on the layer object's first use.

    Checks the accumulator bound (and an addition's sum bound) before
    building, so a layer that breaks it never gets a record; that bound
    (for an addition, the largest |T1| + |T2| of its NEAREST tables)
    decides the rescale's tie verdict. The record
    is kept in the frozen layer's __dict__, which dataclasses.replace
    does not carry over, so every changed layer compiles its own.
    """
    rec = layer.__dict__.get("_record")
    if rec is None:
        bound = check_acc_bound(layer)
        p = layer.add_params
        mults, tables = layer.mults, None
        if p is not None:
            mults = pack_multipliers([p.mult3.mult], [p.mult3.shift])
            tables = _add_tables(p)
            bound = sum(int(np.abs(t).max()) for t in tables[Rounding.NEAREST])
        rescale = None
        if mults is not None:  # the packed columns are strided: keep contiguous copies
            r = rescale_constants(np.ascontiguousarray(mults.mult), mults.shift, bound)
            rescale = Rescale(*map(_read_only, r[:3]), r.ties)
        f, taps, bias, zw = layer.filters, None, None, None
        if layer.kind is Kind.C2D:
            signed = _signed_weights(f, np.int64).reshape(27, 32)
            taps = _read_only(signed.astype(np.float32))
            bias = _read_only(f.biases - layer.in_zero * signed.sum(axis=0))
        elif layer.kind is Kind.DWC:
            taps = _read_only(_signed_weights(f, np.int32)[:, :, 0, :])
            tap_sums = taps.sum(axis=(0, 1))
            bias = _read_only((f.biases - layer.in_zero * tap_sums).astype(np.int32))
        elif layer.kind in (Kind.PRO, Kind.EXP):
            zw = _read_only(f.zero_points.astype(np.float32))
        rec = layer.__dict__["_record"] = LayerRecord(
            _layer_stats(layer), rescale, taps, bias, zw, tables)
    return rec


def nominal_stats(layer: LayerDesc) -> EngineStats:
    """Stats an engine reports for the layer, without running it."""
    return layer_record(layer).stats


def _check_edge(x: QTensor, layer: LayerDesc) -> None:
    if (x.height, x.width, x.channels) != (layer.in_h, layer.in_w, layer.in_ch):
        raise ShapeError(
            f"input {(x.height, x.width, x.channels)} does not match layer "
            f"{(layer.in_h, layer.in_w, layer.in_ch)}"
        )
    if x.zero_point != layer.in_zero or x.scale != layer.in_scale:
        raise DomainError("input tensor quantization does not match the layer edge")


def _out_tensor(layer: LayerDesc, data: np.ndarray) -> QTensor:
    return QTensor(layer.out_h, layer.out_w, layer.out_ch,
                   data, layer.out_zero, layer.out_scale)


def _signed_weights(f: QFilterSet, dtype) -> np.ndarray:
    """Zero-corrected weights in one new array of dtype."""
    w = f.weights.astype(dtype)
    w -= f.zero_points
    return w


def fold_gemm(acc: np.ndarray | None, signed: np.ndarray, f: QFilterSet,
              zw: np.ndarray, row0: int = 0) -> np.ndarray:
    """Add signed @ (W[row0 : row0 + K] - zw) to the int64 bank acc, exactly.

    signed holds K zero-corrected activation columns (float32); W is the
    layer's uint8 bank and zw its zero points as float32 (the record's
    zw). Each slice of at most K_CHUNK weight rows is cast into one
    float32 buffer, the first slice's own cast, and zero-corrected
    there, so its GEMM is exact (see the module docstring). Returns the
    bank: acc itself, or, with acc None, the first slice's int64 result,
    to which the later slices are added.
    """
    k = signed.shape[1]
    w = f.weights[0, 0, row0 : row0 + k]
    rows = buf = w[:K_CHUNK].astype(np.float32)
    for j in range(0, k, K_CHUNK):
        if j:
            rows = buf[: min(K_CHUNK, k - j)]
            rows[...] = w[j : j + K_CHUNK]
        rows -= zw
        part = (signed[:, j : j + K_CHUNK] @ rows).astype(np.int64)
        if acc is None:
            acc = part
        else:
            acc += part
    return acc


def _windows(padded: np.ndarray, out_h: int, out_w: int, stride: int) -> np.ndarray:
    """Every 3x3 window a stride-`stride` kernel visits in a padded frame.

    padded is a C-contiguous H x W x C array; the result is one
    read-only (out_h, out_w, 3, 3, C) view of it, whose window (y, x)
    starts at row stride * y and column stride * x. Nothing is copied;
    the ndarray constructor checks that every window lies in padded.
    """
    sh, sw, sc = padded.strides
    return _read_only(np.ndarray((out_h, out_w, 3, 3, padded.shape[2]), padded.dtype,
                                 padded, 0, (stride * sh, stride * sw, sh, sw, sc)))


def _narrow_uint8(centred: np.ndarray, zero: int) -> np.ndarray:
    """Codes centred + zero clamped to [0, 255], as uint8.

    Clamps centred in place to [-zero, 255 - zero] first; the narrowing
    cast then wraps negatives modulo 256 and adding zero in uint8 wraps
    them back, so no int64 pass adds the zero point. The bounds are
    numpy integers because clip checks Python-int bounds against the
    dtype's range on every call, which costs more than a small clamp.
    """
    centred.clip(np.int64(-zero), np.int64(255 - zero), out=centred)
    out = centred.astype(np.uint8)
    out += np.uint8(zero)
    return out


def _requant_uint8(acc: np.ndarray, layer: LayerDesc, rec: LayerRecord,
                   rounding: Rounding) -> np.ndarray:
    """Rescale a layer's accumulators onto its output edge, clamped to uint8."""
    return _narrow_uint8(apply_rescale(acc, rec.rescale, 0, rounding), layer.out_zero)


# ---------------------------------------------------------------------------
# C2D: entry convolution
# ---------------------------------------------------------------------------

def c2d_forward(
    x: QTensor, layer: LayerDesc, rounding: Rounding = Rounding.NEAREST
) -> tuple[QTensor, EngineStats]:
    """Run the specialized entry convolution.

    Fixed shape contract: 3 input channels, 32 filters, 3x3 kernel,
    stride 2, even input sides. The engine consumes the frame in row
    raster order with a two-row reach, one input pixel per cycle; here
    all output pixels are computed together by one im2col GEMM over raw
    codes, whose columns are one copy of the padded frame's window view.
    The record's bias holds -in_zero times each filter's tap sum, so the
    frame is padded with the zero point and never zero-corrected.
    """
    if layer.kind is not Kind.C2D:
        raise DomainError(f"c2d_forward cannot run a {layer.kind.value} layer")
    _check_edge(x, layer)
    if layer.in_ch != 3 or layer.out_ch != 32 or layer.stride != 2:
        raise ShapeError("entry convolution is fixed at 3->32 channels, stride 2")
    if x.height % 2 or x.width % 2:
        raise ShapeError(f"entry frame {x.height}x{x.width} must have even sides")

    rec = layer_record(layer)
    in_h, in_w = x.height, x.width
    out_h, out_w = layer.out_h, layer.out_w
    padded = np.full((in_h + 2, in_w + 2, 3), x.zero_point, dtype=np.float32)
    padded[1 : in_h + 1, 1 : in_w + 1, :] = x.data
    # im2col: one row of 27 taps, ordered (i, j, channel), per output pixel
    cols = _windows(padded, out_h, out_w, 2).reshape(out_h * out_w, 27)
    acc = (cols @ rec.taps).astype(np.int64)
    acc += rec.bias
    out = _requant_uint8(acc, layer, rec, rounding).reshape(out_h, out_w, 32)
    return _out_tensor(layer, out), rec.stats


# ---------------------------------------------------------------------------
# DWC: depthwise convolution and average pooling
# ---------------------------------------------------------------------------

def dwc_forward(
    x: QTensor, layer: LayerDesc, rounding: Rounding = Rounding.NEAREST
) -> tuple[QTensor, EngineStats]:
    """Run a depthwise 3x3 convolution over 16-channel groups.

    The engine makes one full-frame pass per 16-channel group, so the
    channel count must be a multiple of 16. Stride 1 or 2, one ring of
    zero-point padding. All nine taps of every window run as one int32
    einsum over the padded frame's window view, onto raw codes; the
    record's bias holds -in_zero times each channel's tap sum, so the
    result is the zero-corrected sum.
    """
    if layer.kind is not Kind.DWC:
        raise DomainError(f"dwc_forward cannot run a {layer.kind.value} layer")
    _check_edge(x, layer)
    if x.channels % LANES:
        raise ShapeError(f"depthwise channels {x.channels} not a multiple of {LANES}")
    if layer.stride not in (1, 2):
        raise ShapeError(f"depthwise stride {layer.stride} unsupported")

    rec = layer_record(layer)
    in_h, in_w = x.height, x.width
    padded = np.full((in_h + 2, in_w + 2, x.channels), x.zero_point, dtype=np.int32)
    padded[1 : in_h + 1, 1 : in_w + 1, :] = x.data
    windows = _windows(padded, layer.out_h, layer.out_w, layer.stride)
    acc = np.einsum("hwijc,ijc->hwc", windows, rec.taps)
    acc += rec.bias
    return _out_tensor(layer, _requant_uint8(acc, layer, rec, rounding)), rec.stats


def dwc_avgpool(
    x: QTensor, layer: LayerDesc, rounding: Rounding = Rounding.NEAREST
) -> tuple[QTensor, EngineStats]:
    """Average a frame down to one pixel on the depthwise engine.

    Sums zero-point-corrected activations per channel and rescales by a
    multiplier encoding in_scale / (pixels * out_scale); 7x7 input in
    the standard topology, any frame that fits the layer edge otherwise.
    """
    if layer.kind is not Kind.AVGPOOL:
        raise DomainError(f"dwc_avgpool cannot run a {layer.kind.value} layer")
    _check_edge(x, layer)
    if (layer.out_h, layer.out_w) != (1, 1):
        raise ShapeError("pooling reduces the whole frame to 1x1")
    if x.channels % LANES:
        raise ShapeError(f"pooled channels {x.channels} not a multiple of {LANES}")

    rec = layer_record(layer)
    acc = (x.data.astype(np.int64) - x.zero_point).sum(axis=(0, 1))
    out = _requant_uint8(acc, layer, rec, rounding).reshape(1, 1, x.channels)
    return _out_tensor(layer, out), rec.stats


# ---------------------------------------------------------------------------
# PRO: 1x1 projection
# ---------------------------------------------------------------------------

def pro_forward(
    x: QTensor, layer: LayerDesc, rounding: Rounding = Rounding.NEAREST
) -> tuple[QTensor, EngineStats]:
    """Run a 1x1 projection.

    Pass order per pixel: outer loop over output filter batches, inner
    loop over input channel batches; the accumulator bank starts at the
    bias word and each output batch is rescaled and written the moment
    its last input batch lands. Integer sums do not depend on their
    order, so the whole frame runs here as one exact GEMM, with results
    identical to the per-pass schedule.
    """
    if layer.kind is not Kind.PRO:
        raise DomainError(f"pro_forward cannot run a {layer.kind.value} layer")
    _check_edge(x, layer)
    if x.channels % LANES or layer.out_ch % LANES:
        raise ShapeError("projection channel counts must be multiples of 16")

    rec = layer_record(layer)
    f = layer.filters
    npix = x.height * x.width
    signed = x.data.reshape(npix, x.channels).astype(np.float32)
    signed -= x.zero_point
    acc = fold_gemm(None, signed, f, rec.zw)
    acc += f.biases
    data = _requant_uint8(acc, layer, rec, rounding).reshape(layer.out_h, layer.out_w, -1)
    return _out_tensor(layer, data), rec.stats


# ---------------------------------------------------------------------------
# EXP: 1x1 expansion
# ---------------------------------------------------------------------------

def exp_forward(
    x: QTensor,
    layer: LayerDesc,
    rounding: Rounding = Rounding.NEAREST,
    probe=None,
) -> tuple[QTensor, EngineStats]:
    """Run a 1x1 expansion.

    Pass order is the transpose of the projection engine: outer loop
    over input channel batches, inner loop over output filter batches.
    Every filter batch keeps 16 partial sums alive until the final input
    batch, so the engine holds fpass*16 accumulators per pixel. Each
    input batch is consumed exactly once.

    probe, if given, is called as probe(ab, acc) after input batch ab
    has been folded into every filter batch; acc is a fresh int64 array
    of shape (fpass, pixels, 16) holding the raw partial sums (bias
    included).
    """
    if layer.kind is not Kind.EXP:
        raise DomainError(f"exp_forward cannot run a {layer.kind.value} layer")
    _check_edge(x, layer)
    if x.channels % LANES or layer.out_ch % LANES:
        raise ShapeError("expansion channel counts must be multiples of 16")

    npix = x.height * x.width
    kernel = ExpStreamKernel(layer, npix, rounding, probe=probe)
    kernel.consume(0, x.data.reshape(npix, x.channels))
    data = kernel.outputs().reshape(layer.out_h, layer.out_w, layer.out_ch)
    return _out_tensor(layer, data), nominal_stats(layer)


class ExpStreamKernel:
    """Streaming form of the expansion engine.

    One kernel runs one frame of npix pixels. Feed input channel batches
    in order with consume(), one or several consecutive batches per call;
    after the last one, outputs() returns the finished frame. The int64
    accumulator bank holds every filter's partial sum for every pixel,
    the fpass*16 per-pixel working set of the engine, and persists
    across calls. The first fold's result becomes the bank, which then
    takes the biases once, before any probe sees it; each call folds its
    batches into all filter batches with fold_gemm, reading the weight
    rows straight from the uint8 bank. The last batch's call rescales
    the bank itself, in place; a probe gets copies.
    """

    def __init__(self, layer: LayerDesc, npix: int,
                 rounding: Rounding = Rounding.NEAREST, probe=None):
        if layer.kind is not Kind.EXP:
            raise DomainError(f"expansion kernel cannot run a {layer.kind.value} layer")
        if layer.in_ch % LANES or layer.out_ch % LANES:
            raise ShapeError("expansion channel counts must be multiples of 16")
        self.record = layer_record(layer)
        self.layer = layer
        self.rounding = rounding
        self.probe = probe
        self.npix = npix
        self._acc = None
        self._next_batch = 0
        self._out = None

    def consume(self, ab: int, batches: np.ndarray) -> None:
        """Fold input channel batches ab, ab + 1, ... into the bank.

        batches is pixels x (16 * n) uint8, n consecutive batches side by
        side. Without a probe all n fold in one call of fold_gemm; with
        one, each batch is folded and probed in turn, so the probe sees
        every partial in pass order.
        """
        layer = self.layer
        if ab != self._next_batch:
            raise DomainError(f"input batch {ab} arrived, expected {self._next_batch}")
        n, ragged = divmod(batches.shape[1], LANES)
        if ragged or not 0 < n <= layer.apass - ab:
            raise DomainError(f"{batches.shape[1]} channels from batch {ab} do not fill "
                              f"whole batches within the layer's {layer.apass} input batches")
        if batches.shape[0] != self.npix:
            raise ShapeError(f"{batches.shape[0]} pixels arrived for a {self.npix}-pixel frame")
        signed = batches.astype(np.float32)
        signed -= layer.in_zero
        step = LANES if self.probe is not None else n * LANES
        for lo in range(0, n * LANES, step):
            first = self._acc is None
            self._acc = fold_gemm(self._acc, signed[:, lo : lo + step], layer.filters,
                                  self.record.zw, ab * LANES + lo)
            if first:
                self._acc += layer.filters.biases
            if self.probe is not None:
                banks = self._acc.reshape(self.npix, layer.fpass, LANES).transpose(1, 0, 2)
                self.probe(ab + lo // LANES, banks.copy())  # a view when fpass == 1
        self._next_batch = ab + n
        if self._next_batch == layer.apass:
            self._out = _requant_uint8(self._acc, layer, self.record, self.rounding)

    def outputs(self) -> np.ndarray:
        if self._next_batch != self.layer.apass:
            raise DomainError("expansion frame is not finished")
        return self._out


# ---------------------------------------------------------------------------
# ADD: residual addition
# ---------------------------------------------------------------------------

def add_elements(
    a1: np.ndarray, a2: np.ndarray, layer: LayerDesc,
    rounding: Rounding = Rounding.NEAREST,
) -> np.ndarray:
    """Elementwise fixed-point addition of two uint8 arrays on a shortcut layer.

    Each operand is zero-point corrected, widened by the 2**20 headroom
    shift and scaled onto the common intermediate grid by its multiplier;
    that is one lookup in the record's per-code table. The sum is
    rescaled onto the output grid. Returns uint8.
    """
    rec = layer_record(layer)
    t1, t2 = rec.add_tables[rounding]
    t = t1.take(a1)
    t += t2.take(a2)
    return _narrow_uint8(apply_rescale(t, rec.rescale, 0, rounding), layer.add_params.out_zero)


def add_forward(
    x1: QTensor, x2: QTensor, layer: LayerDesc,
    rounding: Rounding = Rounding.NEAREST,
) -> tuple[QTensor, EngineStats]:
    """Add a residual shortcut into the main path."""
    if layer.kind is not Kind.ADD or layer.add_params is None:
        raise DomainError("add_forward needs an ADD layer with derived parameters")
    _check_edge(x1, layer)
    if (x2.height, x2.width, x2.channels) != (layer.in_h, layer.in_w, layer.in_ch):
        raise ShapeError("residual operand dims do not match the layer")
    if x2.zero_point != layer.add_params.in2_zero:
        raise DomainError("residual operand zero point does not match")
    out = add_elements(x1.data, x2.data, layer, rounding)
    return _out_tensor(layer, out), nominal_stats(layer)


def add_passthrough(x: QTensor, layer: LayerDesc) -> tuple[QTensor, EngineStats]:
    """Forward a frame through an ADD slot that has no shortcut.

    The frame streams through unchanged (the output edge equals the
    input edge by construction), costing stream cycles but no math.
    """
    if layer.kind is not Kind.ADD or layer.residual_from is not None:
        raise DomainError("add_passthrough needs an ADD layer without a shortcut")
    _check_edge(x, layer)
    if layer.out_scale != layer.in_scale or layer.out_zero != layer.in_zero:
        raise DomainError("pass-through output edge must equal its input edge")
    return _out_tensor(layer, x.data.copy()), nominal_stats(layer)


# ---------------------------------------------------------------------------
# weight memory layout
# ---------------------------------------------------------------------------

@dataclass
class WeightMemoryImage:
    """Weights of one layer arranged into its engine's parallel memories.

    memories has shape (num_memories, depth, 16): one 16-byte word per
    memory per address. bias_words has shape (num_bias_words, 16): the
    16 bias lanes delivered together with an output batch, each of
    bias_lane_bits. word_bits and bias_word_bits give the port widths.
    """

    engine: str
    memories: np.ndarray
    bias_words: np.ndarray
    word_bits: int
    bias_word_bits: int
    bias_lane_bits: int
    depth: int = field(init=False)

    def __post_init__(self):
        self.depth = self.memories.shape[1]


def address_map(engine: str, layer: LayerDesc, filt: int, channel: int,
                kpos: int = 0) -> tuple[int, int, int]:
    """Map one weight to (memory, word address, lane) for its engine.

    DWC spreads the nine kernel positions across nine memories with one
    word per channel group. PRO keeps filter lanes together: memory =
    filter within batch, lane = channel within batch. EXP transposes
    that: memory = channel within batch, lane = filter within batch.
    Both pointwise engines use address = fpass * APASS + apass.
    """
    if engine == "DWC":
        if not (0 <= kpos < 9):
            raise DomainError(f"kernel position {kpos} outside 0..8")
        return kpos, channel // LANES, channel % LANES
    if engine == "PRO":
        return filt % LANES, (filt // LANES) * layer.apass + channel // LANES, channel % LANES
    if engine == "EXP":
        return channel % LANES, (filt // LANES) * layer.apass + channel // LANES, filt % LANES
    raise DomainError(f"no weight memory layout for engine {engine!r}")


def layout_weights(layer: LayerDesc) -> WeightMemoryImage:
    """Arrange a prepared layer's weights into engine memory images."""
    engine = ENGINE_FOR_KIND[layer.kind]
    if engine not in WEIGHT_GEOMETRY or layer.filters is None:
        raise DomainError(f"{layer.kind.value} layers have no external weight memories")
    nmem, word_bits, bias_word_bits = WEIGHT_GEOMETRY[engine]
    f = layer.filters
    if engine == "DWC":
        depth = layer.out_ch // LANES
        memories = np.zeros((nmem, depth, LANES), dtype=np.uint8)
        for kpos in range(9):
            ki, kj = divmod(kpos, 3)
            for ch in range(layer.out_ch):
                mem, word, lane = address_map(engine, layer, ch, ch, kpos)
                memories[mem, word, lane] = f.weights[ki, kj, 0, ch]
        n_bias_words = layer.out_ch // LANES
    else:
        depth = layer.fpass * layer.apass
        memories = np.zeros((nmem, depth, LANES), dtype=np.uint8)
        w = f.weights[0, 0]
        for filt in range(layer.out_ch):
            for ch in range(layer.in_ch):
                mem, word, lane = address_map(engine, layer, filt, ch)
                memories[mem, word, lane] = w[ch, filt]
        n_bias_words = layer.fpass
    bias_words = f.biases.reshape(n_bias_words, LANES).copy()
    return WeightMemoryImage(
        engine=engine,
        memories=memories,
        bias_words=bias_words,
        word_bits=word_bits,
        bias_word_bits=bias_word_bits,
        bias_lane_bits=BIAS_BITS[engine],
    )


def run_layer(
    x: QTensor, layer: LayerDesc, residual: QTensor | None = None,
    rounding: Rounding = Rounding.NEAREST, probe=None,
) -> tuple[QTensor, EngineStats]:
    """Dispatch one layer to its engine.

    probe reaches an expansion's exp_forward; other engines have no
    partial sums to show it.
    """
    if layer.kind is Kind.C2D:
        return c2d_forward(x, layer, rounding)
    if layer.kind is Kind.DWC:
        return dwc_forward(x, layer, rounding)
    if layer.kind is Kind.AVGPOOL:
        return dwc_avgpool(x, layer, rounding)
    if layer.kind is Kind.PRO:
        return pro_forward(x, layer, rounding)
    if layer.kind is Kind.EXP:
        return exp_forward(x, layer, rounding, probe)
    if layer.kind is Kind.ADD:
        if layer.residual_from is None:
            if residual is not None:
                raise DomainError("pass-through slot received a residual operand")
            return add_passthrough(x, layer)
        if residual is None:
            raise DomainError("shortcut layer is missing its residual operand")
        return add_forward(x, residual, layer, rounding)
    raise DomainError(f"no engine for {layer.kind}")

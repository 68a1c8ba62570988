"""The five fixed-function engines.

Every engine consumes uint8 activations, accumulates exact integer sums,
rescales through a 32-bit multiplier plus right shift, and clamps back
to uint8. The observable pass boundaries of each engine are preserved
(the expansion engine folds input batches in order, one at a time, and
its probe sees every partial bank); inside those boundaries the
arithmetic is vectorized with numpy.

Each layer kind runs as one kernel over plain uint8 arrays (KERNELS),
kernel(data, layer, rounding, probe), which reads its geometry and zero
points off the layer and returns a (pixels, out_ch) uint8 array; the
pass-through kernel returns its input, since no kernel writes one. A
shortcut addition runs add_elements on its two operands instead. The
dataflow processes and the sequential driver pass these arrays from
layer to layer, and only a frame's logits become a QTensor. The one
public engine call, run_layer, takes and returns QTensors: it checks
its input (and a shortcut's residual) against the layer edge, runs the
layer's kernel and wraps the result.

Every MAC engine sums raw codes. The multiply-accumulate of C2D, PRO,
EXP and DWC runs on float32 as an exact integer carrier, so numpy can
hand the 1x1 and entry GEMMs to BLAS. Every product pairs a raw code in
[0, 255] with a zero-corrected weight in [-255, 255], so it is an
integer of at most 255**2 in magnitude. The entry convolution sums 27
of them, read through one window view of its zero-point-padded frame
(_windows). The pointwise engines read a resident zero-corrected int16
bank, W - zw, built once in the layer's record, and fold its K rows in
slices of at most K_CHUNK = 256 rows (fold_gemm): each slice is cast
from the int16 bank into one float32 buffer, with nothing left to
subtract. Every partial sum of a slice then stays below
256 * 255**2 < 2**24, where float32 holds every integer, so any
summation order is exact. The first slice's result, cast to int64, becomes the layer's
accumulator bank and fold_gemm returns it; every later slice is added to
it. No engine call copies a whole weight bank. DWC is one float32 einsum
over its zero-point-padded frame: a window sums nine products, an
integer of at most 9 * 255**2 = 585225 < 2**24 in magnitude, so float32
holds every partial sum in any order. At stride 1 it reads the frame
through one row view whose last axis is a whole output row of out_w * C
lanes (_row_windows), against the taps tiled once per call along that
row; at stride 2 neighbouring output pixels sit 2 * C lanes apart, so
pixel and channel do not merge into one axis and it reads the 5-D window
view (_windows). Average pooling sums raw codes in int64.
No engine zero-corrects an activation and none adds a bias: each hands
the rescale its raw sums, in an accumulator it owns, which
apply_rescale rescales in place (DWC's float32 one is widened to int64
once, exactly). The record's rescale offset carries the rest, times
the multiplier: the bias, the folded zero-point terms (-in_zero times
each filter's tap sum for C2D, DWC, PRO and EXP, -pixels times in_zero
for pooling) and, under a tie-free NEAREST verdict, the rounding half.
check_acc_bound holds every accumulator of a layer, K * 255**2 plus its
largest bias for K terms, below ACC_BOUND = 2**30; that bound covers
the raw sum, the folded bias and their total, which gives apply_rescale
its |acc| * mult < 2**62 precondition. This is the
integer-GEMM-on-zero-points scheme of Jacob et al., arXiv 1712.05877.

Records are compiled once per model, in whole-model passes, when its
first frame starts (compile_records; layer_record is its one-layer
case, for run_layer). The bound is checked once per layer then, and so
is the engine's fixed shape contract: if any layer breaks either, the
earliest one raises and no layer gets a record, so every frame raises
the same error. The bound also gives each layer's rescale its tie
verdict and its shift alignment, for every layer in one segmented
quantcore.rescale_constants pass, and every shortcut addition's
per-code tables are built together, one pass per rounding: when no
product acc * mult can land exactly halfway between two codes, the
NEAREST rescale skips its tie correction pass, and when the aligned
multipliers keep every product below 2**62, the shift is one scalar.
The record holds only what the kernels read: the layer's kernel, its
rescale constants with their folded offsets, the zero-corrected taps of
every MAC engine (float32 for the entry and depthwise convolutions, the
int16 bank for PRO and EXP, 2 B per pointwise weight) and an addition's
per-code operand tables, so no engine call recomputes them. The engines
own no modelled fact: what a layer costs (cycles, engine capacity,
weight bytes) is perfmodel.layer_cost, read off the layer's geometry.
A LayerDesc is frozen, its mults are read-only and so are the filter
arrays of a prepared or loaded model, so a layer object's record never
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

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SemistreamError, SequencingError, ShapeError
from .modelkit import (
    ACC_BOUND,
    LANES,
    Kind,
    LayerDesc,
    QFilterSet,
    QTensor,
    check_acc_bound,
)
from .perfmodel import EngineStats, layer_cost
from .quantcore import (
    ADD_PRE_SHIFT,
    Rescale,
    Rounding,
    apply_rescale,
    rescale_constants,
)

#: Weight rows per float32 GEMM slice: the largest multiple of LANES
#: whose worst-case slice sum, K_CHUNK * 255**2, float32 holds exactly.
K_CHUNK = 2**24 // (255 * 255) // LANES * LANES


@dataclass(frozen=True, slots=True)
class LayerRecord:
    """What a layer's kernels read, compiled once per model, in whole-model
    passes (compile_records), and kept on each layer object.

    A layer gets a record only if it meets its engine's fixed shape contract
    and its accumulator bound, so its kernel checks neither. kernel is the
    kind's array kernel (KERNELS); rescale holds read-only, C-contiguous
    per-channel constants of the layer's mults (of an addition's output
    pair, add_params.mults[2]), slices of the arrays one rescale pass built
    for the whole model, or None for a layer without them. Its offsets hold
    the bias the engine's raw sums lack, times the multiplier: the layer's
    biases, minus in_zero times each filter's tap sum for every MAC engine
    (for PRO and EXP the column sum of W - zw), and -pixels * in_zero for
    pooling. The rest is None except on the layers that use it, and
    read-only: taps are the zero-corrected weights of a MAC engine, which it
    applies to raw codes: the entry (27 x 32) or depthwise (3 x 3 x C) taps
    as float32, and a pointwise layer's (in_ch, out_ch) bank W - zw as
    int16, exact since every entry lies in [-255, 255], which fold_gemm
    reads slice by slice; add_tables maps each Rounding to an addition's two
    256-entry per-code tables, rows of the model's (n_shortcuts, 2, 256)
    tables. The layer's cost is not here: perfmodel.layer_cost reads it off
    the geometry.
    """

    kernel: Callable[..., np.ndarray]
    rescale: Rescale | None
    taps: np.ndarray | None
    add_tables: dict | None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _add_tables(layers: list[LayerDesc]) -> tuple[dict, np.ndarray]:
    """Per-code operand tables of every given shortcut addition, one array per rounding.

    Each operand is rescaled on its own before the sum (Jacob et al.,
    arXiv 1712.05877), so its rescaled value is a function of one uint8
    code: T[a] = rescale((a - zero) << ADD_PRE_SHIFT, mult), with the
    layer's in_zero and its add_params.mults[0] for the input, and
    add_params.in2_zero and add_params.mults[1] for the residual. Maps
    each Rounding to one read-only (n, 2, 256) int64 array, in which
    addition k's input and residual tables are [k, 0] and [k, 1], and
    returns it with each addition's NEAREST bound max|T1| + max|T2|. All
    2n operands share one rescale_constants call, and each rounding one
    apply_rescale pass, on its own copy of the operands since it works
    in place. Raises DomainError for the first addition, in order,
    unless (max|T1| + max|T2|) times its output multiplier,
    add_params.mults[2], is below 2**62 under both roundings, the
    precondition of the final rescale; normalized multipliers always
    meet it (each |T| < 2**28, every mult < 2**32).
    """
    pairs = np.stack([l.add_params.mults for l in layers])  # (n, 3) (mult, shift) records
    zeros = np.array([(l.in_zero, l.add_params.in2_zero) for l in layers], dtype=np.int64)
    codes = (np.arange(256, dtype=np.int64) - zeros[:, :, None]) << ADD_PRE_SHIFT
    operands = pairs[:, :2, None]
    r = rescale_constants(operands["mult"], operands["shift"])
    tables = {rounding: _read_only(apply_rescale(codes.copy(), r, rounding))
              for rounding in Rounding}
    worst = {rounding: np.abs(t).max(axis=2).sum(axis=1) for rounding, t in tables.items()}
    # worst * mult < 2**62 for the output multiplier, without the int64 product
    limits = ((1 << 62) - 1) // pairs["mult"][:, 2]
    over = np.flatnonzero(np.any([w > limits for w in worst.values()], axis=0))
    if over.size:
        k = over[0]
        reach = next(int(w[k]) for w in worst.values() if w[k] > limits[k])
        raise DomainError(
            f"addition sums reach {reach}, and times the output multiplier not below "
            "2**62: the output rescale would overflow int64"
        )
    return tables, worst[Rounding.NEAREST]


def _check_contract(layer: LayerDesc) -> None:
    """ShapeError unless the layer fits its engine's fixed shape contract."""
    kind = layer.kind
    if kind is Kind.C2D:
        if layer.in_ch != 3 or layer.out_ch != 32 or layer.stride != 2:
            raise ShapeError("entry convolution is fixed at 3->32 channels, stride 2")
        if layer.in_h % 2 or layer.in_w % 2:
            raise ShapeError(f"entry frame {layer.in_h}x{layer.in_w} must have even sides")
    elif kind is Kind.DWC:
        if layer.in_ch % LANES:
            raise ShapeError(f"depthwise channels {layer.in_ch} not a multiple of {LANES}")
        if layer.stride not in (1, 2):
            raise ShapeError(f"depthwise stride {layer.stride} unsupported")
    elif kind is Kind.AVGPOOL:
        if (layer.out_h, layer.out_w) != (1, 1):
            raise ShapeError("pooling reduces the whole frame to 1x1")
        if layer.in_ch % LANES:
            raise ShapeError(f"pooled channels {layer.in_ch} not a multiple of {LANES}")
    elif kind in (Kind.PRO, Kind.EXP) and (layer.in_ch % LANES or layer.out_ch % LANES):
        name = "projection" if kind is Kind.PRO else "expansion"
        raise ShapeError(f"{name} channel counts must be multiples of 16")


def layer_record(layer: LayerDesc) -> LayerRecord:
    """The layer's compiled record: compile_records of the one layer, on its first use."""
    rec = layer.__dict__.get("_record")
    return compile_records((layer,))[0] if rec is None else rec


def compile_records(layers: Sequence[LayerDesc]) -> tuple[LayerRecord, ...]:
    """Every layer's record, compiling those it lacks in whole-model passes.

    Per layer, in order, checks the engine's shape contract, that the
    layer carries its derived parameters, then the accumulator bound;
    then builds the per-code tables of every shortcut addition at once
    (_add_tables) and checks each one's sum bound. If any layer fails,
    the earliest failing one raises its error and no layer gets a record,
    so every later call raises the same error. Otherwise the bounds (for
    an addition, the largest |T1| + |T2| of its NEAREST tables) decide
    each rescale's tie verdict and shift alignment in one segmented
    rescale_constants pass over the concatenated channels of every
    rescaling layer, and cover the bias its offsets fold in: the layer's
    biases minus in_zero times each filter's tap sum, built for all
    layers in one pass. The taps are built per layer: a pointwise
    layer's int16 bank is one cast of its uint8 weights and one in-place
    int16 subtract, and its tap sums are one int32 column reduction of
    that bank: check_acc_bound keeps K * 255**2 below 2**30, so every
    |sum of W - zw| <= K * 255 < 2**23. Compiling a record allocates
    nothing wider than the bank but the per-channel vectors. Each record
    holds read-only, C-contiguous slices of the whole-model arrays. It is
    kept in the frozen layer's __dict__, which dataclasses.replace does
    not carry over, so every changed layer compiles its own.
    """
    recs = [l.__dict__.get("_record") for l in layers]
    todo = [l for l, rec in zip(layers, recs) if rec is None]
    if not todo:
        return tuple(recs)
    bounds, fault = [], None
    for l in todo:
        try:
            _check_contract(l)
            if l.mults is None and l.kind is not Kind.ADD or (
                    l.residual_from is not None and l.add_params is None):
                raise DomainError(f"{l.kind.value} layer lacks the parameters prepare() derives")
            bounds.append(check_acc_bound(l))
        except SemistreamError as e:  # raised after any earlier addition's sum bound
            fault = e
            break
    adds = [k for k, l in enumerate(todo[:len(bounds)]) if l.add_params is not None]
    tables, add_bounds = _add_tables([todo[k] for k in adds]) if adds else ({}, [])
    if fault is not None:
        raise fault
    for k, b in zip(adds, add_bounds):
        bounds[k] = int(b)
    # each layer's (mult, shift) rows, flattened to int64 pairs
    rows, seg_bounds, biases, tap_sums, zeros, taps_of = [], [], [], [], [], []
    for l, bound in zip(todo, bounds):
        f, taps, tap_sum = l.filters, None, None
        if l.kind is Kind.C2D:
            taps = _read_only(_signed_weights(f, np.float32).reshape(27, 32))
            tap_sum = taps.sum(axis=0)
        elif l.kind is Kind.DWC:
            taps = _read_only(_signed_weights(f, np.float32)[:, :, 0, :])
            tap_sum = taps.sum(axis=(0, 1))
        elif l.kind in (Kind.PRO, Kind.EXP):
            taps = _read_only(_signed_weights(f, np.int16)[0, 0])
            tap_sum = taps.sum(axis=0, dtype=np.int32)
        taps_of.append(taps)
        if l.add_params is not None:  # the addition's output pair
            rows.append(np.asarray(l.add_params.mults[2:]).view(np.int64))
            biases.append(np.zeros(1, np.int64))
            tap_sums.append(np.zeros(1, np.int64))
        elif l.mults is not None:
            rows.append(np.asarray(l.mults).view(np.int64))
            biases.append(f.biases if f is not None else np.zeros(l.mults.size, np.int64))
            # the pooling engine sums raw codes over every pixel
            tap_sums.append(tap_sum if f is not None else np.full(l.mults.size, l.in_h * l.in_w))
        else:
            continue
        seg_bounds.append(bound)
        zeros.append(l.in_zero)
    rescales = []
    if rows:
        sizes = [r.size // 2 for r in rows]
        pairs = np.concatenate(rows).reshape(-1, 2)
        bias = np.concatenate(biases) - np.repeat(zeros, sizes) * np.concatenate(
            tap_sums, dtype=np.int64, casting="unsafe")  # float32 sums of exact integers
        rescales = rescale_constants(pairs[:, 0], pairs[:, 1], seg_bounds, bias,
                                     starts=np.cumsum([0] + sizes[:-1]))
    rescale_of = iter(rescales)
    tables_of = iter([{rounding: (both[k, 0], both[k, 1]) for rounding, both in tables.items()}
                      for k in range(len(adds))])
    for l, taps in zip(todo, taps_of):
        rescale, per_code = None, None
        if l.add_params is not None:  # the addition rescales its operands' sum: no bias
            rescale = next(rescale_of)
            rescale = rescale._replace(offset=None, offset_half=rescale.half)
            per_code = next(tables_of)
        elif l.mults is not None:
            rescale = next(rescale_of)
        l.__dict__["_record"] = LayerRecord(KERNELS[l.kind], rescale, taps, per_code)
    return tuple(l.__dict__["_record"] for l in layers)


def _check_edge(x: QTensor, layer: LayerDesc) -> None:
    if (x.height, x.width, x.channels) != (layer.in_h, layer.in_w, layer.in_ch):
        raise ShapeError(
            f"input {(x.height, x.width, x.channels)} does not match layer "
            f"{(layer.in_h, layer.in_w, layer.in_ch)}"
        )
    if x.zero_point != layer.in_zero or x.scale != layer.in_scale:
        raise DomainError("input tensor quantization does not match the layer edge")


def output_tensor(layer: LayerDesc, data: np.ndarray) -> QTensor:
    """A kernel's output frame as a QTensor on the layer's output edge."""
    return QTensor(layer.out_h, layer.out_w, layer.out_ch,
                   data.reshape(layer.out_h, layer.out_w, layer.out_ch),
                   layer.out_zero, layer.out_scale)


def _signed_weights(f: QFilterSet, dtype) -> np.ndarray:
    """Zero-corrected weights in one new array of dtype.

    The zero points are cast to dtype first, so the subtract runs in
    dtype: every weight and zero point lies in [0, 255], so each
    difference fits int16 and float32 holds it exactly.
    """
    w = f.weights.astype(dtype)
    w -= f.zero_points.astype(dtype, copy=False)
    return w


def fold_gemm(acc: np.ndarray | None, cols: np.ndarray, bank: np.ndarray,
              row0: int = 0) -> np.ndarray:
    """Add cols @ bank[row0 : row0 + K] to the int64 accumulator bank acc, exactly.

    cols holds K activation columns (float32 codes); bank is a
    pointwise layer's zero-corrected int16 weights W - zw, the record's
    taps. Each slice of at most K_CHUNK weight rows is cast into one
    float32 buffer, the first slice's own cast, so its GEMM is exact
    (see the module docstring). Returns the accumulator bank: acc
    itself, or, with acc None, the first slice's int64 result, to which
    the later slices are added.
    """
    k = cols.shape[1]
    w = bank[row0 : row0 + k]
    rows = buf = w[:K_CHUNK].astype(np.float32)
    for j in range(0, k, K_CHUNK):
        if j:
            rows = buf[: min(K_CHUNK, k - j)]
            rows[...] = w[j : j + K_CHUNK]
        part = (cols[:, j : j + K_CHUNK] @ rows).astype(np.int64)
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


def _row_windows(padded: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Every 3x3 window of a stride-1 kernel, one whole output row per lane run.

    padded is a C-contiguous H x W x C array; the result is one
    read-only (out_h, 3, 3, out_w * C) view of it, whose element
    [y, i, j, x * C + c] is padded[y + i, x + j, c]: along its last axis
    run out_w * C contiguous lanes, so one einsum term covers a whole
    output row. Nothing is copied.
    """
    sh, _, sc = padded.strides
    lanes = out_w * padded.shape[2]
    return _read_only(np.ndarray((out_h, 3, 3, lanes), padded.dtype, padded, 0,
                                 (sh, sh, padded.shape[2] * sc, sc)))


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
    return _narrow_uint8(apply_rescale(acc, rec.rescale, rounding), layer.out_zero)


# ---------------------------------------------------------------------------
# C2D: entry convolution
# ---------------------------------------------------------------------------

def _c2d(data: np.ndarray, layer: LayerDesc, rounding: Rounding, probe=None) -> np.ndarray:
    """The entry convolution: 3 input channels, 32 filters, 3x3 kernel,
    stride 2, even input sides.

    The engine consumes the frame in row raster order with a two-row
    reach, one input pixel per cycle; here all output pixels are
    computed together by one im2col GEMM over raw codes, whose columns
    are one copy of the padded frame's window view.
    """
    rec = layer_record(layer)
    in_h, in_w = layer.in_h, layer.in_w
    padded = np.full((in_h + 2, in_w + 2, 3), layer.in_zero, dtype=np.float32)
    padded[1 : in_h + 1, 1 : in_w + 1, :] = data.reshape(in_h, in_w, 3)
    # im2col: one row of 27 taps, ordered (i, j, channel), per output pixel
    cols = _windows(padded, layer.out_h, layer.out_w, 2).reshape(-1, 27)
    return _requant_uint8((cols @ rec.taps).astype(np.int64), layer, rec, rounding)


# ---------------------------------------------------------------------------
# DWC: depthwise convolution and average pooling
# ---------------------------------------------------------------------------

def _dwc(data: np.ndarray, layer: LayerDesc, rounding: Rounding, probe=None) -> np.ndarray:
    """A depthwise 3x3 convolution over 16-channel groups.

    The engine makes one full-frame pass per 16-channel group, so the
    channel count must be a multiple of 16. Stride 1 or 2, one ring of
    zero-point padding.
    """
    rec = layer_record(layer)
    in_h, in_w, c = layer.in_h, layer.in_w, layer.in_ch
    out_h, out_w = layer.out_h, layer.out_w
    padded = np.full((in_h + 2, in_w + 2, c), layer.in_zero, dtype=np.float32)
    padded[1 : in_h + 1, 1 : in_w + 1, :] = data.reshape(in_h, in_w, c)
    if layer.stride == 1:
        tiled = np.empty((3, 3, out_w, c), np.float32)
        tiled[...] = rec.taps[:, :, None, :]
        acc = np.einsum("hijx,ijx->hx", _row_windows(padded, out_h, out_w),
                        tiled.reshape(3, 3, out_w * c))
    else:
        acc = np.einsum("hwijc,ijc->hwc", _windows(padded, out_h, out_w, 2), rec.taps)
    return _requant_uint8(acc.reshape(-1, c), layer, rec, rounding)


def _avgpool(data: np.ndarray, layer: LayerDesc, rounding: Rounding, probe=None) -> np.ndarray:
    """Average a frame down to one pixel on the depthwise engine.

    Sums raw codes per channel in one int64 reduction and rescales by a
    multiplier encoding in_scale / (pixels * out_scale). 7x7 input in
    the standard topology, any frame that fits the layer edge otherwise.
    """
    rec = layer_record(layer)
    acc = data.reshape(-1, layer.in_ch).sum(axis=0, dtype=np.int64)
    return _requant_uint8(acc, layer, rec, rounding).reshape(1, layer.out_ch)


# ---------------------------------------------------------------------------
# PRO: 1x1 projection
# ---------------------------------------------------------------------------

def _pro(data: np.ndarray, layer: LayerDesc, rounding: Rounding, probe=None) -> np.ndarray:
    """A 1x1 projection.

    Pass order per pixel: outer loop over output filter batches, inner
    loop over input channel batches; the accumulator bank starts at the
    bias word and each output batch is rescaled and written the moment
    its last input batch lands. Integer sums do not depend on their
    order, so the whole frame runs here as one exact GEMM over raw
    codes, with results identical to the per-pass schedule.
    """
    rec = layer_record(layer)
    cols = data.reshape(-1, layer.in_ch).astype(np.float32)
    return _requant_uint8(fold_gemm(None, cols, rec.taps), layer, rec, rounding)


# ---------------------------------------------------------------------------
# EXP: 1x1 expansion
# ---------------------------------------------------------------------------

def _exp(data: np.ndarray, layer: LayerDesc, rounding: Rounding, probe=None) -> np.ndarray:
    """A 1x1 expansion, the whole frame fed to one ExpStreamKernel.

    Pass order is the transpose of the projection engine: outer loop
    over input channel batches, inner loop over output filter batches.
    Every filter batch keeps 16 partial sums alive until the final input
    batch, so the engine holds fpass*16 accumulators per pixel. Each
    input batch is consumed exactly once.

    probe, if given, is called as probe(ab, acc) after input batch ab
    has been folded into every filter batch; acc is a fresh int64 array
    of shape (fpass, pixels, 16) holding the zero-corrected partial
    sums, bias included (see ExpStreamKernel).
    """
    kernel = ExpStreamKernel(layer, rounding, probe=probe)
    kernel.consume(0, data.reshape(-1, layer.in_ch))
    return kernel.outputs()


class ExpStreamKernel:
    """Streaming form of the expansion engine.

    One kernel runs one frame of the layer's in_h * in_w pixels. Feed
    input channel batches in order with consume(), one or several
    consecutive batches per call; after the last one, outputs() returns
    the finished frame. The int64 accumulator bank holds every filter's
    partial sum for every pixel, the fpass*16 per-pixel working set of
    the engine, and persists across calls. The first fold's result becomes the bank; each call
    folds its batches into all filter batches with fold_gemm, reading
    the weight rows slice by slice from the record's resident
    zero-corrected int16 bank. The accumulator bank holds raw sums of
    raw codes: the biases and -in_zero times each filter's tap sum reach
    them through the record's rescale offset. A probe gets a fresh array
    of the zero-corrected partials, after k = 16 * (ab + 1) rows:
    bank + b - in_zero * sum_{r < k} (W[r] - zw), the column sum of the
    int16 bank's first k rows, taken only when a probe is attached. The
    last batch's call rescales the bank itself, in place.
    """

    def __init__(self, layer: LayerDesc, rounding: Rounding = Rounding.NEAREST, probe=None):
        if layer.kind is not Kind.EXP:
            raise DomainError(f"expansion kernel cannot run a {layer.kind.value} layer")
        self.record = layer_record(layer)  # checks the shape contract and the bound
        self.layer = layer
        self.rounding = rounding
        self.probe = probe
        self.npix = layer.in_h * layer.in_w
        self._acc = None
        self._next_batch = 0
        self._out = None

    def consume(self, ab: int, batches: np.ndarray) -> None:
        """Fold input channel batches ab, ab + 1, ... into the bank.

        batches is pixels x (16 * n) uint8, n consecutive batches side by
        side. Without a probe all n fold in one call of fold_gemm; with
        one, each batch is folded and probed in turn, so the probe sees
        every partial in pass order. The engine can never ask for a
        batch again, so each is taken exactly once: SequencingError
        unless ab is the next batch, which rejects a repeated or
        overlapping run.
        """
        layer = self.layer
        if ab != self._next_batch:
            raise SequencingError(f"input batch {ab} arrived, expected {self._next_batch}")
        n, ragged = divmod(batches.shape[1], LANES)
        if ragged or not 0 < n <= layer.apass - ab:
            raise DomainError(f"{batches.shape[1]} channels from batch {ab} do not fill "
                              f"whole batches within the layer's {layer.apass} input batches")
        if batches.shape[0] != self.npix:
            raise ShapeError(f"{batches.shape[0]} pixels arrived for a {self.npix}-pixel frame")
        taps = self.record.taps
        cols = batches.astype(np.float32)
        step = LANES if self.probe is not None else n * LANES
        for lo in range(0, n * LANES, step):
            row0 = ab * LANES + lo
            self._acc = fold_gemm(self._acc, cols[:, lo : lo + step], taps, row0)
            if self.probe is not None:
                banks = self._acc.reshape(self.npix, layer.fpass, LANES).transpose(1, 0, 2)
                partial = taps[: row0 + step].sum(axis=0, dtype=np.int64)
                biases = layer.filters.biases - layer.in_zero * partial
                self.probe(ab + lo // LANES, banks + biases.reshape(layer.fpass, 1, LANES))
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
    return _narrow_uint8(apply_rescale(t, rec.rescale, rounding), layer.out_zero)


def _passthrough(data: np.ndarray, layer: LayerDesc, rounding: Rounding, probe=None) -> np.ndarray:
    """An ADD slot without a shortcut: the frame streams through unchanged.

    It costs stream cycles but no math. No kernel writes its input, so
    the output is the input array itself, not a copy.
    """
    return data


#: The array kernel of each layer kind, read once per layer into its
#: record. A shortcut addition's record holds the pass-through kernel
#: too, but the drivers run add_elements on it instead.
KERNELS = {
    Kind.C2D: _c2d,
    Kind.DWC: _dwc,
    Kind.AVGPOOL: _avgpool,
    Kind.PRO: _pro,
    Kind.EXP: _exp,
    Kind.ADD: _passthrough,
}


def run_layer(
    x: QTensor, layer: LayerDesc, residual: QTensor | None = None,
    rounding: Rounding = Rounding.NEAREST, probe=None,
) -> tuple[QTensor, EngineStats]:
    """Run one layer on its engine: the one public engine call.

    Checks x against the layer's input edge, runs the layer's kernel (a
    shortcut addition runs add_elements on x and residual, after
    checking the residual's dims, zero point and scale) and returns the
    output frame with the layer's cost (perfmodel.layer_cost). A
    pass-through slot takes no residual, and its output edge must equal
    its input edge, since its output is x's own array. probe reaches an
    expansion's kernel; other engines have no partial sums to show it.
    """
    shortcut = layer.kind is Kind.ADD and layer.residual_from is not None
    if layer.kind is Kind.ADD and not shortcut:
        if residual is not None:
            raise DomainError("pass-through slot received a residual operand")
        if layer.out_scale != layer.in_scale or layer.out_zero != layer.in_zero:
            raise DomainError("pass-through output edge must equal its input edge")
    if shortcut and residual is None:
        raise DomainError("shortcut layer is missing its residual operand")
    _check_edge(x, layer)
    rec = layer_record(layer)
    if not shortcut:
        out = rec.kernel(x.data, layer, rounding, probe)
    else:
        if (residual.height, residual.width, residual.channels) != (x.height, x.width, x.channels):
            raise ShapeError("residual operand dims do not match the layer")
        if residual.zero_point != layer.add_params.in2_zero:
            raise DomainError("residual operand zero point does not match")
        if residual.scale != layer.add_params.in2_scale:
            raise DomainError("residual operand scale does not match")
        out = add_elements(x.data, residual.data, layer, rounding)
    return output_tensor(layer, out), layer_cost(layer)

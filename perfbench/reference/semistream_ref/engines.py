"""The five fixed-function engines and their weight memory layout.

Every engine consumes uint8 activations, accumulates in wide integers,
rescales through a 32-bit multiplier plus right shift, and clamps back
to uint8. The loop structure of each engine mirrors its hardware pass
ordering; the arithmetic inside a pass is vectorized with numpy but the
pass boundaries (and therefore everything observable through probes and
streaming kernels) are preserved.

Engines:
  C2D  entry 3x3 stride-2 convolution, 3 -> 32 channels, row raster
  DWC  depthwise 3x3 over 16-channel groups (also runs average pooling)
  PRO  1x1 projection, filter-major pass order, output written per pixel
  EXP  1x1 expansion, channel-major pass order, partial sums held across
       passes (streaming kernel available for the dataflow runner)
  ADD  elementwise residual addition through a fixed-point chain
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .modelkit import LANES, Kind, LayerDesc, QTensor
from .quantcore import (
    AddParams,
    Rounding,
    requantize_array,
    shift_round,
)

#: Multiply-accumulate throughput of each engine, per clock cycle.
MADDS_PER_CYCLE = {"C2D": 896, "DWC": 160, "PRO": 272, "EXP": 272}
#: Elementwise operations the addition chain performs per cycle.
ADD_OPS_PER_CYCLE = 54

#: Per-engine weight port geometry: (memories, word bits, bias word bits).
#: Each memory delivers one word per cycle; the bias port delivers one
#: bias word per output batch. The entry convolution keeps its weights
#: in fabric constants and has no port.
WEIGHT_GEOMETRY = {
    "DWC": (9, 128, 256),
    "PRO": (16, 128, 288),
    "EXP": (16, 128, 256),
}
#: Width of the streams feeding the addition engine.
ADD_STREAM_BITS = 128


@dataclass
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


def nominal_stats(layer: LayerDesc) -> EngineStats:
    """Stats an engine reports for the layer, without running it."""
    cycles = engine_cycles(layer)
    engine = {"C2D": "C2D", "DWC": "DWC", "AVGPOOL": "DWC",
              "PRO": "PRO", "EXP": "EXP"}.get(layer.kind.value)
    if layer.kind is Kind.ADD:
        madds = ADD_OPS_PER_CYCLE * cycles
    else:
        madds = MADDS_PER_CYCLE[engine] * cycles
    acc = layer.fpass * LANES if layer.kind is Kind.EXP else 0
    return EngineStats(
        cycles=cycles,
        madds=madds,
        weight_bytes=weight_bytes(layer),
        output_elements=layer.out_h * layer.out_w * layer.out_ch,
        acc_working_set=acc,
    )


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
                   data.astype(np.uint8), layer.out_zero, layer.out_scale)


def _mult_arrays(layer: LayerDesc) -> tuple[np.ndarray, np.ndarray]:
    mults = np.array([m.mult for m in layer.mults], dtype=np.int64)
    shifts = np.array([m.shift for m in layer.mults], dtype=np.int64)
    return mults, shifts


# ---------------------------------------------------------------------------
# C2D: entry convolution
# ---------------------------------------------------------------------------

def c2d_forward(
    x: QTensor, layer: LayerDesc, rounding: Rounding = Rounding.NEAREST
) -> tuple[QTensor, EngineStats]:
    """Run the specialized entry convolution.

    Fixed shape contract: 3 input channels, 32 filters, 3x3 kernel,
    stride 2, even input sides. The frame is consumed in row raster
    order with a two-row reach, one input pixel per cycle.
    """
    if layer.kind is not Kind.C2D:
        raise DomainError(f"c2d_forward cannot run a {layer.kind.value} layer")
    _check_edge(x, layer)
    if layer.in_ch != 3 or layer.out_ch != 32 or layer.stride != 2:
        raise ShapeError("entry convolution is fixed at 3->32 channels, stride 2")
    if x.height % 2 or x.width % 2:
        raise ShapeError(f"entry frame {x.height}x{x.width} must have even sides")

    f = layer.filters
    in_h, in_w = x.height, x.width
    out_h, out_w = layer.out_h, layer.out_w
    padded = np.full((in_h + 2, in_w + 2, 3), x.zero_point, dtype=np.int64)
    padded[1 : in_h + 1, 1 : in_w + 1, :] = x.data
    # signed taps: weights minus their per-filter zero point
    taps = f.weights.astype(np.int64) - f.zero_points[None, None, None, :]
    mults, shifts = _mult_arrays(layer)
    biases = f.biases

    out = np.empty((out_h, out_w, 32), dtype=np.uint8)
    for r in range(out_h):
        acc = np.broadcast_to(biases, (out_w, 32)).copy()
        for i in range(3):
            row = padded[2 * r + i]
            for j in range(3):
                cols = row[j : j + 2 * (out_w - 1) + 1 : 2] - x.zero_point
                acc += cols @ taps[i, j]
        vals = requantize_array(acc, mults, shifts, layer.out_zero, rounding)
        out[r] = np.clip(vals, 0, 255)

    stats = nominal_stats(layer)
    return _out_tensor(layer, out), stats


# ---------------------------------------------------------------------------
# DWC: depthwise convolution and average pooling
# ---------------------------------------------------------------------------

def dwc_forward(
    x: QTensor, layer: LayerDesc, rounding: Rounding = Rounding.NEAREST
) -> tuple[QTensor, EngineStats]:
    """Run a depthwise 3x3 convolution over 16-channel groups.

    The engine makes one full-frame pass per 16-channel group, so the
    channel count must be a multiple of 16. Stride 1 or 2, one ring of
    zero-point padding.
    """
    if layer.kind is not Kind.DWC:
        raise DomainError(f"dwc_forward cannot run a {layer.kind.value} layer")
    _check_edge(x, layer)
    if x.channels % LANES:
        raise ShapeError(f"depthwise channels {x.channels} not a multiple of {LANES}")
    if layer.stride not in (1, 2):
        raise ShapeError(f"depthwise stride {layer.stride} unsupported")

    f = layer.filters
    in_h, in_w, ch = x.height, x.width, x.channels
    out_h, out_w = layer.out_h, layer.out_w
    s = layer.stride
    padded = np.full((in_h + 2, in_w + 2, ch), x.zero_point, dtype=np.int64)
    padded[1 : in_h + 1, 1 : in_w + 1, :] = x.data
    taps = f.weights.astype(np.int64)[:, :, 0, :] - f.zero_points[None, None, :]
    mults, shifts = _mult_arrays(layer)

    acc = np.broadcast_to(f.biases, (out_h, out_w, ch)).copy()
    for i in range(3):
        for j in range(3):
            window = padded[
                i : i + s * (out_h - 1) + 1 : s,
                j : j + s * (out_w - 1) + 1 : s,
                :,
            ]
            acc += (window - x.zero_point) * taps[i, j]
    vals = requantize_array(acc, mults, shifts, layer.out_zero, rounding)
    out = np.clip(vals, 0, 255).astype(np.uint8)
    return _out_tensor(layer, out), nominal_stats(layer)


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

    acc = (x.data.astype(np.int64) - x.zero_point).sum(axis=(0, 1))
    mults, shifts = _mult_arrays(layer)
    vals = requantize_array(acc, mults, shifts, layer.out_zero, rounding)
    out = np.clip(vals, 0, 255).astype(np.uint8).reshape(1, 1, x.channels)
    return _out_tensor(layer, out), nominal_stats(layer)


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
    its last input batch lands. All pixels advance together here, which
    leaves per-batch arithmetic identical to the per-pixel schedule.
    """
    if layer.kind is not Kind.PRO:
        raise DomainError(f"pro_forward cannot run a {layer.kind.value} layer")
    _check_edge(x, layer)
    if x.channels % LANES or layer.out_ch % LANES:
        raise ShapeError("projection channel counts must be multiples of 16")

    f = layer.filters
    npix = x.height * x.width
    flat = x.data.reshape(npix, x.channels).astype(np.int64) - x.zero_point
    w = f.weights[0, 0].astype(np.int64) - f.zero_points[None, :]
    mults, shifts = _mult_arrays(layer)
    apass, fpass = layer.apass, layer.fpass

    out = np.empty((npix, layer.out_ch), dtype=np.uint8)
    for fb in range(fpass):
        fsl = slice(fb * LANES, (fb + 1) * LANES)
        acc = np.broadcast_to(f.biases[fsl], (npix, LANES)).copy()
        for ab in range(apass):
            asl = slice(ab * LANES, (ab + 1) * LANES)
            acc += flat[:, asl] @ w[asl, fsl]
            if ab == apass - 1:
                vals = requantize_array(
                    acc, mults[fsl], shifts[fsl], layer.out_zero, rounding
                )
                out[:, fsl] = np.clip(vals, 0, 255)
    data = out.reshape(layer.out_h, layer.out_w, layer.out_ch)
    return _out_tensor(layer, data), nominal_stats(layer)


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

    probe, if given, is called as probe(ab, acc.copy()) after input
    batch ab has been folded into every filter batch; acc has shape
    (fpass, pixels, 16) and holds raw partial sums (bias included).
    """
    if layer.kind is not Kind.EXP:
        raise DomainError(f"exp_forward cannot run a {layer.kind.value} layer")
    _check_edge(x, layer)
    if x.channels % LANES or layer.out_ch % LANES:
        raise ShapeError("expansion channel counts must be multiples of 16")

    kernel = ExpStreamKernel(layer, rounding, probe=probe)
    npix = x.height * x.width
    flat = x.data.reshape(npix, x.channels)
    kernel.begin_frame(npix)
    for ab in range(layer.apass):
        kernel.consume(ab, flat[:, ab * LANES : (ab + 1) * LANES])
    data = kernel.outputs().reshape(layer.out_h, layer.out_w, layer.out_ch)
    return _out_tensor(layer, data), nominal_stats(layer)


class ExpStreamKernel:
    """Streaming form of the expansion engine.

    Feed input channel batches in order with consume(); after the last
    one, outputs() returns the finished frame. The accumulator bank is
    (fpass, pixels, 16) and persists across batches, mirroring the
    fpass*16 per-pixel working set of the engine.
    """

    def __init__(self, layer: LayerDesc, rounding: Rounding = Rounding.NEAREST,
                 probe=None):
        if layer.kind is not Kind.EXP:
            raise DomainError(f"expansion kernel cannot run a {layer.kind.value} layer")
        if layer.in_ch % LANES or layer.out_ch % LANES:
            raise ShapeError("expansion channel counts must be multiples of 16")
        self.layer = layer
        self.rounding = rounding
        self.probe = probe
        f = layer.filters
        self._w = f.weights[0, 0].astype(np.int64) - f.zero_points[None, :]
        self._mults, self._shifts = _mult_arrays(layer)
        self._acc = None
        self._next_batch = 0
        self._out = None

    def begin_frame(self, npix: int) -> None:
        layer = self.layer
        f = layer.filters
        self._acc = np.empty((layer.fpass, npix, LANES), dtype=np.int64)
        for fb in range(layer.fpass):
            self._acc[fb] = f.biases[fb * LANES : (fb + 1) * LANES]
        self._next_batch = 0
        self._out = np.empty((npix, layer.out_ch), dtype=np.uint8)

    def consume(self, ab: int, batch: np.ndarray) -> None:
        """Fold input channel batch ab (pixels x 16 uint8) into the bank."""
        if self._acc is None:
            raise DomainError("begin_frame must be called before consume")
        if ab != self._next_batch:
            raise DomainError(f"input batch {ab} arrived, expected {self._next_batch}")
        layer = self.layer
        signed = batch.astype(np.int64) - layer.in_zero
        asl = slice(ab * LANES, (ab + 1) * LANES)
        last = ab == layer.apass - 1
        for fb in range(layer.fpass):
            fsl = slice(fb * LANES, (fb + 1) * LANES)
            self._acc[fb] += signed @ self._w[asl, fsl]
            if last:
                vals = requantize_array(
                    self._acc[fb], self._mults[fsl], self._shifts[fsl],
                    layer.out_zero, self.rounding,
                )
                self._out[:, fsl] = np.clip(vals, 0, 255)
        if self.probe is not None:
            self.probe(ab, self._acc.copy())
        self._next_batch = ab + 1

    def outputs(self) -> np.ndarray:
        if self._acc is None or self._next_batch != self.layer.apass:
            raise DomainError("expansion frame is not finished")
        return self._out

    def output_batch(self, fb: int) -> np.ndarray:
        """One finished 16-filter slice of the frame, (pixels, 16)."""
        out = self.outputs()
        return out[:, fb * LANES : (fb + 1) * LANES]


# ---------------------------------------------------------------------------
# ADD: residual addition
# ---------------------------------------------------------------------------

def add_elements(
    a1: np.ndarray, a2: np.ndarray, params: AddParams,
    rounding: Rounding = Rounding.NEAREST,
) -> np.ndarray:
    """Elementwise fixed-point addition of two uint8 arrays.

    Each operand is zero-point corrected, widened by the 2**20 headroom
    shift, scaled onto the common intermediate grid by its multiplier,
    and the sum is rescaled onto the output grid. Returns uint8.
    """
    x1 = (np.asarray(a1, dtype=np.int64) - params.in1_zero) << params.pre_shift
    x2 = (np.asarray(a2, dtype=np.int64) - params.in2_zero) << params.pre_shift
    t1 = _scale_signed(x1, params.mult1.mult, params.mult1.shift, rounding)
    t2 = _scale_signed(x2, params.mult2.mult, params.mult2.shift, rounding)
    vals = _scale_signed(t1 + t2, params.mult3.mult, params.mult3.shift, rounding)
    return np.clip(vals + params.out_zero, 0, 255).astype(np.uint8)


def _scale_signed(x: np.ndarray, mult: int, shift: int, rounding: Rounding) -> np.ndarray:
    prod = x * mult
    if rounding is Rounding.TRUNCATE:
        return prod >> shift
    half = np.int64(1) << (shift - 1)
    mag = (np.abs(prod) + half) >> shift
    return np.where(prod < 0, -mag, mag)


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
    out = add_elements(x1.data, x2.data, layer.add_params, rounding)
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
    stats = nominal_stats(layer)
    stats.madds = 0
    return _out_tensor(layer, x.data.copy()), stats


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
    engine = {"DWC": "DWC", "PRO": "PRO", "EXP": "EXP"}.get(layer.kind.value)
    if engine is None:
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
        bias_lane_bits=18 if engine == "PRO" else 16,
    )


def run_layer(
    x: QTensor, layer: LayerDesc, residual: QTensor | None = None,
    rounding: Rounding = Rounding.NEAREST,
) -> tuple[QTensor, EngineStats]:
    """Dispatch one layer to its engine."""
    if layer.kind is Kind.C2D:
        return c2d_forward(x, layer, rounding)
    if layer.kind is Kind.DWC:
        return dwc_forward(x, layer, rounding)
    if layer.kind is Kind.AVGPOOL:
        return dwc_avgpool(x, layer, rounding)
    if layer.kind is Kind.PRO:
        return pro_forward(x, layer, rounding)
    if layer.kind is Kind.EXP:
        return exp_forward(x, layer, rounding)
    if layer.kind is Kind.ADD:
        if layer.residual_from is None:
            if residual is not None:
                raise DomainError("pass-through slot received a residual operand")
            return add_passthrough(x, layer)
        if residual is None:
            raise DomainError("shortcut layer is missing its residual operand")
        return add_forward(x, residual, layer, rounding)
    raise DomainError(f"no engine for {layer.kind}")

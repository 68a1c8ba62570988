"""Reference evaluators, written independently of the engines.

naive_quant_layer computes each layer by the direct definition: pad,
take full dense dot products in wide integers, rescale. It shares the
model's integer parameters (so results must match the engines bit for
bit) but none of the engines' pass structure or code, which is what
makes agreement between the two a meaningful check.

float_layer evaluates one layer in real arithmetic on dequantized
values, clamping each activation to its representable quantized range.
The gap between a quantized layer and the float layer bounds the
rounding error the integer pipeline introduces.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .modelkit import Kind, LayerDesc, PreparedModel, QTensor
from .quantcore import Rounding


def dequantize(data: np.ndarray, scale: float, zero_point: int) -> np.ndarray:
    """Map uint8 codes onto the real line."""
    return (np.asarray(data, dtype=np.float64) - zero_point) * scale


def _rescale(acc: np.ndarray, mult: np.ndarray, shift: np.ndarray,
             rounding: Rounding) -> np.ndarray:
    # own fixed-point rescale: multiply into int64, shift right with the
    # selected rounding (half away from zero, or plain floor). Rounding
    # uses floor((m + 2**(s-1)) / 2**s) == (floor(m / 2**(s-1)) + 1) >> 1,
    # which never forms 1 << (s - 1): at s = 64 that wraps in int64.
    prod = acc.astype(np.int64) * mult
    if rounding is Rounding.TRUNCATE:
        return prod >> shift
    neg = prod < 0
    mag = ((np.where(neg, -prod, prod) >> (shift - 1)) + 1) >> 1
    return np.where(neg, -mag, mag)


def naive_quant_layer(
    x: np.ndarray | QTensor,
    layer: LayerDesc,
    residual: np.ndarray | QTensor | None = None,
    rounding: Rounding = Rounding.NEAREST,
) -> np.ndarray:
    """Evaluate one layer directly on uint8 data, returning uint8.

    x is (h, w, c), either a plain array or a QTensor. For addition
    layers with a shortcut, residual is the second operand.
    """
    if isinstance(x, QTensor):
        x = x.data
    if isinstance(residual, QTensor):
        residual = residual.data
    x = np.asarray(x, dtype=np.int64)
    if layer.kind is Kind.ADD:
        if layer.residual_from is None:
            return x.astype(np.uint8)
        if residual is None:
            raise DomainError("shortcut layer needs its residual operand")
        p = layer.add_params
        # pairs of input, residual and output; operands get 20 bits of headroom
        mult, shift = p.mults.mult, p.mults.shift
        r = np.asarray(residual, dtype=np.int64)
        a1 = _rescale((x - layer.in_zero) << 20, mult[0], shift[0], rounding)
        a2 = _rescale((r - p.in2_zero) << 20, mult[1], shift[1], rounding)
        out = _rescale(a1 + a2, mult[2], shift[2], rounding) + layer.out_zero
        return np.clip(out, 0, 255).astype(np.uint8)

    if layer.kind in (Kind.C2D, Kind.DWC):
        padded = np.pad(x, ((1, 1), (1, 1), (0, 0)), constant_values=layer.in_zero)
        s = layer.stride
        oh, ow = layer.out_h, layer.out_w
        f = layer.filters
        w = f.weights.astype(np.int64) - f.zero_points
        acc = np.zeros((oh, ow, layer.out_ch), dtype=np.int64)
        acc += f.biases
        for i in range(3):
            for j in range(3):
                patch = padded[i : i + s * oh : s, j : j + s * ow : s] - layer.in_zero
                if layer.kind is Kind.C2D:
                    acc += np.einsum("hwc,cf->hwf", patch, w[i, j])
                else:
                    acc += patch * w[i, j, 0]
    elif layer.kind in (Kind.EXP, Kind.PRO):
        f = layer.filters
        w = f.weights[0, 0].astype(np.int64) - f.zero_points
        acc = (x - layer.in_zero) @ w + f.biases
    elif layer.kind is Kind.AVGPOOL:
        acc = (x - layer.in_zero).sum(axis=(0, 1), keepdims=True)
    else:
        raise DomainError(f"no reference evaluator for {layer.kind}")
    out = _rescale(acc, layer.mults.mult, layer.mults.shift, rounding) + layer.out_zero
    return np.clip(out, 0, 255).astype(np.uint8)


def run_model_naive(
    model: PreparedModel,
    image: np.ndarray,
    rounding: Rounding | None = None,
) -> np.ndarray:
    """Evaluate the whole model directly; returns the final uint8 frame."""
    rounding = model.rounding if rounding is None else rounding
    sources = model.residual_sources
    kept: dict[int, np.ndarray] = {}
    x = np.asarray(image, dtype=np.uint8)
    for idx, layer in enumerate(model.layers):
        residual = kept.pop(layer.residual_from, None) if layer.kind is Kind.ADD else None
        x = naive_quant_layer(x, layer, residual=residual, rounding=rounding)
        if idx in sources:
            kept[idx] = x
    return x


# ---------------------------------------------------------------------------
# real-arithmetic reference
# ---------------------------------------------------------------------------

def _clamp_to_grid(values: np.ndarray, scale: float, zero: int) -> np.ndarray:
    lo = (0 - zero) * scale
    hi = (255 - zero) * scale
    return np.clip(values, lo, hi)


def float_layer(
    x: np.ndarray,
    layer: LayerDesc,
    residual: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate one layer in real arithmetic on dequantized activations.

    The result is clamped to the output edge's representable range,
    which is the real-valued image of the uint8 clamp.
    """
    x = np.asarray(x, dtype=np.float64)
    if layer.kind in (Kind.C2D, Kind.DWC, Kind.EXP, Kind.PRO):
        f = layer.filters
        w_real = (f.weights.astype(np.float64) - f.zero_points) * f.scales
        bias_real = f.biases.astype(np.float64) * layer.in_scale * f.scales
        if layer.kind in (Kind.C2D, Kind.DWC):
            padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
            s = layer.stride
            oh, ow = layer.out_h, layer.out_w
            acc = np.zeros((oh, ow, layer.out_ch))
            for i in range(3):
                for j in range(3):
                    patch = padded[i : i + s * oh : s, j : j + s * ow : s]
                    if layer.kind is Kind.C2D:
                        acc += np.einsum("hwc,cf->hwf", patch, w_real[i, j])
                    else:
                        acc += patch * w_real[i, j, 0]
        else:
            acc = x @ w_real[0, 0]
        acc += bias_real
        return _clamp_to_grid(acc, layer.out_scale, layer.out_zero)

    if layer.kind is Kind.AVGPOOL:
        acc = x.mean(axis=(0, 1), keepdims=True)
        return _clamp_to_grid(acc, layer.out_scale, layer.out_zero)

    if layer.kind is Kind.ADD:
        if layer.residual_from is None:
            return x
        if residual is None:
            raise DomainError("shortcut layer needs its residual operand")
        return _clamp_to_grid(x + residual, layer.out_scale, layer.out_zero)

    raise DomainError(f"no real-arithmetic evaluator for {layer.kind}")

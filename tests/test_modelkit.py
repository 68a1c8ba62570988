"""Model construction, channel padding, parameter derivation, packages."""
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistream.dataflow import run_inference
from semistream.engines import run_layer
from semistream.errors import DomainError, FormatError, PlanError, RangeError, SemistreamError
from semistream.modelkit import (
    ACC_BOUND,
    LANES,
    BlockSpec,
    Kind,
    LayerDesc,
    ModelGraph,
    QFilterSet,
    QTensor,
    _factors,
    build_mobilenet_v2,
    build_model,
    check_acc_bound,
    image_to_qtensor,
    load_image,
    load_package,
    pad16,
    pad_channels,
    prepare,
    save_package,
    save_ppm,
    save_raw,
    validate_graph,
)
from semistream.oracle import run_model_naive
from semistream.quantcore import (
    Rounding,
    bias_limits,
    first_bad_factor,
    narrow_bias,
    pack_multipliers,
    quantize_multipliers,
)

from conftest import c2d_layer, encode, pointwise_layer, random_filters, toy_model, toy_pair


# ---------------------------------------------------------------------------
# standard topology
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def standard():
    return prepare(build_mobilenet_v2(seed=0))


def test_standard_layer_and_block_counts(standard):
    assert len(standard.layers) == 71
    assert standard.num_blocks == 17
    assert standard.resolution == 224


def test_standard_entry_layer(standard):
    entry = standard.layers[0]
    assert entry.kind is Kind.C2D
    assert (entry.in_h, entry.in_w, entry.in_ch) == (224, 224, 3)
    assert (entry.out_h, entry.out_w, entry.out_ch) == (112, 112, 32)
    assert entry.stride == 2


def test_standard_head_layers(standard):
    exp, pool, cls = standard.layers[-3:]
    assert exp.kind is Kind.EXP
    assert (exp.in_ch, exp.out_ch) == (320, 1280)
    assert pool.kind is Kind.AVGPOOL
    assert (pool.in_h, pool.in_w) == (7, 7)
    assert (pool.out_h, pool.out_w) == (1, 1)
    assert cls.kind is Kind.PRO
    assert cls.orig_out_ch == 1000
    assert cls.out_ch == 1008
    assert cls.bias_bits == 18


def test_standard_padded_layers(standard):
    out_padded = [i for i, l in enumerate(standard.layers) if l.out_ch != l.orig_out_ch]
    in_padded = [i for i, l in enumerate(standard.layers) if l.in_ch != l.orig_in_ch]
    # the 24-channel stage and the classifier are the only non-multiples of 16
    assert out_padded == [6, 7, 10, 11, 70]
    assert in_padded == [7, 8, 11, 12]


def test_standard_residual_blocks(standard):
    with_shortcut = sorted(
        l.block for l in standard.layers
        if l.kind is Kind.ADD and l.residual_from is not None
    )
    assert with_shortcut == [2, 4, 5, 7, 8, 9, 11, 12, 14, 15]


def test_standard_first_block_has_no_expansion(standard):
    kinds = [l.kind for l in standard.layers if l.block == 0]
    assert Kind.EXP not in kinds
    kinds = [l.kind for l in standard.layers if l.block == 1]
    assert Kind.EXP in kinds


def test_build_is_deterministic():
    a = prepare(build_mobilenet_v2(seed=5, resolution=32))
    b = prepare(build_mobilenet_v2(seed=5, resolution=32))
    assert a == b
    c = prepare(build_mobilenet_v2(seed=6, resolution=32))
    assert a != c
    # layers that differ in one multiplier differ
    layer = a.layers[0]
    mult = layer.mults.mult.copy()
    mult[3] ^= 1
    assert dataclasses.replace(layer) == layer
    assert dataclasses.replace(layer, mults=pack_multipliers(mult, layer.mults.shift)) != layer


def test_records_compare_field_by_field():
    """Array-holding records are equal when every field is, arrays by
    value, and leave a comparison with any other type to Python."""
    t = QTensor(1, 2, 3, np.arange(6).reshape(1, 2, 3), 5, 0.5)
    assert t == QTensor(1, 2, 3, np.arange(6, dtype=np.uint8).reshape(1, 2, 3), 5, 0.5)
    assert t != dataclasses.replace(t, data=np.ones((1, 2, 3), np.uint8))
    assert t != dataclasses.replace(t, scale=0.25)
    model = prepare(build_mobilenet_v2(0.5, 32))
    layer = model.layers[0]
    bumped = layer.filters.biases.copy()
    bumped[0] += 1
    assert layer.filters != dataclasses.replace(layer.filters, biases=bumped)
    assert model != dataclasses.replace(model, seed=1)
    for record in (t, layer.filters, layer, model):
        assert record.__eq__(object()) is NotImplemented and record != 1
    assert t.__eq__(layer) is NotImplemented


def test_prepare_leaves_earlier_models_alone():
    graph = build_mobilenet_v2(seed=0, resolution=32)
    first = prepare(graph, Rounding.NEAREST)
    prepare(graph, Rounding.TRUNCATE)
    assert first == prepare(build_mobilenet_v2(seed=0, resolution=32), Rounding.NEAREST)


def test_resolution_must_divide_32():
    with pytest.raises(DomainError):
        build_mobilenet_v2(resolution=100)


def test_width_multiplier_integrality():
    build_mobilenet_v2(width_multiplier=0.5, resolution=32)
    with pytest.raises(DomainError):
        build_mobilenet_v2(width_multiplier=1.3, resolution=32)


@pytest.mark.parametrize("width", [float("nan"), float("inf"), 0.0, -0.5])
def test_width_multiplier_must_be_positive_and_finite(width):
    with pytest.raises(DomainError, match="positive and finite"):
        build_mobilenet_v2(width, 32)


def test_build_rejects_a_negative_seed():
    with pytest.raises(DomainError, match="seed -1"):
        build_model([BlockSpec(1, 16, 1)], 8, seed=-1)


def test_width_multiplier_scales_channels():
    graph = build_mobilenet_v2(width_multiplier=0.5, resolution=32)
    # entry conv is pinned at 32 filters regardless of width
    assert graph.layers[0].out_ch == 32
    pros = [l for l in graph.layers if l.kind is Kind.PRO and l.block == 0]
    assert pros[0].out_ch == 8


# ---------------------------------------------------------------------------
# parameter derivation
# ---------------------------------------------------------------------------

def _singleton_graph(layer: LayerDesc, resolution: int = 224) -> ModelGraph:
    bare = dataclasses.replace(layer, mults=None)
    return ModelGraph([bare], resolution=resolution)


def test_prepare_known_multiplier():
    rng = np.random.default_rng(3)
    layer = c2d_layer(rng)
    layer.filters.scales[:] = 0.375 * layer.out_scale / layer.in_scale
    mults = prepare(_singleton_graph(layer)).layers[0].mults
    assert mults.mult.tolist() == [3221225472] * 32
    assert mults.shift.tolist() == [33] * 32


#: sha-256 of every derived (mult, shift) column and every shortcut's
#: parameters of mnv2 0.5/64 under both roundings and of toy models 0-7.
#: It was taken while layers still held lists of scalar pairs, so it also
#: shows that packing them into arrays changed no parameter. A shortcut
#: hashes the tuple its parameters were once stored as: its three pairs,
#: its input, residual and output zero points, and the 20-bit headroom
#: shift.
PARAMETER_DIGEST = "7b62f757b752f532cb85d020b60bd5d538dd7024ea2e92b69e92b31d5d3c73d0"


def test_every_derived_parameter_is_pinned():
    models = [prepare(build_mobilenet_v2(0.5, 64), rounding) for rounding in Rounding]
    models += [toy_pair(seed)[0] for seed in range(8)]
    h = hashlib.sha256()
    for model in models:
        for layer in model.layers:
            h.update(layer.kind.value.encode())
            if layer.mults is None:
                h.update(b"-")
            else:
                h.update(np.asarray(layer.mults.mult, dtype="<i8").tobytes())
                h.update(np.asarray(layer.mults.shift, dtype="<i8").tobytes())
            p = layer.add_params
            h.update(b"-" if p is None else repr((
                *(v for pair in p.mults.tolist() for v in pair),
                layer.in_zero, p.in2_zero, layer.out_zero, 20)).encode())
    assert h.hexdigest() == PARAMETER_DIGEST


#: sha-256 over every field and filter array of the graphs below, as the
#: generator draws them; the frozen benchmark reference draws the same.
GRAPH_DIGEST = "0beb09bc54750cf2e09dc045fe4f3132b09892ea28a66be8db02ba01d23c4e46"


def _hash_value(h, v) -> None:
    if dataclasses.is_dataclass(v):
        h.update(type(v).__name__.encode())
        for f in dataclasses.fields(v):
            h.update(f.name.encode())
            _hash_value(h, getattr(v, f.name))
    elif isinstance(v, np.ndarray):
        h.update(f"{v.dtype.str}{v.shape}".encode())
        h.update(np.ascontiguousarray(v).tobytes())
    elif isinstance(v, (list, tuple)):
        for x in v:
            _hash_value(h, x)
    else:
        h.update(repr(v.item() if isinstance(v, np.generic) else v).encode())


def test_every_generated_graph_is_pinned():
    """Weights, biases, zero points, scales and edges of generated graphs
    are pinned in draw order: the standard topology, a toy with a head
    and a headless toy with an expand-1 block after an expanding one."""
    graphs = [
        build_mobilenet_v2(0.5, 64, seed=3),
        build_model([BlockSpec(1, 16, 1), BlockSpec(6, 24, 2), BlockSpec(6, 24, 1)], 16,
                    seed=11, head_channels=48, classes=10),
        build_model([BlockSpec(4, 24, 2), BlockSpec(1, 24, 1), BlockSpec(3, 40, 1)], 12,
                    seed=12, include_head=False),
    ]
    h = hashlib.sha256()
    for graph in graphs:
        _hash_value(h, graph)
    assert h.hexdigest() == GRAPH_DIGEST


def test_prepare_rejects_out_of_range_rescale():
    rng = np.random.default_rng(4)
    layer = c2d_layer(rng)
    layer.filters.scales[7] = 2.5 * layer.out_scale / layer.in_scale
    with pytest.raises(DomainError, match="channel 7"):
        prepare(_singleton_graph(layer))


@pytest.mark.parametrize("where", ["pool", "addition"])
def test_prepare_names_the_layer_of_an_unencodable_factor(where):
    """A pooling or addition factor too small for an 8-bit shift is named by
    its layer, as a filter bank's is by layer and channel."""
    graph = build_model([BlockSpec(2, 8, 1), BlockSpec(3, 8, 1)], 8, seed=3,
                        head_channels=24, classes=10)
    layers = list(graph.layers)
    idx = next(i for i, l in enumerate(layers) if (l.kind is Kind.AVGPOOL if where == "pool"
                                                    else l.residual_from is not None))
    layers[idx] = dataclasses.replace(layers[idx], out_scale=1e300)
    layers[idx + 1] = dataclasses.replace(layers[idx + 1], in_scale=1e300)
    prefix = f"pool layer {idx}" if where == "pool" else f"addition layer {idx} output"
    with pytest.raises(DomainError, match=f"{prefix}: rescale factor .* needs a shift beyond 255"):
        prepare(dataclasses.replace(graph, layers=layers))


def test_prepare_accepts_wide_projection_bias():
    rng = np.random.default_rng(5)
    layer = pointwise_layer(rng, Kind.PRO, h=4, w=4, cin=16, cout=16)
    layer.filters.biases[0] = 131071
    model = prepare(_singleton_graph(layer, resolution=4))
    assert model.layers[0].filters.biases[0] == 131071


def test_prepare_rejects_wide_conv_bias():
    rng = np.random.default_rng(6)
    layer = pointwise_layer(rng, Kind.EXP, h=4, w=4, cin=16, cout=16)
    layer.filters.biases[0] = 32768
    with pytest.raises(RangeError):
        prepare(_singleton_graph(layer, resolution=4))


def test_prepare_names_the_first_wide_bias():
    rng = np.random.default_rng(6)
    layer = pointwise_layer(rng, Kind.EXP, h=4, w=4, cin=16, cout=16)
    layer.filters.biases[3] = 40000
    layer.filters.biases[9] = -50000
    with pytest.raises(RangeError, match="bias 40000 does not fit 16 signed bits"):
        prepare(_singleton_graph(layer, resolution=4))


def test_prepare_equal_scale_addition_is_symmetric():
    model = toy_model(20)
    adds = [l for l in model.layers
            if l.kind is Kind.ADD and l.residual_from is not None]
    assert adds, "toy model draw without a shortcut; pick another seed"
    half = encode([0.5])[0].tolist()
    for l in adds:
        operands = l.add_params.mults[:2].tolist()
        s1 = l.in_scale
        s2 = model.layers[l.residual_from].out_scale
        if s1 == s2:
            assert operands[0] == operands[1] == half
        # the larger-scaled operand always normalizes to exactly 1/2
        assert max(operands, key=lambda m: m[0] * 2.0 ** -m[1]) == half


def test_prepare_rejects_accumulators_beyond_2_30():
    # 16512 * 255**2 plus a bias below 49024 stays under 2**30; one more
    # input channel (padded to 16528) does not
    rng = np.random.default_rng(16)
    fits = pointwise_layer(rng, Kind.PRO, h=1, w=1, cin=16512, cout=16)
    prepare(_singleton_graph(fits, resolution=1))
    # built by hand, since pointwise_layer's own derivation rejects it
    over = LayerDesc(
        kind=Kind.PRO, in_h=1, in_w=1, in_ch=16513, out_h=1, out_w=1, out_ch=16,
        in_scale=fits.in_scale, in_zero=0, out_scale=fits.out_scale, out_zero=0,
        filters=random_filters(rng, 1, 1, 16513, 16, fits.in_scale, fits.out_scale),
    )
    with pytest.raises(DomainError, match=r"2\*\*30"):
        prepare(_singleton_graph(over, resolution=1))


#: Faults a derivation rejects, each injected into one prepared layer.
FAULTS = ("bank factor", "pool factor", "addition factor", "wide bias", "accumulator bound")


def _fault_applies(fault: str, layer: LayerDesc) -> bool:
    if fault == "pool factor":
        return layer.kind is Kind.AVGPOOL
    if fault == "addition factor":
        return layer.residual_from is not None
    return layer.filters is not None


def _inject(layers: list[LayerDesc], idx: int, fault: str) -> None:
    """Break layers[idx] in place of the list; each value depends on idx, so
    two faults of one kind still give two different messages."""
    l = layers[idx]
    if fault in ("pool factor", "addition factor"):
        # an output scale far above the input's: the factor needs a shift beyond 255
        layers[idx] = dataclasses.replace(l, out_scale=1e300 / (idx + 1))
        if idx + 1 < len(layers):
            layers[idx + 1] = dataclasses.replace(layers[idx + 1], in_scale=1e300 / (idx + 1))
        return
    f = l.filters
    scales, biases = f.scales.copy(), f.biases.copy()
    c = idx % l.orig_out_ch
    if fault == "bank factor":
        scales[c] = (3 + idx) * l.out_scale / l.in_scale  # a factor of about 3 + idx
    elif fault == "wide bias":
        biases[c] = bias_limits(l.bias_bits)[1] + 1 + idx
    else:  # also too wide: the bound must be named first
        biases[c] = ACC_BOUND + idx
    layers[idx] = dataclasses.replace(l, filters=QFilterSet(
        f.kernel_h, f.kernel_w, f.in_channels, f.out_channels, f.weights.copy(),
        f.zero_points.copy(), scales, biases))


def _layer_by_layer_error(layers: list[LayerDesc]) -> tuple[type, str] | None:
    """The error a derivation that checks one layer at a time raises first:
    per layer the accumulator bound, then the rescale factors, then the
    biases, each naming its first bad channel."""
    for idx, l in enumerate(layers):
        try:
            check_acc_bound(l)
            if l.filters is not None:
                with np.errstate(all="ignore"):  # nan and inf factors are rejected below
                    m = l.in_scale * l.filters.scales / l.out_scale
                where = f"layer {idx} channel "
            elif l.kind is Kind.AVGPOOL:
                m = np.full(l.out_ch, l.in_scale / (float(l.in_h * l.in_w) * l.out_scale))
                where = f"pool layer {idx}"
            elif l.residual_from is not None:
                s1, s2, so = l.in_scale, layers[l.residual_from].out_scale, l.out_scale
                smax = max(s1, s2)
                m = np.array([s1 / (2.0 * smax), s2 / (2.0 * smax),
                              2.0 * smax / (float(1 << 20) * so)])
                where = f"addition layer {idx} "
            else:
                continue
            fault = first_bad_factor(m)
            if fault is not None:
                part = (str(fault[0]) if l.filters is not None else "" if l.kind is Kind.AVGPOOL
                        else ("input", "residual", "output")[fault[0]])
                raise DomainError(f"{where}{part}: {fault[1]}")
            for b in l.filters.biases if l.filters is not None else ():
                narrow_bias(b, l.bias_bits)
        except SemistreamError as e:
            return type(e), str(e)
    return None


@pytest.fixture(scope="module")
def fault_models():
    return {head: [toy_model(seed, include_head=head) for seed in range(12)]
            for head in (False, True)}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_derivation_names_the_earliest_of_two_faults(fault_models, tmp_path_factory, data):
    """With faults at layers i < j, of any two kinds, prepare and
    load_package raise the fault at i, with the class and message a
    layer-by-layer derivation gives, although the model is encoded in
    whole-model passes."""
    model = data.draw(st.sampled_from(fault_models[data.draw(st.booleans())]))
    sites = [(idx, fault) for idx, l in enumerate(model.layers) for fault in FAULTS
             if _fault_applies(fault, l)]

    def draw_site(lo: int, hi: int) -> tuple[int, str]:
        # the kind first, so that rare kinds (pooling, addition) come up as often
        inside = [s for s in sites if lo < s[0] < hi]
        fault = data.draw(st.sampled_from([f for f in FAULTS if any(s[1] == f for s in inside)]))
        return data.draw(st.sampled_from([s for s in inside if s[1] == fault]))

    i, first = draw_site(-1, max(idx for idx, _ in sites))
    j, second = draw_site(i, len(model.layers))
    only_i = list(model.layers)
    _inject(only_i, i, first)
    both = list(only_i)
    _inject(both, j, second)
    want = _layer_by_layer_error(both)
    assert want is not None and want == _layer_by_layer_error(only_i)
    graph = ModelGraph(both, model.resolution, model.width_multiplier, model.seed)
    with pytest.raises(want[0]) as raised:
        prepare(graph)
    assert str(raised.value) == want[1]
    root = save_package(dataclasses.replace(model, layers=both), tmp_path_factory.mktemp("pkg"))
    with pytest.raises(want[0]) as raised:
        load_package(root)
    assert str(raised.value) == want[1]


def test_prepare_and_load_encode_each_model_in_one_call(tmp_path, monkeypatch):
    """The whole model's multipliers are encoded by one quantize_multipliers
    call, in prepare and again in load_package, never one per layer."""
    import semistream.modelkit as modelkit

    calls = []
    real = modelkit.quantize_multipliers
    monkeypatch.setattr(modelkit, "quantize_multipliers",
                        lambda *a, **k: calls.append(a[0].size) or real(*a, **k))
    model = prepare(build_mobilenet_v2(0.5, 64))
    assert len(calls) == 1
    load_package(save_package(model, tmp_path))
    assert len(calls) == 2 and calls[0] == calls[1]


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory, down its chain of views."""
    while a.base is not None:
        a = a.base
    return a


def test_shortcut_pairs_are_rows_of_the_packed_array(tmp_path):
    """After prepare and after load_package, each shortcut's
    add_params.mults is a read-only 3-row slice of the packed array a
    filter layer's mults slices too, equal to the encoding of its three
    factors, and its in2_zero and in2_scale are its residual source's
    out_zero and out_scale; its own mults stay None."""
    models = [prepare(build_mobilenet_v2(0.5, 64))] + [toy_pair(seed)[0] for seed in range(8)]
    shortcuts = 0
    for k, model in enumerate(models):
        for m in (model, load_package(save_package(model, tmp_path / str(k)))):
            packed = _owner(next(l.mults for l in m.layers if l.filters is not None))
            for l in m.layers:
                p = l.add_params
                if p is None:
                    continue
                shortcuts += 1
                assert l.mults is None and p.mults.shape == (3,)
                assert not p.mults.flags.writeable and np.shares_memory(p.mults, packed)
                mults, shifts = quantize_multipliers(_factors(l, m.layers), m.rounding)
                assert p.mults.mult.tolist() == mults.tolist()
                assert p.mults.shift.tolist() == shifts.tolist()
                assert p.in2_zero == m.layers[l.residual_from].out_zero
                assert p.in2_scale == m.layers[l.residual_from].out_scale
    assert shortcuts > 2 * 10  # mnv2 0.5/64 has ten, and some toy models more


def test_prepare_and_load_rebuild_few_layers(tmp_path, monkeypatch):
    """prepare rebuilds each filter layer once, on its own padded copy of
    the bank, an addition or pooling layer only where its channels need
    padding, and each layer that gains derived parameters once more;
    load_package rebuilds only the layers that gain them. On mnv2 0.5/64,
    of 71 layers: 53 filter layers, 3 additions of 8 or 12 channels and
    64 rescaling layers in prepare, the 64 in load_package."""
    graph = build_mobilenet_v2(0.5, 64, seed=1)
    rebuilt = []
    real = dataclasses.replace
    monkeypatch.setattr(dataclasses, "replace", lambda obj, /, **changes: (
        rebuilt.append(obj) if isinstance(obj, LayerDesc) else None) or real(obj, **changes))
    model = prepare(graph)
    assert len(model.layers) == 71 and len(rebuilt) == 53 + 3 + 64
    for given, layer in zip(graph.layers, model.layers):
        kept = given.filters is None and given.residual_from is None and (
            given.out_ch % LANES == 0) and given.kind is Kind.ADD
        assert (layer is given) == kept  # an aligned pass-through slot is the graph's own
    rebuilt.clear()
    load_package(save_package(model, tmp_path))
    assert len(rebuilt) == 64


def test_prepare_pass_counts():
    model = prepare(build_mobilenet_v2(seed=0, resolution=32))
    for l in model.layers:
        if l.kind is Kind.C2D:
            assert (l.apass, l.fpass) == (1, 2)
        elif l.kind in (Kind.DWC, Kind.AVGPOOL, Kind.ADD):
            assert l.apass == l.fpass == l.out_ch // LANES
        else:
            assert l.apass == l.in_ch // LANES
            assert l.fpass == l.out_ch // LANES


def test_pass_counts_and_bias_width_follow_kind_and_channels():
    rng = np.random.default_rng(7)
    pro = pointwise_layer(rng, Kind.PRO, cin=32, cout=48)
    facts = lambda l: (l.apass, l.fpass, l.bias_bits)  # noqa: E731
    assert facts(pro) == (2, 3, 18)
    assert facts(dataclasses.replace(pro, kind=Kind.EXP)) == (2, 3, 16)
    assert facts(dataclasses.replace(pro, kind=Kind.C2D)) == (1, 3, 16)
    assert facts(dataclasses.replace(pro, in_ch=64, out_ch=16)) == (4, 1, 18)
    pool = dataclasses.replace(pro, kind=Kind.AVGPOOL, in_ch=48, filters=None)
    assert facts(pool) == (3, 3, 16)  # pooling runs on the depthwise engine
    add = dataclasses.replace(pro, kind=Kind.ADD, in_ch=48, filters=None)
    assert facts(add) == (3, 3, None)  # the addition engine has no bias
    # derived, so neither settable nor a constructor argument
    assert sum(f.init for f in dataclasses.fields(LayerDesc)) == 19
    for name in ("apass", "fpass", "bias_bits"):
        with pytest.raises(AttributeError):
            setattr(pro, name, 1)
        with pytest.raises(TypeError):
            dataclasses.replace(pro, **{name: 1})


# ---------------------------------------------------------------------------
# channel padding
# ---------------------------------------------------------------------------

def test_pad16():
    assert [pad16(v) for v in (1, 15, 16, 17, 24, 1000)] == [16, 16, 16, 32, 32, 1008]


def test_pad_channels_geometry_and_idempotence():
    rng = np.random.default_rng(9)
    layer = pointwise_layer(rng, Kind.PRO, h=3, w=3, cin=16, cout=16)
    layer = dataclasses.replace(
        layer, in_ch=12, out_ch=9, orig_in_ch=0, orig_out_ch=0, filters=QFilterSet(
            1, 1, 12, 9,
            weights=rng.integers(0, 256, size=(1, 1, 12, 9), dtype=np.uint8),
            zero_points=rng.integers(0, 256, size=9),
            scales=np.full(9, 0.25 * layer.out_scale / layer.in_scale),
            biases=rng.integers(-100, 100, size=9),
        ))
    padded = pad_channels(layer)
    assert (padded.in_ch, padded.out_ch) == (16, 16)
    assert (padded.orig_in_ch, padded.orig_out_ch) == (12, 9)
    assert padded.filters.weights.shape == (1, 1, 16, 16)
    again = pad_channels(padded)
    assert again.filters.weights.shape == (1, 1, 16, 16)
    assert np.array_equal(again.filters.weights, padded.filters.weights)


def test_pad_channels_new_positions_are_inert():
    rng = np.random.default_rng(10)
    layer = pointwise_layer(rng, Kind.PRO, h=2, w=2, cin=16, cout=16)
    layer = dataclasses.replace(
        layer, in_ch=10, out_ch=5, orig_in_ch=0, orig_out_ch=0, filters=QFilterSet(
            1, 1, 10, 5,
            weights=rng.integers(0, 256, size=(1, 1, 10, 5), dtype=np.uint8),
            zero_points=rng.integers(0, 256, size=5),
            scales=np.full(5, 0.25 * layer.out_scale / layer.in_scale),
            biases=rng.integers(-100, 100, size=5),
        ))
    padded = pad_channels(layer)
    f = padded.filters
    # extended input positions of original filters hold that filter's
    # own zero point, so (w - w0) vanishes there
    for filt in range(5):
        assert np.all(f.weights[0, 0, 10:, filt] == f.zero_points[filt])
    # whole padded filters are inert: all-zero-point weights, zero bias
    for filt in range(5, 16):
        assert np.all(f.weights[0, 0, :, filt] == f.zero_points[filt])
        assert f.biases[filt] == 0


def test_pad_channels_rejects_other_kinds():
    rng = np.random.default_rng(11)
    with pytest.raises(DomainError):
        pad_channels(c2d_layer(rng))


# ---------------------------------------------------------------------------
# graph validation
# ---------------------------------------------------------------------------

def test_validate_graph_catches_broken_chain():
    graph = build_mobilenet_v2(seed=0, resolution=32)
    graph.layers[3] = dataclasses.replace(graph.layers[3], in_ch=77)
    with pytest.raises(DomainError, match="chain"):
        validate_graph(graph)


def test_validate_graph_catches_quant_edge_mismatch():
    graph = build_mobilenet_v2(seed=0, resolution=32)
    graph.layers[2] = dataclasses.replace(graph.layers[2], in_zero=(graph.layers[2].in_zero + 1) % 256)
    with pytest.raises(DomainError, match="quantization"):
        validate_graph(graph)


def test_validate_graph_catches_bad_stride_dims():
    rng = np.random.default_rng(12)
    layer = c2d_layer(rng)
    layer = dataclasses.replace(layer, out_h=113)
    with pytest.raises(DomainError, match="stride"):
        validate_graph(ModelGraph([layer], resolution=224))


def test_validate_graph_checks_filters_per_kind():
    graph = build_mobilenet_v2(seed=0, resolution=32)
    layers = list(graph.layers)
    dwc = next(i for i, l in enumerate(layers) if l.kind is Kind.DWC)
    graph.layers[dwc] = dataclasses.replace(layers[dwc], filters=None)
    with pytest.raises(DomainError, match="DWC layers need filters"):
        validate_graph(graph)
    graph.layers = layers
    add = next(i for i, l in enumerate(layers) if l.kind is Kind.ADD)
    layers[add] = dataclasses.replace(layers[add], filters=layers[add - 1].filters)
    with pytest.raises(DomainError, match="ADD layers carry no filters"):
        validate_graph(graph)


# ---------------------------------------------------------------------------
# package round-trips
# ---------------------------------------------------------------------------

def small_model():
    """Two blocks, one shortcut and a small classification head."""
    blocks = [BlockSpec(2, 8, 1), BlockSpec(3, 8, 1)]
    return prepare(build_model(blocks, 8, seed=3, head_channels=24, classes=10))


def _rewrite_manifest(root: Path, edit) -> None:
    """Apply an in-place edit to a package's manifest."""
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))

def test_package_roundtrip_many_models(tmp_path):
    for seed in range(100):
        model = toy_model(seed )if seed % 3 else toy_model(seed, include_head=True)
        target = tmp_path / f"m{seed}"
        save_package(model, target)
        assert load_package(target) == model


def test_package_saving_is_byte_stable(tmp_path):
    model = toy_model(1)
    save_package(model, tmp_path / "a")
    save_package(model, tmp_path / "b")
    a = sorted((tmp_path / "a").rglob("*"))
    b = sorted((tmp_path / "b").rglob("*"))
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        if pa.is_file():
            assert pa.read_bytes() == pb.read_bytes()


def test_package_rejects_unknown_version(tmp_path):
    save_package(toy_model(2), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="99"):
        load_package(tmp_path)


def test_package_rejects_version_1(tmp_path):
    save_package(toy_model(2), tmp_path)
    _rewrite_manifest(tmp_path, lambda m: m.update(format_version=1))
    with pytest.raises(FormatError, match="version 1.*regenerate"):
        load_package(tmp_path)


def test_package_rejects_version_2(tmp_path):
    """Version 2 kept two blob files per layer under blobs/."""
    save_package(toy_model(2), tmp_path)
    _rewrite_manifest(tmp_path, lambda m: m.update(format_version=2))
    with pytest.raises(FormatError, match="version 2.*only version 4.*regenerate"):
        load_package(tmp_path)


def test_package_rejects_version_3(tmp_path):
    """Version 3 kept each bank's zero points and scales as manifest lists."""
    save_package(toy_model(2), tmp_path)
    _rewrite_manifest(tmp_path, lambda m: m.update(format_version=3))
    with pytest.raises(FormatError, match="version 3.*only version 4.*regenerate"):
        load_package(tmp_path)


#: sha-256 over manifest.json and then blobs.bin of the saved toy_model(1),
#: computed when format 4 was introduced. A layout change without a
#: version bump fails here.
PACKAGE_DIGEST = "200ca2d23fde0f72372f15b2805807dd018eef39924c5add18579b28d5a40445"


def test_package_format_is_pinned(tmp_path):
    save_package(toy_model(1), tmp_path)
    h = hashlib.sha256()
    for name in ("manifest.json", "blobs.bin"):
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == PACKAGE_DIGEST


def test_saved_manifest_stores_no_derived_fields(tmp_path):
    model = small_model()
    assert model.residual_sources and any(l.add_params for l in model.layers)
    save_package(model, tmp_path)
    text = (tmp_path / "manifest.json").read_text()
    assert set(json.loads(text)) == {"format_version", "family", "resolution",
                                     "width_multiplier", "seed", "rounding", "layers"}
    for key in ("mults", "add_params", "apass", "fpass", "bias_bits",
                "weights_blob", "bias_blob"):
        assert f'"{key}"' not in text
    assert load_package(tmp_path) == model


def test_manifest_bias_width_is_the_engines(tmp_path):
    model = small_model()
    save_package(model, tmp_path)

    def declare_widths(manifest, widths):
        for entry in manifest["layers"]:
            entry["bias_bits"] = widths(entry["kind"])

    # older writers stored each layer's width; the reader ignores the key
    _rewrite_manifest(tmp_path, lambda m: declare_widths(
        m, lambda kind: 18 if kind == "PRO" else 16))
    assert load_package(tmp_path) == model
    # a prepared model's banks are read-only: save a copy with one wide bias
    exp = next(i for i, l in enumerate(model.layers) if l.kind is Kind.EXP)
    f = model.layers[exp].filters
    biases = f.biases.copy()
    biases[0] = 100000
    layers = list(model.layers)
    layers[exp] = dataclasses.replace(layers[exp], filters=dataclasses.replace(f, biases=biases))
    save_package(dataclasses.replace(model, layers=layers), tmp_path)
    _rewrite_manifest(tmp_path, lambda m: declare_widths(m, lambda kind: 18))
    with pytest.raises(RangeError, match="100000 does not fit 16 signed bits"):
        load_package(tmp_path)


def _blob_regions(model):
    """(layer, part, offset, length) of each blobs.bin region, in file order:
    each bank's uint8 weights, uint8 zero points, float64 scales and int32
    biases."""
    regions, offset = [], 0
    for idx, l in enumerate(model.layers):
        if l.filters is not None:
            cout = l.filters.out_channels
            for part, length in (("weights", l.filters.weights.size), ("zero_points", cout),
                                 ("scales", 8 * cout), ("biases", 4 * cout)):
                regions.append((idx, part, offset, length))
                offset += length
    return regions


def _assert_no_per_channel_list(text):
    """Every per-channel number sits in blobs.bin: a manifest filters entry
    holds no list but its kernel pair."""
    for entry in json.loads(text)["layers"]:
        if entry["filters"] is not None:
            lists = [v for v in entry["filters"].values() if isinstance(v, list)]
            assert lists == [entry["filters"]["kernel"]] and len(lists[0]) == 2


def test_saved_package_holds_a_manifest_and_one_blob_file(tmp_path):
    model = small_model()
    save_package(model, tmp_path)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["blobs.bin", "manifest.json"]
    idx, part, offset, length = _blob_regions(model)[-1]
    assert (tmp_path / "blobs.bin").stat().st_size == offset + length
    text = (tmp_path / "manifest.json").read_text()
    assert text.count("\n") == 1
    _assert_no_per_channel_list(text)


def test_mobilenet_manifest_holds_only_per_layer_facts(tmp_path):
    """The MobileNetV2 0.5/64 manifest does not grow with channel counts."""
    save_package(prepare(build_mobilenet_v2(0.5, 64, seed=3), Rounding.TRUNCATE), tmp_path)
    text = (tmp_path / "manifest.json").read_text()
    assert len(text) <= 50_000
    _assert_no_per_channel_list(text)


def test_blob_names_come_from_layer_positions(tmp_path):
    """The manifest names no blob file and stores no offset: regions follow
    from the layers' order and geometry, so planted names and offsets are
    ignored and a file outside the package cannot stand in for blobs.bin."""
    root = tmp_path / "pkg"
    model = small_model()
    save_package(model, root)

    def plant(manifest):
        manifest["blob_file"] = "../../x"
        for entry in manifest["layers"]:
            if entry["filters"] is not None:
                entry["filters"].update(weights_blob="../../x", weights_offset=0, bias_offset=0)

    _rewrite_manifest(root, plant)
    assert load_package(root) == model
    (root / "blobs.bin").rename(tmp_path / "outside.bin")
    _rewrite_manifest(root, lambda m: m.update(blob_file="../outside.bin"))
    with pytest.raises(FormatError, match="blob file missing: blobs.bin"):
        load_package(root)


def _breaks_chain(manifest):
    manifest["layers"][6]["in"][2] += 16


def _wrong_residual_shape(manifest):
    add = next(e for e in manifest["layers"] if e["residual_from"] is not None)
    add["residual_from"] = 2  # the first block's 64-channel depthwise layer


def _residual_from_a_projection(manifest):
    layers = manifest["layers"]
    add = next(i for i, e in enumerate(layers) if e["residual_from"] is not None)
    assert layers[add - 1]["kind"] == "PRO"  # same dims as the addition's input
    layers[add]["residual_from"] = add - 1


def _requantizes_a_pass_through(manifest):
    add = next(e for e in manifest["layers"] if e["kind"] == "ADD")
    after = manifest["layers"][manifest["layers"].index(add) + 1]
    add["out_zero"] = after["in_zero"] = (add["out_zero"] + 1) % 256


def _drops_dwc_filters(manifest):
    next(e for e in manifest["layers"] if e["kind"] == "DWC")["filters"] = None


@pytest.mark.parametrize("edit, error, match", [
    pytest.param(lambda m: m["layers"][2]["in"].pop(), FormatError, "unpack", id="short-in"),
    pytest.param(lambda m: m["layers"][2]["out"].append(1), FormatError, "unpack", id="long-out"),
    pytest.param(lambda m: m["layers"][0]["filters"]["kernel"].append(3), FormatError, "unpack",
                 id="long-kernel"),
    pytest.param(_breaks_chain, DomainError, "does not chain", id="broken-chain"),
    pytest.param(_wrong_residual_shape, DomainError, "residual dims", id="residual-shape"),
    pytest.param(_residual_from_a_projection, DomainError, "nearest earlier addition",
                 id="residual-not-an-addition"),
    pytest.param(_requantizes_a_pass_through, DomainError, "pass-through",
                 id="pass-through-edge"),
    pytest.param(_drops_dwc_filters, DomainError, "need filters", id="dwc-without-filters"),
    pytest.param(lambda m: m["layers"][5].update(block=1.0), DomainError,
                 "block 1.0 is not an integer", id="float-block"),
    pytest.param(lambda m: m["layers"][5].update(block="1"), DomainError,
                 "block '1' is not an integer", id="string-block"),
])
def test_package_rejects_a_malformed_manifest(tmp_path, edit, error, match):
    save_package(small_model(), tmp_path)
    _rewrite_manifest(tmp_path, edit)
    with pytest.raises(error, match=match):
        load_package(tmp_path)


def test_package_rejects_blocks_without_an_entry_convolution(tmp_path):
    """Block layers need the entry convolution that starts round 0; a
    single layer outside any block, or a lone entry convolution, still
    loads and runs in every mode as one trailing round."""
    model = prepare(build_model([BlockSpec(2, 16, 1), BlockSpec(2, 24, 2)], 16,
                                include_head=False))
    layers = model.layers[1:]
    headless = dataclasses.replace(model, layers=layers, resolution=layers[0].in_h)
    save_package(headless, tmp_path / "headless")
    with pytest.raises(PlanError, match=r"layer 0 \(EXP, block 0\) breaks the layer order"):
        load_package(tmp_path / "headless")
    pro = next(l for l in layers if l.kind is Kind.PRO)
    rng = np.random.default_rng(0)
    for name, lone in (("single", dataclasses.replace(pro, block=None)), ("c2d", model.layers[0])):
        single = dataclasses.replace(model, layers=[lone], resolution=lone.in_h)
        loaded = load_package(save_package(single, tmp_path / name))
        assert loaded == single
        assert [p.whole for p in loaded.rounds] == [(0,)]
        x = QTensor(lone.in_h, lone.in_w, lone.in_ch,
                    rng.integers(0, 256, size=(lone.in_h, lone.in_w, lone.in_ch)),
                    lone.in_zero, lone.in_scale)
        want = run_layer(x, lone)[0]
        for mode in ("sequential", "stream", "threads"):
            assert run_inference(loaded, x, mode=mode).logits == want


#: One value of each type json.loads produces.
JSON_VALUES = (None, True, 7, -3, 2**40, 0.5, -1e300, float("nan"),
               "", "x", [], [1, 2], {}, {"a": 1})


def _manifest_paths(node, path=()):
    """Paths to every node; a list of scalars contributes its first element only."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _manifest_paths(child, path + (key,))
    elif isinstance(node, list):
        scalars = not any(isinstance(child, (dict, list)) for child in node)
        for i, child in enumerate(node[:1] if scalars else node):
            yield from _manifest_paths(child, path + (i,))


@pytest.fixture(scope="module")
def fuzz_package(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_package(small_model(), root)
    text = (root / "manifest.json").read_text()
    return root, text, list(_manifest_paths(json.loads(text)))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_manifests_raise_only_package_errors(fuzz_package, data):
    root, text, paths = fuzz_package
    how = data.draw(st.sampled_from(["truncate", "delete", "replace"]))
    if how == "truncate":
        mutated = text[: data.draw(st.integers(0, len(text) - 1))]
    else:
        doc = json.loads(text)
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]] if path else doc
        new = data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
        if not path:
            doc = new
        elif how == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
        mutated = json.dumps(doc)
    (root / "manifest.json").write_text(mutated)
    try:
        load_package(root)
    except SemistreamError:
        pass


@pytest.fixture(scope="module")
def fuzz_blobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-blobs")
    save_package(small_model(), root)
    return root, (root / "blobs.bin").read_bytes()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_blobs_raise_only_format_errors(fuzz_blobs, data):
    """Every per-channel number sits behind blobs.bin's checksums and length
    checks: a flipped byte, a truncation or appended bytes all raise
    FormatError, never another error and never a different model."""
    root, clean = fuzz_blobs
    how = data.draw(st.sampled_from(["flip", "truncate", "append"]))
    if how == "flip":
        raw = bytearray(clean)
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        mutated = bytes(raw)
    elif how == "truncate":
        mutated = clean[: data.draw(st.integers(0, len(clean) - 1))]
    else:
        mutated = clean + data.draw(st.binary(min_size=1, max_size=64))
    (root / "blobs.bin").write_bytes(mutated)
    with pytest.raises(FormatError):
        load_package(root)


def test_package_rejects_corrupt_blob(tmp_path):
    model = toy_model(3)
    save_package(model, tmp_path)
    blob = tmp_path / "blobs.bin"
    clean = blob.read_bytes()
    for idx, part, offset, length in _blob_regions(model):
        raw = bytearray(clean)
        raw[offset + length // 2] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"layer {idx} {part} in blobs.bin failed its checksum"):
            load_package(tmp_path)
    blob.write_bytes(clean)
    assert load_package(tmp_path) == model


def test_package_rejects_truncated_blob(tmp_path):
    model = toy_model(4)
    save_package(model, tmp_path)
    blob = tmp_path / "blobs.bin"
    clean = blob.read_bytes()
    last, _, _, _ = _blob_regions(model)[-1]
    blob.write_bytes(clean[:-4])
    with pytest.raises(FormatError, match=f"ends inside layer {last}'s biases"):
        load_package(tmp_path)
    for idx, part, offset, length in _blob_regions(model)[4:8]:  # the second bank
        blob.write_bytes(clean[: offset + length - 1])
        with pytest.raises(FormatError, match=f"ends inside layer {idx}'s {part}"):
            load_package(tmp_path)
    blob.write_bytes(clean + b"\0")
    with pytest.raises(FormatError, match="1 bytes past its last region"):
        load_package(tmp_path)
    blob.unlink()
    with pytest.raises(FormatError, match="blob file missing"):
        load_package(tmp_path)


@pytest.mark.parametrize("bad, why", [
    (1e-300, "needs a shift beyond 255"),
    (float("nan"), "is not a finite number"),
    (-0.5, r"outside \(0, 1\)"),
])
def test_package_names_the_layer_and_channel_of_a_bad_scale(tmp_path, bad, why):
    """A scale that passes its checksum but gives no encodable rescale
    factor is named by layer and channel, whatever makes it unencodable."""
    model = toy_model(1)
    save_package(model, tmp_path)
    idx, _, offset, length = next(r for r in _blob_regions(model) if r[1] == "scales")
    blob = tmp_path / "blobs.bin"
    raw = bytearray(blob.read_bytes())
    raw[offset : offset + 8] = np.array([bad], "<f8").tobytes()
    blob.write_bytes(bytes(raw))
    sha = hashlib.sha256(raw[offset : offset + length]).hexdigest()
    _rewrite_manifest(tmp_path, lambda m: m["layers"][idx]["filters"].update(scales_sha256=sha))
    with pytest.raises(DomainError, match=f"layer {idx} channel 0: rescale factor .* {why}"):
        load_package(tmp_path)


def test_package_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        load_package(tmp_path)
    (tmp_path / "manifest.json").write_text("[2]\n")
    with pytest.raises(FormatError, match="not a JSON object"):
        load_package(tmp_path)


def _filter_arrays(model):
    for l in model.layers:
        if l.filters is not None:
            f = l.filters
            yield from (("weights", f.weights), ("zero_points", f.zero_points),
                        ("scales", f.scales), ("biases", f.biases))


def test_prepared_and_loaded_models_are_frozen(tmp_path):
    """A model's layers cannot be rebound and its filter arrays cannot be
    written, so the engine records compiled from them never go stale;
    prepare copies what it would share, so the caller's graph stays
    writeable."""
    graph = build_model([BlockSpec(2, 16, 1), BlockSpec(3, 16, 1)], 8, seed=3,
                        head_channels=32, classes=16)
    model = prepare(graph)
    loaded = load_package(save_package(model, tmp_path))
    for m in (model, loaded):
        assert isinstance(m.layers, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.layers = list(m.layers)
        names = set()
        for name, a in _filter_arrays(m):
            names.add(name)
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]
        assert names == {"weights", "zero_points", "scales", "biases"}
    for l in graph.layers:
        if l.filters is not None:
            l.filters.biases[0] = l.filters.biases[0]  # still the caller's to edit
    # a list handed to replace or the constructor is stored as a tuple
    assert isinstance(dataclasses.replace(model, layers=list(model.layers)).layers, tuple)


def test_editing_a_loaded_model_cannot_leave_its_records_stale(tmp_path):
    model = load_package(save_package(small_model(), tmp_path))
    pixels = np.random.default_rng(0).integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    image = image_to_qtensor(pixels, model)
    before = run_inference(model, image, mode="sequential").logits
    pro = next(l for l in model.layers if l.kind is Kind.PRO)
    with pytest.raises(ValueError, match="read-only"):
        pro.filters.biases[:] += 500
    after = run_inference(model, image, mode="sequential").logits
    assert after == before
    assert np.array_equal(after.data, run_model_naive(model, pixels))


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    pixels = rng.integers(0, 256, size=(8, 6, 3), dtype=np.uint8)
    path = tmp_path / "x.ppm"
    save_ppm(path, pixels)
    assert np.array_equal(load_image(path), pixels)


def test_ppm_header_comments(tmp_path):
    pixels = np.zeros((2, 2, 3), dtype=np.uint8)
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 2\n# another\n255\n" + pixels.tobytes())
    assert np.array_equal(load_image(path), pixels)


def test_ppm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(FormatError):
        load_image(path)


def test_raw_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    pixels = rng.integers(0, 256, size=(4, 5, 7), dtype=np.uint8)
    path = tmp_path / "x.raw"
    save_raw(path, pixels)
    assert np.array_equal(load_image(path), pixels)


@pytest.mark.parametrize("blob", [
    pytest.param(b"HWC 2 2 3", id="raw-no-newline"),
    pytest.param(b"HWC a b c\n", id="raw-not-integers"),
    pytest.param(b"HWC -1 -1 3\n" + bytes(3), id="raw-negative"),
    pytest.param(b"HWC 0 5 3\n", id="raw-zero"),
    pytest.param(b"P6 -2 -2 255\n" + bytes(12), id="ppm-negative"),
    pytest.param(b"P6 0 0 255\n", id="ppm-zero"),
    pytest.param(b"P6 2 x 255\n" + bytes(12), id="ppm-not-integer"),
    # past Python's 4300-digit int() limit
    pytest.param(b"HWC " + b"9" * 5000 + b" 1 1\n", id="raw-oversized"),
    pytest.param(b"P6 " + b"9" * 5000 + b" 1 255\n", id="ppm-oversized"),
])
def test_malformed_image_headers_raise_format_error(tmp_path, blob):
    path = tmp_path / "bad.img"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        load_image(path)


#: What a fuzzed image header field may become.
HEADER_TOKENS = st.one_of(
    st.integers(-5, 10**12).map(lambda n: str(n).encode()),
    st.integers(1, 6000).map(lambda n: b"9" * n),
    st.binary(max_size=6),
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_image_headers_raise_only_format_errors(tmp_path_factory, data):
    magic, valid = data.draw(st.sampled_from([
        (b"HWC", [b"2", b"3", b"3"]),  # h w c
        (b"P6", [b"3", b"2", b"255"]),  # w h maxval
    ]))
    fields = list(valid)
    for i in data.draw(st.sets(st.integers(0, 2))):
        fields[i] = data.draw(HEADER_TOKENS)
    if data.draw(st.booleans()):
        fields.insert(data.draw(st.integers(0, 3)), data.draw(HEADER_TOKENS))
    blob = b" ".join([magic] + fields) + b"\n" + bytes(data.draw(st.integers(0, 20)))
    if data.draw(st.booleans()):
        blob = blob[: data.draw(st.integers(0, len(blob)))]
    path = tmp_path_factory.getbasetemp() / "fuzz.img"
    path.write_bytes(blob)
    try:
        pixels = load_image(path)
    except FormatError:
        return
    assert pixels.dtype == np.uint8 and pixels.ndim == 3


def test_unknown_image_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"GIF89a whatever")
    with pytest.raises(FormatError):
        load_image(path)


def test_image_to_qtensor_uses_entry_edge():
    model = toy_model(15)
    entry = model.layers[0]
    pixels = np.zeros((model.resolution, model.resolution, 3), dtype=np.uint8)
    q = image_to_qtensor(pixels, model)
    assert q.zero_point == entry.in_zero
    assert q.scale == entry.in_scale


@pytest.mark.parametrize("bad", [300, -1, 2.7, float("nan")])
def test_out_of_range_codes_are_rejected_not_wrapped(bad):
    model = small_model()
    scale, zero = model.entry_quant
    pixels = np.full((8, 8, 3), 7, dtype=np.float64 if isinstance(bad, float) else np.int64)
    pixels[3, 4, 1] = bad
    with pytest.raises(DomainError, match=r"\[0, 255\]"):
        image_to_qtensor(pixels, model)
    with pytest.raises(DomainError, match=r"\[0, 255\]"):
        QTensor(8, 8, 3, pixels, zero, scale)
    with pytest.raises(DomainError):
        QTensor(1, 1, 3, np.array([[[300, -1, 2.7]]]), 0, 1.0)


def test_in_range_codes_are_accepted_and_uint8_is_not_copied():
    model = small_model()
    codes = np.arange(192, dtype=np.int64).reshape(8, 8, 3)
    assert np.array_equal(image_to_qtensor(codes, model).data, codes)
    assert image_to_qtensor(codes, model).data.dtype == np.uint8
    assert np.array_equal(QTensor(1, 1, 2, np.array([[[0.0, 255.0]]]), 0, 1.0).data,
                          [[[0, 255]]])
    pixels = codes.astype(np.uint8)
    assert image_to_qtensor(pixels, model).data is pixels


@pytest.mark.parametrize("bad", [300, -1, 2.7, float("nan")])
def test_out_of_range_weights_are_rejected_not_wrapped(bad):
    weights = np.full((1, 1, 1, 2), 7, dtype=np.float64 if isinstance(bad, float) else np.int64)
    weights[0, 0, 0, 1] = bad
    with pytest.raises(DomainError, match=r"weights of .* \[0, 255\]"):
        QFilterSet(1, 1, 1, 2, weights, [0, 0], [.1, .1], [0, 0])


def test_in_range_weights_are_accepted_and_uint8_is_not_copied():
    weights = np.array([[[[0, 255]]]], dtype=np.int64)
    f = QFilterSet(1, 1, 1, 2, weights, [0, 0], [.1, .1], [0, 0])
    assert f.weights.dtype == np.uint8
    assert np.array_equal(f.weights, weights)
    codes = weights.astype(np.uint8)
    assert QFilterSet(1, 1, 1, 2, codes, [0, 0], [.1, .1], [0, 0]).weights is codes

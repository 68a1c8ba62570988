"""Model construction, channel padding, parameter derivation, packages."""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistream.errors import DomainError, FormatError, RangeError, SemistreamError
from semistream.modelkit import (
    LANES,
    BlockSpec,
    Kind,
    LayerDesc,
    ModelGraph,
    QFilterSet,
    QTensor,
    build_mobilenet_v2,
    build_model,
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
from semistream.quantcore import MultShift, Rounding, quantize_multiplier

from conftest import c2d_layer, pointwise_layer, toy_model


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
    bare = dataclasses.replace(layer, mults=None, apass=0, fpass=0)
    return ModelGraph([bare], resolution=resolution)


def test_prepare_known_multiplier():
    rng = np.random.default_rng(3)
    layer = c2d_layer(rng)
    layer.filters.scales[:] = 0.375 * layer.out_scale / layer.in_scale
    model = prepare(_singleton_graph(layer))
    assert model.layers[0].mults[0] == MultShift(3221225472, 33)
    assert all(ms == MultShift(3221225472, 33) for ms in model.layers[0].mults)


def test_prepare_rejects_out_of_range_rescale():
    rng = np.random.default_rng(4)
    layer = c2d_layer(rng)
    layer.filters.scales[7] = 2.5 * layer.out_scale / layer.in_scale
    with pytest.raises(DomainError, match="channel 7"):
        prepare(_singleton_graph(layer))


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


def test_prepare_equal_scale_addition_is_symmetric():
    model = toy_model(20)
    adds = [l for l in model.layers
            if l.kind is Kind.ADD and l.residual_from is not None]
    assert adds, "toy model draw without a shortcut; pick another seed"
    for l in adds:
        p = l.add_params
        s1 = l.in_scale
        s2 = model.layers[l.residual_from].out_scale
        if s1 == s2:
            assert p.mult1 == p.mult2 == quantize_multiplier(0.5)
        # the larger-scaled operand always normalizes to exactly 1/2
        assert max(p.mult1, p.mult2, key=lambda m: m.value) == quantize_multiplier(0.5)


def test_prepare_rejects_accumulators_beyond_2_30():
    # 16512 * 255**2 plus a bias below 49024 stays under 2**30; one more
    # input channel (padded to 16528) does not
    rng = np.random.default_rng(16)
    fits = pointwise_layer(rng, Kind.PRO, h=1, w=1, cin=16512, cout=16)
    prepare(_singleton_graph(fits, resolution=1))
    over = pointwise_layer(rng, Kind.PRO, h=1, w=1, cin=16513, cout=16)
    with pytest.raises(DomainError, match=r"2\*\*30"):
        prepare(_singleton_graph(over, resolution=1))


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


# ---------------------------------------------------------------------------
# channel padding
# ---------------------------------------------------------------------------

def test_pad16():
    assert [pad16(v) for v in (1, 15, 16, 17, 24, 1000)] == [16, 16, 16, 32, 32, 1008]


def test_pad_channels_geometry_and_idempotence():
    rng = np.random.default_rng(9)
    layer = pointwise_layer(rng, Kind.PRO, h=3, w=3, cin=16, cout=16)
    layer = dataclasses.replace(layer, in_ch=12, out_ch=9, orig_in_ch=0, orig_out_ch=0)
    layer.filters = QFilterSet(
        1, 1, 12, 9,
        weights=rng.integers(0, 256, size=(1, 1, 12, 9), dtype=np.uint8),
        zero_points=rng.integers(0, 256, size=9),
        scales=np.full(9, 0.25 * layer.out_scale / layer.in_scale),
        biases=rng.integers(-100, 100, size=9),
    )
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
    layer = dataclasses.replace(layer, in_ch=10, out_ch=5, orig_in_ch=0, orig_out_ch=0)
    layer.filters = QFilterSet(
        1, 1, 10, 5,
        weights=rng.integers(0, 256, size=(1, 1, 10, 5), dtype=np.uint8),
        zero_points=rng.integers(0, 256, size=5),
        scales=np.full(5, 0.25 * layer.out_scale / layer.in_scale),
        biases=rng.integers(-100, 100, size=5),
    )
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


def test_saved_manifest_stores_no_derived_fields(tmp_path):
    model = small_model()
    assert model.residual_table and any(l.add_params for l in model.layers)
    save_package(model, tmp_path)
    text = (tmp_path / "manifest.json").read_text()
    for key in ("mults", "add_params", "apass", "fpass", "residual_table",
                "weights_blob", "bias_blob"):
        assert f'"{key}"' not in text
    assert load_package(tmp_path) == model


def test_blob_names_come_from_layer_positions(tmp_path):
    root = tmp_path / "pkg"
    model = small_model()
    save_package(model, root)

    def plant(manifest):
        for entry in manifest["layers"]:
            if entry["filters"] is not None:
                entry["filters"]["weights_blob"] = "../../x"

    _rewrite_manifest(root, plant)
    assert load_package(root) == model
    # a copy outside the package cannot stand in for a missing blob
    (root / "blobs" / "layer000.weights.bin").rename(tmp_path / "outside.bin")
    _rewrite_manifest(root, lambda m: m["layers"][0]["filters"].update(
        weights_blob="../outside.bin"))
    with pytest.raises(FormatError, match="layer000.weights.bin"):
        load_package(root)


def _breaks_chain(manifest):
    manifest["layers"][6]["in"][2] += 16


def _wrong_residual_shape(manifest):
    add = next(e for e in manifest["layers"] if e["residual_from"] is not None)
    add["residual_from"] = 2  # the first block's 64-channel depthwise layer


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
    pytest.param(_requantizes_a_pass_through, DomainError, "pass-through",
                 id="pass-through-edge"),
    pytest.param(_drops_dwc_filters, DomainError, "need filters", id="dwc-without-filters"),
])
def test_package_rejects_a_malformed_manifest(tmp_path, edit, error, match):
    save_package(small_model(), tmp_path)
    _rewrite_manifest(tmp_path, edit)
    with pytest.raises(error, match=match):
        load_package(tmp_path)


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


def test_package_rejects_corrupt_blob(tmp_path):
    save_package(toy_model(3), tmp_path)
    blob = next((tmp_path / "blobs").glob("*.weights.bin"))
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_package(tmp_path)


def test_package_rejects_truncated_blob(tmp_path):
    save_package(toy_model(4), tmp_path)
    blob = next((tmp_path / "blobs").glob("*.biases.bin"))
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_package(tmp_path)


def test_package_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        load_package(tmp_path)
    (tmp_path / "manifest.json").write_text("[2]\n")
    with pytest.raises(FormatError, match="not a JSON object"):
        load_package(tmp_path)


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

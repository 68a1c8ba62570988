"""Analytic model: the cycle model, nominal rates, the round timeline,
normalization."""
from __future__ import annotations

import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from semistream.dataflow import run_inference
from semistream.engines import run_layer
from semistream.errors import DomainError
from semistream.modelkit import (
    LANES,
    Kind,
    build_mobilenet_v2,
    image_to_qtensor,
    load_package,
    prepare,
    save_package,
)
from semistream.perfmodel import (
    ADD_OPS_PER_CYCLE,
    CALIBRATED_BANDWIDTH_GBPS,
    MADDS_PER_CYCLE,
    REFERENCE_FREQUENCY_MHZ,
    REFERENCE_MULTIPLIERS,
    WEIGHT_GEOMETRY,
    ClockConfig,
    bandwidth_report,
    estimate_timeline,
    first_bandwidth_limited_round,
    layer_cost,
    normalize_performance,
    performance_report,
    throughput_report,
    total_latency,
)

from conftest import (
    add_layer,
    c2d_layer,
    dwc_layer,
    pointwise_layer,
    pool_layer,
    qinput,
    toy_model,
)


@pytest.fixture(scope="module")
def standard():
    return prepare(build_mobilenet_v2(seed=0))


# ---------------------------------------------------------------------------
# the cycle model
# ---------------------------------------------------------------------------

def test_nominal_rates():
    rng = np.random.default_rng(19)
    for layer, engine in [
        (c2d_layer(rng), "C2D"),
        (dwc_layer(rng), "DWC"),
        (pool_layer(rng), "DWC"),
        (pointwise_layer(rng, Kind.PRO), "PRO"),
        (pointwise_layer(rng, Kind.EXP), "EXP"),
    ]:
        s = layer_cost(layer)
        assert s.madds == MADDS_PER_CYCLE[engine] * s.cycles
        assert s.output_elements == layer.out_h * layer.out_w * layer.out_ch
    add = add_layer(rng)
    assert layer_cost(add).cycles == add.out_h * add.out_w * add.out_ch // LANES
    assert layer_cost(add).madds == ADD_OPS_PER_CYCLE * layer_cost(add).cycles
    assert layer_cost(add).weight_bytes == 0


def test_weights_fill_the_engine_memories_word_by_word():
    """A layer's weight bytes fill its engine's parallel memories, one
    word per memory per address: a pointwise bank takes 16 x 16 bytes
    for each (filter batch, input batch) step its cycles walk through,
    a depthwise bank 9 words (one per kernel position) per channel
    group."""
    rng = np.random.default_rng(20)
    for _ in range(4):
        for layer in (pointwise_layer(rng, Kind.PRO), pointwise_layer(rng, Kind.EXP),
                      dwc_layer(rng)):
            memories, word_bits, _ = WEIGHT_GEOMETRY[layer.kind.value]
            cost = layer_cost(layer)
            if layer.kind is Kind.DWC:
                depth = layer.out_ch // LANES
                assert cost.weight_bytes == 9 * layer.out_ch
                assert cost.cycles == layer.in_h * layer.in_w * depth
            else:
                depth = layer.apass * layer.fpass
                assert cost.weight_bytes == 16 * 16 * depth
                assert cost.cycles == layer.out_h * layer.out_w * depth
            assert cost.weight_bytes == memories * word_bits // 8 * depth
            assert cost.weight_bytes == layer.filters.weights.size


def test_exp_accumulator_working_set():
    rng = np.random.default_rng(13)
    layer = pointwise_layer(rng, Kind.EXP, h=1, w=1, cin=16, cout=960)
    assert layer_cost(layer).acc_working_set == 960
    pro = pointwise_layer(rng, Kind.PRO, h=1, w=1, cin=960, cout=16)
    assert layer_cost(pro).acc_working_set == 0


def test_layer_cost_is_a_frozen_record():
    """The cost is a pure function of the layer: equal on every call,
    what run_layer reports, and frozen."""
    rng = np.random.default_rng(37)
    layer = pointwise_layer(rng, Kind.EXP)
    stats = layer_cost(layer)
    assert layer_cost(layer) == stats
    assert run_layer(qinput(rng, layer), layer)[1] == stats
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.cycles = 0


def test_a_kind_with_no_engine_has_no_cycle_model():
    with pytest.raises(DomainError, match="no cycle model"):
        layer_cost(SimpleNamespace(kind="POOL", in_h=2, in_w=2, out_h=1, out_w=1,
                                   in_ch=16, out_ch=16, filters=None))


def test_the_analytic_side_compiles_no_record(tmp_path):
    """Costs come from geometry: neither the report nor the timeline
    compiles a kernel record on a freshly loaded or prepared model."""
    model = prepare(build_mobilenet_v2(0.5, 64, seed=3))
    loaded = load_package(save_package(model, tmp_path / "pkg"))
    for m, analyse in ((loaded, performance_report), (model, estimate_timeline),
                       (load_package(tmp_path / "pkg"), estimate_timeline)):
        analyse(m)
        assert not any("_record" in l.__dict__ for l in m.layers)


# ---------------------------------------------------------------------------
# nominal engine rates
# ---------------------------------------------------------------------------

def test_throughput_report_reference_clock():
    got = throughput_report()
    assert got == {"C2D": 89.6, "DWC": 16.0, "PRO": 27.2, "EXP": 27.2, "ADD": 5.4}


def test_throughput_scales_with_the_clock():
    assert throughput_report(50.0)["C2D"] == 44.8
    assert throughput_report(200.0)["ADD"] == 10.8


def test_bandwidth_report_reference_clock():
    got = bandwidth_report()
    assert got == {"DWC": 140.8, "PRO": 233.6, "EXP": 230.4, "ADD": 12.8}
    half = bandwidth_report(50.0)
    assert half["PRO"] == 116.8


# ---------------------------------------------------------------------------
# clock configuration
# ---------------------------------------------------------------------------

def test_clock_config_validation():
    cfg = ClockConfig()
    assert cfg.frequency_mhz == REFERENCE_FREQUENCY_MHZ
    assert cfg.bandwidth_gbps == CALIBRATED_BANDWIDTH_GBPS
    assert cfg.bytes_per_cycle == 26.0
    with pytest.raises(DomainError):
        ClockConfig(frequency_mhz=0.0)
    with pytest.raises(DomainError):
        ClockConfig(bandwidth_gbps=-1.0)
    assert ClockConfig(bandwidth_gbps=math.inf).bytes_per_cycle == math.inf
    for bad in (dict(frequency_mhz=math.nan), dict(frequency_mhz=math.inf),
                dict(bandwidth_gbps=math.nan)):
        with pytest.raises(DomainError):
            ClockConfig(**bad)


def test_timeline_rejects_a_load_that_takes_no_finite_time(standard):
    with pytest.raises(DomainError, match="no finite time"):
        estimate_timeline(standard, ClockConfig(bandwidth_gbps=1e-320))


# ---------------------------------------------------------------------------
# the round timeline
# ---------------------------------------------------------------------------

def test_standard_timeline_frozen_numbers(standard):
    entries = estimate_timeline(standard)
    assert entries[-1].end_cycle == 1059648
    ms, fps = total_latency(entries)
    assert abs(ms - 10.596480) < 1e-9
    assert abs(fps - 94.37104) < 5e-4
    assert first_bandwidth_limited_round(entries) == 13


def test_standard_round_zero(standard):
    e = estimate_timeline(standard)[0]
    # entry conv 224x224 raster plus two depthwise frame passes at 112x112
    assert e.stage1_cycles == 224 * 224 + 2 * 112 * 112
    # stage two is paced by the next block's six-pass expansion
    assert e.stage2_cycles == 6 * 112 * 112
    assert e.start_cycle == 0
    assert e.end_cycle == e.stage1_cycles + e.stage2_cycles
    assert e.limiting == "compute"


def test_timeline_is_contiguous(standard):
    entries = estimate_timeline(standard)
    cursor = 0
    for e in entries:
        assert e.start_cycle == cursor
        gate = max(e.stage1_cycles, e.weight_load_cycles)
        assert e.end_cycle == e.start_cycle + gate + e.stage2_cycles
        cursor = e.end_cycle
    assert [e.round_index for e in entries] == list(range(20))
    assert [e.trailing for e in entries] == [False] * 17 + [True] * 3


def test_trailing_rounds_serialize(standard):
    for e in estimate_timeline(standard):
        if e.trailing:
            assert e.stage1_cycles == 0
            assert e.cycles == e.weight_load_cycles + e.stage2_cycles


def test_limiting_labels(standard):
    entries = estimate_timeline(standard)
    for e in entries:
        yardstick = e.stage2_cycles if e.trailing else e.stage1_cycles
        want = "bandwidth" if e.weight_load_cycles > yardstick else "compute"
        assert e.limiting == want
    main = [e for e in entries if not e.trailing]
    assert all(e.limiting == "compute" for e in main[:13])
    assert main[13].limiting == "bandwidth"


def test_infinite_bandwidth_never_limits(standard):
    clock = ClockConfig(bandwidth_gbps=math.inf)
    entries = estimate_timeline(standard, clock)
    assert all(e.limiting == "compute" for e in entries)
    assert all(e.weight_load_cycles == 0 for e in entries)
    assert first_bandwidth_limited_round(entries) is None


def test_doubling_the_clock_halves_latency_when_compute_bound(standard):
    slow = ClockConfig(frequency_mhz=100.0, bandwidth_gbps=math.inf)
    fast = ClockConfig(frequency_mhz=200.0, bandwidth_gbps=math.inf)
    ms_slow, _ = total_latency(estimate_timeline(standard, slow), slow)
    ms_fast, _ = total_latency(estimate_timeline(standard, fast), fast)
    assert ms_fast == pytest.approx(ms_slow / 2.0, rel=1e-12)


def test_more_bandwidth_never_hurts(standard):
    widths = [1.0, 2.0, CALIBRATED_BANDWIDTH_GBPS, 4.0, 8.0, math.inf]
    cycles = []
    limited_sets = []
    for gbps in widths:
        entries = estimate_timeline(standard, ClockConfig(bandwidth_gbps=gbps))
        cycles.append(entries[-1].end_cycle)
        limited_sets.append(
            {e.round_index for e in entries if e.limiting == "bandwidth"})
    for a, b in zip(cycles, cycles[1:]):
        assert b <= a
    for narrow, wide in zip(limited_sets, limited_sets[1:]):
        assert wide <= narrow  # widening the bus can only clear bottlenecks


def test_empty_timeline():
    assert total_latency([]) == (0.0, math.inf)


def test_toy_timeline_matches_its_schedule():
    model = toy_model(8, include_head=True)
    entries = estimate_timeline(model)
    ms, fps = total_latency(entries)
    assert ms > 0 and fps == pytest.approx(1e3 / ms)
    assert entries[-1].end_cycle == sum(e.cycles for e in entries)


# ---------------------------------------------------------------------------
# cross-design normalization
# ---------------------------------------------------------------------------

def test_normalization_reference_points():
    # published design points rescaled to 100 MHz and 608 multipliers
    for gops, mhz, mults, want in [
        (38.30, 125.0, 220, 84.67),
        (18.53, 100.0, 220, 51.2),
        (20.16, 150.0, 220, 37.14),
    ]:
        assert normalize_performance(gops, mhz, mults) == pytest.approx(want, abs=0.05)


def test_normalization_identity_and_scaling():
    assert normalize_performance(
        12.0, REFERENCE_FREQUENCY_MHZ, REFERENCE_MULTIPLIERS) == pytest.approx(12.0)
    double = normalize_performance(12.0, 2 * REFERENCE_FREQUENCY_MHZ,
                                   REFERENCE_MULTIPLIERS)
    assert double == pytest.approx(6.0)


def test_normalization_rejects_nonpositive_inputs():
    with pytest.raises(DomainError):
        normalize_performance(0.0, 100.0, 220)
    with pytest.raises(DomainError):
        normalize_performance(10.0, -5.0, 220)
    with pytest.raises(DomainError):
        normalize_performance(10.0, 100.0, 0)


@pytest.mark.parametrize("args", [
    (math.nan, 100.0, 220),
    (10.0, math.inf, 220),
    (math.inf, 100.0, 220),
    (10.0, 100.0, math.nan),
    (10.0, 100.0, 220, 0.0),
    (10.0, 100.0, 220, math.nan),
    (10.0, 100.0, 220, math.inf),
    (10.0, 100.0, 220, 100.0, 0),
    (10.0, 100.0, 220, 100.0, -608),
])
def test_normalization_rejects_nonfinite_inputs_and_references(args):
    with pytest.raises(DomainError, match="finite and positive"):
        normalize_performance(*args)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def test_performance_report_consistency(standard):
    rep = performance_report(standard)
    assert rep["total_cycles"] == 1059648
    assert rep["latency_ms"] == pytest.approx(10.596480, abs=1e-9)
    assert rep["first_bandwidth_limited_round"] == 13
    assert rep["engine_gops"] == throughput_report()
    assert rep["engine_weight_gbps"] == bandwidth_report()
    assert rep["bytes_per_cycle"] == 26.0
    assert rep["effective_gops"] == pytest.approx(
        rep["total_madds"] / (rep["latency_ms"] * 1e6), rel=1e-12)
    assert len(rep["rounds"]) == 20


def test_report_counts_the_madds_a_run_reports(standard):
    # pass-through addition slots do no arithmetic in either count
    pixels = np.zeros((224, 224, 3), dtype=np.uint8)
    run = run_inference(standard, image_to_qtensor(pixels, standard), mode="sequential")
    assert performance_report(standard)["total_madds"] == run.total.madds == 383943672


#: sha-256 of repr() of a MobileNetV2 run's per-layer stats, one
#: (cycles, madds, weight_bytes, output_elements, acc_working_set) tuple
#: of ints per layer in layer order. Geometry alone sets these numbers,
#: so neither the seed nor the generated weights can move them.
LAYER_STATS_SHA256 = {
    224: "29cbc84a9f5875524656d46b22a9aa89b3c910e9a8a37df88a1f8d0a53390978",
    64: "001afc86922b4d9e0de345c0a993805debd59a2a6a2101e2c3a30c43bd0a23c9",
}


def test_every_layer_stat_is_pinned(standard):
    for model in (standard, prepare(build_mobilenet_v2(0.5, 64, seed=3))):
        image = image_to_qtensor(np.zeros((model.resolution,) * 2 + (3,), np.uint8), model)
        for mode in ("sequential", "stream"):
            stats = run_inference(model, image, mode=mode).stats
            rows = [(int(s.cycles), int(s.madds), int(s.weight_bytes),
                     int(s.output_elements), int(s.acc_working_set))
                    for _, s in sorted(stats.items())]
            assert len(rows) == len(model.layers) == 71
            digest = hashlib.sha256(repr(rows).encode()).hexdigest()
            assert digest == LAYER_STATS_SHA256[model.resolution], (model.resolution, mode)

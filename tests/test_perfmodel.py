"""Analytic model: nominal rates, the round timeline, normalization."""
from __future__ import annotations

import math

import numpy as np
import pytest

from semistream.dataflow import run_inference
from semistream.errors import DomainError
from semistream.modelkit import build_mobilenet_v2, image_to_qtensor, prepare
from semistream.perfmodel import (
    CALIBRATED_BANDWIDTH_GBPS,
    REFERENCE_FREQUENCY_MHZ,
    REFERENCE_MULTIPLIERS,
    ClockConfig,
    bandwidth_report,
    estimate_timeline,
    first_bandwidth_limited_round,
    normalize_performance,
    performance_report,
    throughput_report,
    total_latency,
)

from conftest import toy_model


@pytest.fixture(scope="module")
def standard():
    return prepare(build_mobilenet_v2(seed=0))


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

"""Analytic performance model.

Latency comes from the model's round plan (PreparedModel.rounds): each
round overlaps its stage-one whole-frame layers (entry convolution,
block 0's expansion and depthwise) with the loading of the projection
and expansion weights it needs, then runs its streamed layers
(projection, addition, expansion) which pace each other; the slower of
stage one and the weight load gates stage two. A trailing head round
runs one engine with nothing beside it to hide the load, so its weight
load serializes with its compute. One frame is in flight, so throughput
is the reciprocal of latency.

The model also reports nominal engine throughput, per-engine weight
port bandwidth, and a normalization that maps a measured throughput to
a common clock and multiplier budget for cross-design comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .engines import (
    ADD_OPS_PER_CYCLE,
    ADD_STREAM_BITS,
    MADDS_PER_CYCLE,
    WEIGHT_GEOMETRY,
    engine_cycles,
    nominal_stats,
    weight_bytes,
)
from .errors import DomainError
from .modelkit import Kind, PreparedModel, RoundPlan

#: External memory bandwidth (gigabytes per second) at which the
#: standard 224x224 model lands at 10.596 ms per frame under the
#: 100 MHz reference clock, with rounds through 12 compute-limited and
#: the deep rounds bandwidth-limited.
CALIBRATED_BANDWIDTH_GBPS = 2.6

REFERENCE_FREQUENCY_MHZ = 100.0
REFERENCE_MULTIPLIERS = 608


@dataclass(frozen=True)
class ClockConfig:
    """Clock and external memory settings for latency estimation."""

    frequency_mhz: float = REFERENCE_FREQUENCY_MHZ
    bandwidth_gbps: float = CALIBRATED_BANDWIDTH_GBPS

    def __post_init__(self):
        # NaN fails every comparison; infinite bandwidth stays legal
        if not (0 < self.frequency_mhz < math.inf and self.bandwidth_gbps > 0
                and self.bytes_per_cycle > 0):
            raise DomainError("clock frequency and bandwidth must be positive, "
                              "the frequency finite")

    @property
    def bytes_per_cycle(self) -> float:
        return self.bandwidth_gbps * 1e9 / (self.frequency_mhz * 1e6)


def throughput_report(frequency_mhz: float = REFERENCE_FREQUENCY_MHZ) -> dict[str, float]:
    """Peak multiply-accumulate throughput of each engine in GOp/s."""
    hz = frequency_mhz * 1e6
    out = {name: rate * hz / 1e9 for name, rate in MADDS_PER_CYCLE.items()}
    out["ADD"] = ADD_OPS_PER_CYCLE * hz / 1e9
    return out


def bandwidth_report(frequency_mhz: float = REFERENCE_FREQUENCY_MHZ) -> dict[str, float]:
    """Peak on-chip weight (and addition stream) port bandwidth in Gbit/s.

    Each engine reads one word from each of its weight memories plus one
    bias word per cycle; the addition engine reads its residual stream
    instead of weights.
    """
    hz = frequency_mhz * 1e6
    out = {}
    for engine, (mems, word_bits, bias_bits) in WEIGHT_GEOMETRY.items():
        out[engine] = (mems * word_bits + bias_bits) * hz / 1e9
    out["ADD"] = ADD_STREAM_BITS * hz / 1e9
    return out


@dataclass
class TimelineEntry:
    """Cycle accounting for one round."""

    round_index: int
    stage1_cycles: int
    weight_load_cycles: int
    stage2_cycles: int
    start_cycle: int
    end_cycle: int
    limiting: str
    trailing: bool

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


def _round_numbers(model: PreparedModel, plan: RoundPlan) -> tuple[int, int, int]:
    """(stage1 cycles, weight bytes to load, stage2 cycles) of a round.

    Only the pointwise engines (projection and expansion) load their
    weights for the round.
    """
    whole, streamed = ([model.layers[i] for i in stage] for stage in (plan.whole, plan.streamed))
    load_bytes = sum(weight_bytes(l) for l in whole + streamed if l.kind in (Kind.PRO, Kind.EXP))
    whole_cycles = sum(engine_cycles(l) for l in whole)
    if plan.trailing:
        # nothing hides the load: it runs first, then the slot's compute
        return 0, load_bytes, whole_cycles
    return whole_cycles, load_bytes, max(engine_cycles(l) for l in streamed)


def estimate_timeline(
    model: PreparedModel, clock: ClockConfig = ClockConfig()
) -> list[TimelineEntry]:
    """Per-round latency timeline of one frame."""
    entries: list[TimelineEntry] = []
    cursor = 0
    for r, plan in enumerate(model.rounds):
        stage1, load_bytes, stage2 = _round_numbers(model, plan)
        load = load_bytes / clock.bytes_per_cycle
        if not math.isfinite(load):
            raise DomainError(f"round {r}: loading {load_bytes} weight bytes at "
                              f"{clock.bytes_per_cycle!r} bytes/cycle takes no finite time")
        load = math.ceil(load)
        gate = max(stage1, load)
        # a trailing round has no stage-one raster to hide the load behind,
        # so its own compute is the yardstick instead
        yardstick = stage2 if plan.trailing else stage1
        entry = TimelineEntry(
            round_index=r,
            stage1_cycles=stage1,
            weight_load_cycles=load,
            stage2_cycles=stage2,
            start_cycle=cursor,
            end_cycle=cursor + gate + stage2,
            limiting="bandwidth" if load > yardstick else "compute",
            trailing=plan.trailing,
        )
        entries.append(entry)
        cursor = entry.end_cycle
    return entries


def total_latency(
    entries: list[TimelineEntry], clock: ClockConfig = ClockConfig()
) -> tuple[float, float]:
    """(milliseconds per frame, frames per second) for one in-flight frame."""
    if not entries:
        return 0.0, math.inf
    ms = entries[-1].end_cycle / (clock.frequency_mhz * 1e6) * 1e3
    return ms, 1e3 / ms


def first_bandwidth_limited_round(entries: list[TimelineEntry]) -> int | None:
    for e in entries:
        if not e.trailing and e.limiting == "bandwidth":
            return e.round_index
    return None


def normalize_performance(
    gops: float,
    frequency_mhz: float,
    multipliers: int,
    ref_frequency_mhz: float = REFERENCE_FREQUENCY_MHZ,
    ref_multipliers: int = REFERENCE_MULTIPLIERS,
) -> float:
    """Rescale a measured throughput to the reference clock and multiplier budget.

    Divides out the design's clock and hardware multiplier count and
    multiplies the reference budget back in, giving GOp/s the design
    would deliver per reference-sized resource envelope.
    """
    if gops <= 0 or frequency_mhz <= 0 or multipliers <= 0:
        raise DomainError("throughput, frequency and multiplier count must be positive")
    return gops * (ref_frequency_mhz / frequency_mhz) * (ref_multipliers / multipliers)


def performance_report(
    model: PreparedModel, clock: ClockConfig = ClockConfig()
) -> dict:
    """Full analytic report: timeline, totals, nominal rates."""
    entries = estimate_timeline(model, clock)
    latency, fps = total_latency(entries, clock)
    total_madds = sum(nominal_stats(l).madds for l in model.layers)
    return {
        "frequency_mhz": clock.frequency_mhz,
        "bandwidth_gbps": clock.bandwidth_gbps,
        "bytes_per_cycle": clock.bytes_per_cycle,
        "latency_ms": latency,
        "frames_per_second": fps,
        "total_cycles": entries[-1].end_cycle,
        "total_madds": total_madds,
        "effective_gops": total_madds / (latency * 1e-3) / 1e9,
        "first_bandwidth_limited_round": first_bandwidth_limited_round(entries),
        "rounds": entries,
        "engine_gops": throughput_report(clock.frequency_mhz),
        "engine_weight_gbps": bandwidth_report(clock.frequency_mhz),
    }

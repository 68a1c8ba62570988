"""Set-up, the timed frame loops and the correctness gate.

The load generator is one closed loop on one thread with one frame in
flight. Frame f runs one pool graph on one image in all three modes,
rotating which mode goes first so that no mode always pays for a cold
cache. Loops stop on a pass boundary.

The host is shared and its speed drifts by up to about 1.7x within
seconds to minutes, far more than any bound worth having. The untraced
run therefore times every call twice, back to back, on the same graph,
image and mode: once in the program and once in reference/semistream_ref,
a frozen copy of the runtime, alternating which goes first. A call's
time over its reference twin's time hardly moves with the host's speed.
Each timing sample is the median of these ratios over one slice of the
pool (Workload.slice_frames), and each end-to-end timing a statistic of
those samples times the reference's own time on the reference host
(workloads.REFERENCE), so it reads as milliseconds or seconds on that
host. Raw wall times of both are kept in the record. The traced run
reports raw wall times.
"""
from __future__ import annotations

import gc
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import semistream
from click.testing import CliRunner

from semistream import (
    Kind,
    QTensor,
    estimate_timeline,
    first_bandwidth_limited_round,
    image_to_qtensor,
    prepare,
    requantize_array,
    run_inference,
    run_layer,
    run_model_naive,
    save_ppm,
    schedule_rounds,
    total_latency,
)
from semistream.cli import main as cli_main

from tracing import NullTracer, Tracer
from workloads import REFERENCE, Workload

MODES = ("sequential", "stream", "threads")
KIND_NAMES = {Kind.C2D: "c2d", Kind.DWC: "dwc", Kind.PRO: "pro", Kind.EXP: "exp",
              Kind.ADD: "add", Kind.AVGPOOL: "pool"}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SETUP_REPS = 3
MIN_PASSES = 2
TRACED_MIN_PASSES = 3
PLAN_CALLS = 10


@dataclass
class Gate:
    """Frames attempted and failed, plus failures not tied to one frame."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    #: first logits seen for each (graph, image): later frames must repeat them
    reference: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems

    def fail(self, frames, message: str) -> None:
        self.failed.update(frames)
        self.problems.append(message)

    def agree(self, key, logits: dict) -> str | None:
        """Name of the first logits that differ from the key's reference, if any."""
        want = self.reference.setdefault(key, next(iter(logits.values())))
        return next((n for n, got in logits.items() if not np.array_equal(got, want)), None)


@dataclass
class Setup:
    models: list
    images: list[list[QTensor]]
    seconds: list[float]
    packages: list[Path]
    package_bytes: int


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def reference_api():
    """The frozen reference runtime; imported late, so peak RSS never counts it."""
    if str(REFERENCE_DIR) not in sys.path:
        sys.path.insert(0, str(REFERENCE_DIR))
    import semistream_ref

    return semistream_ref


def build_once(api, wl: Workload, workdir: Path, tag: str, tracer=NullTracer()):
    """Build, prepare, save, load and run one cold sequential frame per pool graph.

    Returns the models, their cold logits, the package paths and the wall
    time from the first build to the last graph's cold logits.
    """
    packages = [workdir / f"{tag}-{g}" for g in range(wl.pool)]
    rounding = wl.rounding_of(api)
    models, cold = [], []
    t0 = time.perf_counter()
    for g, build in enumerate(wl.graph_fns):
        with tracer.span("modelkit.build", graph=g):
            graph = build(api)
        with tracer.span("modelkit.prepare", graph=g):
            model = api.prepare(graph, rounding)
        with tracer.span("modelkit.save", graph=g):
            api.save_package(model, packages[g])
        with tracer.span("modelkit.load", graph=g):
            model = api.load_package(packages[g])
        with tracer.span("dataflow.run_inference", graph=g, mode="sequential"):
            image = api.image_to_qtensor(wl.images[g][0], model)
            cold.append(api.run_inference(model, image, mode="sequential").logits.data)
        models.append(model)
    return models, cold, packages, time.perf_counter() - t0


def check_cold(gate: Gate, cold: list) -> None:
    for g, logits in enumerate(cold):
        if gate.agree((g, 0), {"cold": logits}):
            gate.problems.append(f"graph {g}: cold logits differ between set-ups")


def set_up(wl: Workload, workdir: Path, reps: int, tracer, gate: Gate) -> Setup:
    """The program's set-up, `reps` times over; the last one's models are kept.

    One repetition's time covers the whole pool, from model build to the
    logits of each graph's first cold sequential frame.
    """
    seconds = []
    for rep in range(reps):
        with tracer.span("setup", rep=rep):
            models, cold, packages, s = build_once(semistream, wl, workdir, f"pkg{rep}", tracer)
        seconds.append(s)
        check_cold(gate, cold)
        if rep < reps - 1:
            for p in packages:
                shutil.rmtree(p)
    images = [[image_to_qtensor(im, m) for im in imgs] for m, imgs in zip(models, wl.images)]
    return Setup(models, images, seconds, packages, sum(_tree_bytes(p) for p in packages))


def paired_set_ups(ref, wl: Workload, workdir: Path, reps: int, gate: Gate):
    """Program and reference set-ups back to back, alternating which goes first.

    Returns the reference's last models with their images, and the
    (program, reference) wall seconds of each pair.
    """
    pairs = []
    for rep in range(reps):
        order = (ref, semistream) if rep % 2 == 0 else (semistream, ref)
        seconds = {}
        for api in order:
            models, cold, packages, seconds[api] = build_once(api, wl, workdir, f"{api.__name__}{rep}")
            if api is semistream:
                check_cold(gate, cold)
            for p in packages:
                shutil.rmtree(p)
            if api is ref:
                ref_models = models
        pairs.append((seconds[semistream], seconds[ref]))
    images = [[ref.image_to_qtensor(im, m) for im in imgs] for m, imgs in zip(ref_models, wl.images)]
    return ref_models, images, pairs


def warm_up(api, models: list, images: list, gate: Gate | None) -> None:
    """One untimed frame per mode on every pool graph, before any timing."""
    for g, model in enumerate(models):
        for mode in MODES:
            logits = api.run_inference(model, images[g][0], mode=mode).logits.data
            if gate and gate.agree((g, 0), {mode: logits}):
                gate.problems.append(f"graph {g}: warm-up {mode} logits differ")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_frames(wl: Workload, seconds: float, min_passes: int, body) -> int:
    """Call body(f) until `seconds` are up and min_passes passes are done.

    Always stops on a pass boundary. Returns the number of frames run.
    """
    gc.collect()
    deadline = time.perf_counter() + seconds
    f = 0
    while f < min_passes * wl.pool or f % wl.pool or time.perf_counter() < deadline:
        body(f)
        f += 1
    return f


def mode_order(wl: Workload, f: int) -> tuple[str, ...]:
    k = (f + f // wl.pool) % len(MODES)
    return MODES[k:] + MODES[:k]


def pass_means(per_frame: list, pool: int) -> list[float]:
    """Mean of each complete pass; passes holding a frame that raised are dropped."""
    out = []
    for p in range(len(per_frame) // pool):
        chunk = per_frame[p * pool:(p + 1) * pool]
        if all(v is not None for v in chunk):
            out.append(statistics.fmean(chunk))
    return out


def slices(per_frame: list, n: int) -> list[list]:
    """Consecutive complete runs of n frames."""
    return [per_frame[i:i + n] for i in range(0, len(per_frame) - n + 1, n)]


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples above it.

    With fewer than eleven samples no percentile qualifies, and the
    maximum is reported with the number of samples above it (zero).
    """
    s = sorted(samples)
    j = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return {"value": s[j], "percentile": 100.0 * (j + 1) / len(s),
            "samples": len(s), "beyond": len(s) - 1 - j}


def oracle_check(wl: Workload, setup: Setup, gate: Gate, keys_by_frame, tracer) -> None:
    """Compare logits with oracle.run_model_naive, outside every timed region."""
    ran = sorted(set(keys_by_frame))
    if wl.oracle_frames is not None:
        rng = np.random.default_rng(wl.seed)
        picks = rng.choice(len(ran), size=min(wl.oracle_frames, len(ran)), replace=False)
        ran = [ran[int(i)] for i in sorted(picks)]
    for key in ran:
        g, i = key
        with tracer.span("oracle.run_model_naive", graph=g, image=i):
            want = run_model_naive(setup.models[g], wl.images[g][i])
        if gate.agree(key, {"oracle": want}):
            frames = [f for f, k in enumerate(keys_by_frame) if k == key]
            gate.fail(frames, f"{key}: logits differ from oracle.run_model_naive")


def check_anchors(wl: Workload, setup: Setup, gate: Gate) -> None:
    if not wl.anchors:
        return
    model = setup.models[0]
    if wl.anchor_graph is not None:
        model = prepare(wl.anchor_graph(semistream), wl.rounding_of(semistream))
    entries = estimate_timeline(model)
    got = {
        "model_cycles": entries[-1].end_cycle,
        "latency_ms": round(total_latency(entries)[0], 3),
        "first_bw_round": first_bandwidth_limited_round(entries),
    }
    for name, want in wl.anchors.items():
        if got[name] != want:
            # every frame ran on a model that misses its anchor
            gate.fail(range(gate.attempted), f"anchor {name}: got {got[name]}, expected {want}")


def model_cycles(setup: Setup) -> float:
    return statistics.fmean(estimate_timeline(m)[-1].end_cycle for m in setup.models)


def _timed_call(api, model, image, mode: str):
    t0 = time.perf_counter_ns()
    result = api.run_inference(model, image, mode=mode)
    return (time.perf_counter_ns() - t0) / 1e6, result


def end_to_end(wl: Workload, workdir: Path, seconds: float, smoke: bool) -> tuple[dict, dict, Gate]:
    """The untraced run: every end-to-end metric, timed against the reference."""
    gate = Gate()
    setup = set_up(wl, workdir, 1, NullTracer(), gate)
    warm_up(semistream, setup.models, setup.images, gate)
    # Read here, not after the loop: over many threads-mode frames glibc's
    # per-thread arenas settle at one of several sizes (78 or 97 MB from
    # run to run on mnv2-64-w0.5-trunc, 2-CPU x86-64 host), which would
    # swamp any change the program makes. The after-loop peak is recorded.
    # The reference is not imported yet, so none of this is its memory.
    rss_warm = peak_rss_mb()
    ref = reference_api()
    ref_models, ref_images, setup_pairs = paired_set_ups(
        ref, wl, workdir, 1 if smoke else wl.setup_pairs, gate)
    warm_up(ref, ref_models, ref_images, None)
    rows: list = []
    keys: list = []

    def frame(f: int) -> None:
        key = wl.frame_key(f)
        g, i = key
        keys.append(key)
        gate.attempted += 1
        ms, ref_ms, logits = {}, {}, {}
        try:
            for mode in mode_order(wl, f):
                if f % 2:
                    ms[mode], result = _timed_call(semistream, setup.models[g], setup.images[g][i], mode)
                    ref_ms[mode], _ = _timed_call(ref, ref_models[g], ref_images[g][i], mode)
                else:
                    ref_ms[mode], _ = _timed_call(ref, ref_models[g], ref_images[g][i], mode)
                    ms[mode], result = _timed_call(semistream, setup.models[g], setup.images[g][i], mode)
                logits[mode] = result.logits.data
        except Exception as e:  # a frame that raises is a failed frame, not a crash
            gate.fail([f], f"frame {f} {key}: {e!r}")
            return
        rows.append((ms, ref_ms))
        if (bad := gate.agree(key, logits)):
            gate.fail([f], f"frame {f} {key}: {bad} logits differ")

    run_frames(wl, seconds, 1 if smoke else MIN_PASSES, frame)
    rss_after_loop = peak_rss_mb()
    oracle_check(wl, setup, gate, keys, NullTracer())
    check_anchors(wl, setup, gate)

    scale = REFERENCE[wl.name]
    pairs = {m: [(ms[m], ref_ms[m]) for ms, ref_ms in rows] for m in MODES}
    # one sample per slice of the pool: the median ratio of its calls, scaled
    scaled = {m: [scale[m] * statistics.median(a / b for a, b in chunk)
                  for chunk in slices(pairs[m], wl.slice_frames)] for m in MODES}
    # per slice, frames over the time spent in them: a ratio of sums, so a
    # stall weighs by its length, not by how short the call it hit was
    slice_time_ratios = [sum(a for a, _ in chunk) / sum(b for _, b in chunk)
                         for chunk in slices(pairs["sequential"], wl.slice_frames)]
    setup_ratios = [p / r for p, r in setup_pairs]
    seq_tail = tail(scaled["sequential"])
    metrics = {
        "seq_frame_ms": statistics.median(scaled["sequential"]),
        "seq_frame_ms_tail": seq_tail["value"],
        "stream_frame_ms": statistics.median(scaled["stream"]),
        "threads_frame_ms": statistics.median(scaled["threads"]),
        "frames_per_s": 1e3 / (scale["sequential"] * statistics.median(slice_time_ratios)),
        "setup_s": scale["setup_s"] * statistics.median(setup_ratios),
        "peak_rss_mb": rss_warm,
        "model_cycles": model_cycles(setup),
    }
    detail = {
        "frames": len(rows), "pool": wl.pool, "slice_frames": wl.slice_frames,
        "reference_scale": scale,
        "wall_ms_median": {m: statistics.median(a for a, _ in pairs[m]) for m in MODES},
        "reference_wall_ms_median": {m: statistics.median(b for _, b in pairs[m]) for m in MODES},
        "seq_frame_ms_tail": seq_tail,
        "setup_ratios": setup_ratios,
        "calls_ms": pairs,
        "setup_wall_s": {"first": setup.seconds[0], "pairs": setup_pairs},
        "peak_rss_after_loop_mb": rss_after_loop,
        "failed_frac": len(gate.failed) / max(gate.attempted, 1),
    }
    return metrics, detail, gate


def _accumulators(model, rng) -> list:
    """One seeded accumulator per rescaling layer, in its output shape."""
    out = []
    for idx, layer in enumerate(model.layers):
        if layer.mults is None:
            continue
        acc = rng.integers(-2**24, 2**24, size=(layer.out_h * layer.out_w, layer.out_ch))
        mults = np.array([m.mult for m in layer.mults], dtype=np.int64)
        shifts = np.array([m.shift for m in layer.mults], dtype=np.int64)
        out.append((idx, acc, mults, shifts, layer.out_zero))
    return out


def traced(wl: Workload, workdir: Path, seconds: float, smoke: bool) -> tuple[dict, dict, Gate, Tracer]:
    """The traced run: every per-layer metric, from spans around public calls."""
    gate = Gate()
    tracer = Tracer()
    setup = set_up(wl, workdir, 1 if smoke else SETUP_REPS, tracer, gate)
    warm_up(semistream, setup.models, setup.images, gate)
    models = setup.models
    sources = [m.residual_sources for m in models]
    rng = np.random.default_rng(wl.seed)
    accs = [_accumulators(m, rng) for m in models]
    seq_results: dict = {}
    keys: list = []

    for g, model in enumerate(models):
        for _ in range(PLAN_CALLS):
            with tracer.span("dataflow.schedule_rounds", graph=g):
                schedule_rounds(model)
            with tracer.span("perfmodel.estimate_timeline", graph=g):
                estimate_timeline(model)

    def frame(f: int) -> None:
        key = wl.frame_key(f)
        g, i = key
        model, image = models[g], setup.images[g][i]
        keys.append(key)
        gate.attempted += 1
        tracer.frame = f
        logits = {}
        try:
            with tracer.span("frame", graph=g, image=i):
                with tracer.span("replay"):
                    x, kept = image, {}
                    for idx, layer in enumerate(model.layers):
                        residual = kept.pop(layer.residual_from, None) if layer.kind is Kind.ADD else None
                        with tracer.span("engines.run_layer", layer=idx, kind=KIND_NAMES[layer.kind]):
                            x, _ = run_layer(x, layer, residual=residual, rounding=model.rounding)
                        if idx in sources[g]:
                            kept[idx] = x
                logits["replay"] = x.data
                for mode in mode_order(wl, f):
                    with tracer.span("dataflow.run_inference", mode=mode):
                        result = run_inference(model, image, mode=mode)
                    logits[mode] = result.logits.data
                    if mode == "sequential":
                        seq_results.setdefault(g, result)
                with tracer.span("requant"):
                    for idx, acc, mults, shifts, zero in accs[g]:
                        with tracer.span("quantcore.requantize_array", layer=idx):
                            requantize_array(acc, mults, shifts, zero, model.rounding)
        except Exception as e:  # a frame that raises is a failed frame, not a crash
            gate.fail([f], f"frame {f} {key}: {e!r}")
            return
        finally:
            tracer.frame = None
        if (bad := gate.agree(key, logits)):
            gate.fail([f], f"frame {f} {key}: {bad} logits differ")

    frames = run_frames(wl, seconds, 1 if smoke else TRACED_MIN_PASSES, frame)
    oracle_check(wl, setup, gate, keys, tracer)
    check_anchors(wl, setup, gate)

    ppm = workdir / "cli-image.ppm"
    save_ppm(ppm, wl.images[0][0])
    runner = CliRunner()
    for _ in range(wl.cli_calls):
        with tracer.span("cli.infer"):
            res = runner.invoke(cli_main, ["infer", "--model", str(setup.packages[0]), "--image", str(ppm)])
        if res.exit_code != 0:
            gate.problems.append(f"semistream infer exited {res.exit_code}: {res.output[-300:]!r}")

    metrics, detail = _per_layer_metrics(wl, setup, tracer, seq_results, frames, gate)
    return metrics, detail, gate, tracer


def _per_frame(tracer: Tracer, frames: int) -> list:
    """Per-frame sums of the frame's spans, None for a frame that raised."""
    rows = [{} for _ in range(frames)]
    for s in tracer.spans:
        if s.frame is None:
            continue
        row = rows[s.frame]
        if s.name == "engines.run_layer":
            k = "engines." + s.args["kind"] + "_ms"
            row[k] = row.get(k, 0.0) + s.ms
            row["engine_sum"] = row.get("engine_sum", 0.0) + s.ms
        elif s.name == "quantcore.requantize_array":
            row["quantcore.requant_ms"] = row.get("quantcore.requant_ms", 0.0) + s.ms
        elif s.name == "dataflow.run_inference":
            row[s.args["mode"]] = s.ms
        elif s.name == "replay":
            row["replay_wall"] = s.ms
    for f, row in enumerate(rows):
        if not all(m in row for m in MODES):
            rows[f] = None
            continue
        row["dataflow.stream_overhead_ms"] = row["stream"] - row["engine_sum"]
        row["dataflow.threads_overhead_ms"] = row["threads"] - row["engine_sum"]
    return rows


def _median_by_graph(spans, pool: int) -> float:
    """Mean over the pool of each graph's median span time."""
    by_graph = [[] for _ in range(pool)]
    for s in spans:
        by_graph[s.args["graph"]].append(s.ms)
    return statistics.fmean(statistics.median(v) for v in by_graph)


def _per_layer_metrics(wl, setup, tracer, seq_results, frames, gate) -> tuple[dict, dict]:
    rows = _per_frame(tracer, frames)

    def median_pass(name: str) -> float:
        return statistics.median(pass_means([r and r.get(name, 0.0) for r in rows], wl.pool))

    def setup_ms(name: str) -> float:
        by_rep: dict = {}
        setups = {s.id: s.args["rep"] for s in tracer.named("setup")}
        for s in tracer.named(name):
            by_rep[setups[s.parent]] = by_rep.get(setups[s.parent], 0.0) + s.ms
        return statistics.median(by_rep.values())

    entries = [estimate_timeline(m) for m in setup.models]
    first_bw = [r for r in map(first_bandwidth_limited_round, entries) if r is not None]
    totals = [r.total for r in seq_results.values()]
    metrics = {
        "modelkit.build_ms": setup_ms("modelkit.build"),
        "modelkit.prepare_ms": setup_ms("modelkit.prepare"),
        "modelkit.save_ms": setup_ms("modelkit.save"),
        "modelkit.load_ms": setup_ms("modelkit.load"),
        "modelkit.package_bytes": setup.package_bytes,
    }
    for kind in KIND_NAMES.values():
        metrics[f"engines.{kind}_ms"] = median_pass(f"engines.{kind}_ms")
    for field_name in ("madds", "cycles", "weight_bytes"):
        metrics[f"engines.{field_name}"] = statistics.fmean(getattr(t, field_name) for t in totals)
    metrics.update({
        "quantcore.requant_ms": median_pass("quantcore.requant_ms"),
        "dataflow.stream_overhead_ms": median_pass("dataflow.stream_overhead_ms"),
        "dataflow.threads_overhead_ms": median_pass("dataflow.threads_overhead_ms"),
        "dataflow.schedule_ms": _median_by_graph(tracer.named("dataflow.schedule_rounds"), wl.pool),
        "dataflow.rounds": statistics.fmean(len(e) for e in entries),
        "perfmodel.timeline_ms": _median_by_graph(tracer.named("perfmodel.estimate_timeline"), wl.pool),
        "perfmodel.first_bw_round": min(first_bw) if first_bw else -1,
        "perfmodel.bw_limited_rounds": statistics.fmean(
            sum(1 for x in e if x.limiting == "bandwidth") for e in entries),
        "oracle.naive_ms": statistics.median(s.ms for s in tracer.named("oracle.run_model_naive")),
        "cli.infer_ms": statistics.median(s.ms for s in tracer.named("cli.infer")),
        "failed_frac": len(gate.failed) / max(gate.attempted, 1),
    })
    replay = median_pass("replay_wall")
    untraced = median_pass("sequential")
    detail = {
        "frames": frames, "pool": wl.pool,
        "tracing_overhead": {
            "traced_replay_ms": replay, "untraced_seq_ms": untraced,
            "ratio": replay / untraced,
        },
        "layers": _layer_table(setup, tracer, seq_results),
    }
    return metrics, detail


def _layer_table(setup, tracer, seq_results) -> list[dict]:
    """Host ms per layer index beside its modelled cycles, madds and weight bytes."""
    graph_of = {s.id: s.args["graph"] for s in tracer.named("frame")}
    replay_of = {s.id: graph_of[s.parent] for s in tracer.named("replay")}
    host: dict = {}
    for s in tracer.named("engines.run_layer"):
        host.setdefault((replay_of[s.parent], s.args["layer"]), []).append(s.ms)
    table = []
    for g, model in enumerate(setup.models):
        for idx, layer in enumerate(model.layers):
            st = seq_results[g].stats[idx] if g in seq_results else None
            times = host.get((g, idx))
            table.append({
                "graph": g, "layer": idx, "kind": layer.kind.value,
                "host_ms": statistics.median(times) if times else None,
                "cycles": st and st.cycles, "madds": st and st.madds,
                "weight_bytes": st and st.weight_bytes,
            })
    return table

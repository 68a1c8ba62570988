"""Command line interface.

Commands: gen-model, gen-image, prepare, infer, verify, report.
Exit codes: 0 on success, 1 when verification finds a mismatch, 2 for
usage errors, malformed inputs or a file that cannot be read or written.
"""
from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click
import numpy as np

from .dataflow import run_inference
from .engines import run_layer
from .errors import SemistreamError
from .modelkit import (
    ENGINE_FOR_KIND,
    BlockSpec,
    Kind,
    LayerDesc,
    PreparedModel,
    QFilterSet,
    QTensor,
    _derive_parameters,
    build_model,
    build_mobilenet_v2,
    image_to_qtensor,
    load_image,
    load_package,
    prepare,
    save_package,
    save_ppm,
    save_raw,
)
from .oracle import dequantize, naive_quant_layer, run_model_naive
from .perfmodel import CALIBRATED_BANDWIDTH_GBPS, ClockConfig, EngineStats, performance_report
from .quantcore import Rounding

_ROUNDING = click.Choice(["nearest", "truncate"])
_MODE = click.Choice(["stream", "sequential", "threads"])
_SEED = click.IntRange(min=0)


class _Cli(click.Group):
    """The one error boundary: a rejected input or a failed file access
    prints ``error: ...`` and exits 2, without a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SemistreamError, OSError) as e:
            click.echo(f"error: {e}", err=True)
            ctx.exit(2)


@click.group(cls=_Cli)
def main():
    """Integer-only quantized CNN inference with an analytic performance model."""


@main.command("gen-model")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Package directory to write.")
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("--width", default=1.0, show_default=True, type=float, help="Width multiplier.")
@click.option("--resolution", default=224, show_default=True, type=int)
@click.option("--rounding", default="nearest", show_default=True, type=_ROUNDING)
def gen_model(out_dir, seed, width, resolution, rounding):
    """Generate a seeded random quantized model and save it as a package."""
    graph = build_mobilenet_v2(width_multiplier=width, resolution=resolution, seed=seed)
    model = prepare(graph, Rounding(rounding))
    save_package(model, out_dir)
    click.echo(f"wrote {out_dir}: {len(model.layers)} layers, "
               f"{model.num_blocks} blocks, resolution {resolution}, seed {seed}")
    click.echo(_round_summary(model.rounds))


def _round_summary(plans: list) -> str:
    main = sum(1 for p in plans if not p.trailing)
    trailing = len(plans) - main
    return (f"round plan: {main} rounds through the block pipeline "
            f"+ {trailing} trailing head rounds")


@main.command("gen-image")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--resolution", default=224, show_default=True, type=click.IntRange(min=1))
@click.option("--channels", default=3, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=_SEED)
def gen_image(out_path, resolution, channels, seed):
    """Generate a random test image (PPM for 3 channels, raw otherwise)."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(resolution, resolution, channels), dtype=np.uint8)
    if channels == 3 and not str(out_path).endswith(".raw"):
        save_ppm(out_path, pixels)
    else:
        save_raw(out_path, pixels)
    click.echo(f"wrote {out_path}")


@main.command("prepare")
@click.option("--model", "model_dir", required=True, type=click.Path(exists=True))
def prepare_cmd(model_dir):
    """Load a package, validate it, and print a layer summary."""
    model = load_package(model_dir)
    plans = model.rounds
    click.echo(f"package ok: {len(model.layers)} layers, {model.num_blocks} blocks, "
               f"resolution {model.resolution}, rounding {model.rounding.value}")
    click.echo(_round_summary(plans))
    header = f"{'idx':>3}  {'kind':<8}{'in':<16}{'out':<16}{'stride':<7}{'block':<6}shortcut"
    click.echo(header)
    for idx, l in enumerate(model.layers):
        ins = f"{l.in_h}x{l.in_w}x{l.in_ch}"
        outs = f"{l.out_h}x{l.out_w}x{l.out_ch}"
        block = "-" if l.block is None else str(l.block)
        res = "-" if l.residual_from is None else f"layer {l.residual_from}"
        click.echo(f"{idx:>3}  {l.kind.value:<8}{ins:<16}{outs:<16}{l.stride:<7}{block:<6}{res}")
    click.echo(f"{'round':>5}  slots")
    for r, p in enumerate(plans):
        tag = "T" if p.trailing else " "
        slots = ", ".join(f"{ENGINE_FOR_KIND[model.layers[i].kind].lower()} -> layer {i}"
                          for i in p.whole + p.streamed)
        click.echo(f"{r:>4}{tag}  {slots}")


@main.command("infer")
@click.option("--model", "model_dir", required=True, type=click.Path(exists=True))
@click.option("--image", "image_path", required=True, type=click.Path(exists=True))
@click.option("--mode", default="stream", show_default=True, type=_MODE)
@click.option("--rounding", default=None, type=_ROUNDING,
              help="Override the rounding mode the package was prepared with.")
@click.option("--top", default=5, show_default=True, type=click.IntRange(min=0),
              help="Classes to print.")
@click.option("--stats", is_flag=True, help="Print per-layer work accounting.")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Write all logits as JSON.")
def infer(model_dir, image_path, mode, rounding, top, stats, out_path):
    """Run one image through a model package."""
    model = load_package(model_dir)
    pixels = load_image(image_path)
    image = image_to_qtensor(pixels, model)
    result = run_inference(
        model, image, mode=mode,
        rounding=None if rounding is None else Rounding(rounding),
    )
    last = model.layers[-1]
    raw = result.logits.data.reshape(-1)[: last.orig_out_ch]
    real = dequantize(raw, last.out_scale, last.out_zero)
    order = np.argsort(real)[::-1][:top]
    click.echo(f"mode {result.mode}, {len(raw)} classes")
    for rank, cls in enumerate(order, 1):
        click.echo(f"  {rank}. class {cls}: code {int(raw[cls])}, value {real[cls]:+.6f}")
    click.echo(f"{'engine':<8}{'cycles':>12}{'madds':>16}{'weight bytes':>14}")
    for engine, st in _stats_by_engine(model, result.stats).items():
        click.echo(f"{engine:<8}{st.cycles:>12}{st.madds:>16}{st.weight_bytes:>14}")
    if stats:
        click.echo(f"{'idx':>3}  {'kind':<8}{'cycles':>10}{'madds':>14}"
                   f"{'weight B':>10}{'out elems':>11}")
        for idx, l in enumerate(model.layers):
            st = result.stats[idx]
            click.echo(f"{idx:>3}  {l.kind.value:<8}{st.cycles:>10}{st.madds:>14}"
                       f"{st.weight_bytes:>10}{st.output_elements:>11}")
        t = result.total
        click.echo(f"total cycles {t.cycles}, madds {t.madds}, weight bytes {t.weight_bytes}")
    if out_path:
        payload = {
            "classes": int(last.orig_out_ch),
            "codes": [int(v) for v in raw],
            "values": [float(v) for v in real],
        }
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
        click.echo(f"wrote {out_path}")


def _stats_by_engine(model: PreparedModel, stats: dict[int, EngineStats]) -> dict[str, EngineStats]:
    out: dict[str, EngineStats] = {}
    for idx, st in sorted(stats.items()):
        engine = ENGINE_FOR_KIND[model.layers[idx].kind]
        out[engine] = out[engine] + st if engine in out else st
    return out


def _first_mismatch(got, want) -> str:
    """Locate the first differing element of two integer tensors."""
    got = np.asarray(got, dtype=np.int64).reshape(-1)
    want = np.asarray(want, dtype=np.int64).reshape(-1)
    if got.shape != want.shape:
        return f"shape mismatch: got {got.shape}, expected {want.shape}"
    bad = np.nonzero(got != want)[0]
    if bad.size == 0:
        return ""
    i = int(bad[0])
    return (f"first mismatch at flat element {i}: got {int(got[i])}, "
            f"expected {int(want[i])}; {bad.size} elements differ")


def _random_pointwise_twins(rng) -> tuple[LayerDesc, LayerDesc, QTensor]:
    """One random 1x1 layer expressed for both pointwise engines."""
    h = int(rng.integers(1, 9))
    w = int(rng.integers(1, 9))
    cin = int(rng.choice([16, 32, 48, 64]))
    cout = int(rng.choice([16, 32, 48, 64]))
    weights = rng.integers(0, 256, size=(1, 1, cin, cout), dtype=np.uint8)
    zero_points = rng.integers(0, 256, size=cout)
    biases = rng.integers(-30000, 30001, size=cout)
    # equal edge scales, so each rescale factor is its filter's scale
    filters = QFilterSet(1, 1, cin, cout, weights, zero_points,
                         2.0 ** rng.uniform(-8.0, -1.0, size=cout), biases)
    common = dict(
        in_h=h, in_w=w, in_ch=cin, out_h=h, out_w=w, out_ch=cout,
        in_scale=0.05, in_zero=int(rng.integers(0, 256)),
        out_scale=0.05, out_zero=int(rng.integers(0, 256)),
        filters=filters,
    )
    pro, exp = _derive_parameters([LayerDesc(kind=Kind.PRO, **common),
                                   LayerDesc(kind=Kind.EXP, **common)], Rounding.NEAREST)
    x = QTensor(h, w, cin,
                rng.integers(0, 256, size=(h, w, cin), dtype=np.uint8),
                zero_point=pro.in_zero, scale=pro.in_scale)
    return pro, exp, x


def run_verification(
    seed: int = 0, trials: int = 5, model: PreparedModel | None = None
) -> list[tuple[str, bool, str]]:
    """Cross-check the engines, the dataflow drivers, and the package format.

    Each trial builds a small random model (or reuses the given one),
    compares every execution mode against the direct reference
    evaluator, checks both pointwise engine orders against each other,
    and round-trips the package through disk. Returns (name, passed,
    detail) rows; a failing row's detail pinpoints the first
    mismatching element.
    """
    import tempfile

    results: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(seed)
    for t in range(trials):
        if model is None:
            nblocks = int(rng.integers(2, 4))
            blocks = []
            ch = int(rng.integers(1, 3)) * 8
            for b in range(nblocks):
                stride = int(rng.choice([1, 2])) if b else 1
                same = bool(rng.integers(0, 2)) and stride == 1
                out_ch = ch if same else int(rng.integers(1, 3)) * 8
                blocks.append(BlockSpec(int(rng.integers(1, 4)), out_ch, stride))
                ch = out_ch
            resolution = int(rng.choice([8, 12, 16]))
            graph = build_model(blocks, resolution, seed=int(rng.integers(0, 2**31)),
                                include_head=False)
            trial_model = prepare(graph)
            shape_note = f"{nblocks} blocks, resolution {resolution}"
        else:
            trial_model = model
            resolution = trial_model.resolution
            shape_note = f"given model, resolution {resolution}"
        pixels = rng.integers(0, 256, size=(resolution, resolution, 3), dtype=np.uint8)
        image = image_to_qtensor(pixels, trial_model)

        reference = run_model_naive(trial_model, pixels, rounding=trial_model.rounding)
        seq = run_inference(trial_model, image, mode="sequential")
        ok = bool(np.array_equal(seq.logits.data, reference))
        results.append((f"trial {t}: engines match reference", ok,
                        shape_note if ok else _first_mismatch(seq.logits.data, reference)))
        stream = run_inference(trial_model, image, mode="stream")
        ok = stream.logits == seq.logits
        results.append((f"trial {t}: stream matches sequential", ok,
                        "" if ok else _first_mismatch(stream.logits.data, seq.logits.data)))
        threads = run_inference(trial_model, image, mode="threads")
        ok = threads.logits == seq.logits
        results.append((f"trial {t}: threads match sequential", ok,
                        "" if ok else _first_mismatch(threads.logits.data, seq.logits.data)))

        pro_layer, exp_layer, x = _random_pointwise_twins(rng)
        by_pro, _ = run_layer(x, pro_layer)
        by_exp, _ = run_layer(x, exp_layer)
        ok = by_pro == by_exp
        results.append((f"trial {t}: pointwise engine orders agree", ok,
                        "" if ok else _first_mismatch(by_exp.data, by_pro.data)))
        want = naive_quant_layer(x, pro_layer)
        ok = bool(np.array_equal(by_pro.data, want))
        results.append((f"trial {t}: pointwise engines match reference", ok,
                        "" if ok else _first_mismatch(by_pro.data, want)))

        with tempfile.TemporaryDirectory() as tmp:
            save_package(trial_model, tmp)
            again = load_package(tmp)
        ok = again == trial_model
        results.append((f"trial {t}: package round-trip", ok, ""))
    return results


@main.command("verify")
@click.option("--seed", default=0, show_default=True, type=_SEED)
@click.option("--trials", default=5, show_default=True, type=click.IntRange(min=0))
@click.option("--model", "model_dir", default=None, type=click.Path(exists=True),
              help="Verify this package instead of fresh random models.")
def verify(seed, trials, model_dir):
    """Run randomized self-checks; exit 1 if any fail."""
    if trials == 0:
        click.echo("warning: 0 trials requested, no checks run", err=True)
        click.echo("0/0 checks passed")
        return
    model = load_package(model_dir) if model_dir else None
    results = run_verification(seed=seed, trials=trials, model=model)
    failed = 0
    for name, ok, detail in results:
        mark = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        click.echo(f"{mark:>4}  {name}{suffix}")
        failed += 0 if ok else 1
    click.echo(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        sys.exit(1)


@main.command("report")
@click.option("--model", "model_dir", required=True, type=click.Path(exists=True))
@click.option("--freq-mhz", default=100.0, show_default=True, type=float)
@click.option("--bandwidth-gbps", default=CALIBRATED_BANDWIDTH_GBPS, show_default=True,
              type=float, help="External memory bandwidth in gigabytes per second.")
@click.option("--infinite-bandwidth", is_flag=True,
              help="Model unbounded external memory (every round compute-limited).")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "csv"]))
@click.option("--out", "out_path", default=None, type=click.Path())
def report(model_dir, freq_mhz, bandwidth_gbps, infinite_bandwidth, fmt, out_path):
    """Print the analytic performance report for a model package."""
    if infinite_bandwidth:
        bandwidth_gbps = float("inf")
    model = load_package(model_dir)
    clock = ClockConfig(frequency_mhz=freq_mhz, bandwidth_gbps=bandwidth_gbps)
    rep = performance_report(model, clock)
    if fmt == "csv":
        target = open(out_path, "w", newline="") if out_path else sys.stdout
        try:
            w = csv.writer(target)
            w.writerow(["round", "trailing", "stage1_cycles", "weight_load_cycles",
                        "stage2_cycles", "start_cycle", "end_cycle", "limiting"])
            for e in rep["rounds"]:
                w.writerow([e.round_index, int(e.trailing), e.stage1_cycles,
                            e.weight_load_cycles, e.stage2_cycles, e.start_cycle,
                            e.end_cycle, e.limiting])
        finally:
            if out_path:
                target.close()
                click.echo(f"wrote {out_path}")
        return
    lines = []
    lines.append(f"clock {rep['frequency_mhz']:.1f} MHz, external bandwidth "
                 f"{rep['bandwidth_gbps']:.3f} GB/s ({rep['bytes_per_cycle']:.2f} bytes/cycle)")
    lines.append(f"latency {rep['latency_ms']:.3f} ms per frame, "
                 f"{rep['frames_per_second']:.1f} frames/s, "
                 f"{rep['total_cycles']} cycles")
    lines.append(f"total madds {rep['total_madds']}, effective {rep['effective_gops']:.2f} GOp/s")
    fb = rep["first_bandwidth_limited_round"]
    lines.append("all rounds compute-limited" if fb is None
                 else f"first bandwidth-limited round: {fb}")
    lines.append("")
    lines.append(f"{'round':>5} {'stage1':>9} {'load':>9} {'stage2':>9} "
                 f"{'end':>10}  limiting")
    for e in rep["rounds"]:
        tag = "T" if e.trailing else " "
        lines.append(f"{e.round_index:>4}{tag} {e.stage1_cycles:>9} "
                     f"{e.weight_load_cycles:>9} {e.stage2_cycles:>9} "
                     f"{e.end_cycle:>10}  {e.limiting}")
    lines.append("")
    lines.append("engine peak GOp/s: " + ", ".join(
        f"{k} {v:.1f}" for k, v in sorted(rep["engine_gops"].items())))
    lines.append("engine weight Gb/s: " + ", ".join(
        f"{k} {v:.1f}" for k, v in sorted(rep["engine_weight_gbps"].items())))
    text = "\n".join(lines)
    if out_path:
        Path(out_path).write_text(text + "\n")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()

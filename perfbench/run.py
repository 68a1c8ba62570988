#!/usr/bin/env python3
"""semistream benchmark: warm frame latency per execution mode on three
workloads, plus a traced per-module breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload random-tiny --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both runs
    python3 perfbench/run.py --workload all --smoke       # quick self-test of the harness

--trace 0 prints every end-to-end metric; --trace 1 runs the traced
replay and prints every per-layer metric. The last line of output is one
JSON object with the keys correct, attempted, failed and metrics. Each
run also writes a record with the machine facts, and the traced run a
Chrome trace and a per-layer table, under .perfbench/results/. The exit
code is 0 only when every output checked out.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: the workloads BENCHMARK.json lists
BENCHMARKED = ("mnv2-64-w0.5-trunc", "random-tiny")
#: mnv2-224's calls take about a second each: on a shared host too few
#: fit in a run for steady figures, so it runs on request and in `all`
WORKLOADS = ("mnv2-224",) + BENCHMARKED
#: a run that has not finished by then is stopped, so it never hangs
WATCHDOG_S = 170

END_TO_END = {
    "seq_frame_ms": "ms",
    "seq_frame_ms_tail": "ms",
    "stream_frame_ms": "ms",
    "threads_frame_ms": "ms",
    "frames_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model_cycles": "cycles",
}
PER_LAYER = {
    "modelkit.build_ms": "ms",
    "modelkit.prepare_ms": "ms",
    "modelkit.save_ms": "ms",
    "modelkit.load_ms": "ms",
    "modelkit.package_bytes": "bytes",
    "engines.c2d_ms": "ms",
    "engines.dwc_ms": "ms",
    "engines.pro_ms": "ms",
    "engines.exp_ms": "ms",
    "engines.add_ms": "ms",
    "engines.pool_ms": "ms",
    "engines.madds": "count",
    "engines.cycles": "cycles",
    "engines.weight_bytes": "bytes",
    "quantcore.requant_ms": "ms",
    "dataflow.stream_overhead_ms": "ms",
    "dataflow.threads_overhead_ms": "ms",
    "dataflow.schedule_ms": "ms",
    "dataflow.rounds": "count",
    "perfmodel.timeline_ms": "ms",
    "perfmodel.first_bw_round": "round",
    "perfmodel.bw_limited_rounds": "count",
    "oracle.naive_ms": "ms",
    "cli.infer_ms": "ms",
    "failed_frac": "ratio",
}


def import_program():
    """Import semistream from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import semistream
    except ImportError as e:
        sys.exit(f"perfbench: cannot import semistream from {SRC}: {e}")
    if not Path(semistream.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: semistream was imported from {semistream.__file__}, not {SRC}")


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas")
    except (TypeError, KeyError):  # numpy builds without the dict form
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def _watchdog_fired() -> None:
    print(f"perfbench: run did not finish within {WATCHDOG_S} s", file=sys.stderr, flush=True)
    os._exit(3)


def run_one(args) -> int:
    import_program()
    import measure
    import workloads

    watchdog = threading.Timer(WATCHDOG_S, _watchdog_fired)
    watchdog.daemon = True
    watchdog.start()

    wl = workloads.make(args.workload, args.seed, args.smoke)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            metrics, detail, gate, tracer = measure.traced(wl, Path(tmp), args.seconds, args.smoke)
        else:
            metrics, detail, gate = measure.end_to_end(wl, Path(tmp), args.seconds, args.smoke)
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names drifted: {sorted(set(metrics) ^ set(units))}")
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    files = {"record": results / f"{stem}.json"}
    if args.trace:
        files["trace"] = results / f"{stem}.chrome.json"
        files["layers"] = results / f"{stem}.layers.json"
        tracer.write_chrome(files["trace"])
        files["layers"].write_text(json.dumps(detail.pop("layers"), indent=1))
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine_facts(),
        "correct": gate.correct, "attempted": gate.attempted, "failed": len(gate.failed),
        "problems": gate.problems[:20], "detail": detail, "metrics": metrics,
    }
    files["record"].write_text(json.dumps(record, indent=1))

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"frames {gate.attempted}  failed {len(gate.failed)}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        t = detail["seq_frame_ms_tail"]
        print(f"  seq_frame_ms_tail is p{t['percentile']:.1f} of {t['samples']} samples, "
              f"{t['beyond']} beyond it")
        print(f"  failed_frac {detail['failed_frac']:.6g} ratio")
    else:
        o = detail["tracing_overhead"]
        print(f"  tracing overhead: traced replay {o['traced_replay_ms']:.4g} ms vs untraced "
              f"sequential {o['untraced_seq_ms']:.4g} ms (x{o['ratio']:.3f})")
    for name, path in files.items():
        print(f"  {name}: {path.relative_to(ROOT)}")
    for problem in gate.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": len(gate.failed), "metrics": metrics}), flush=True)
    watchdog.cancel()
    return 0 if gate.correct else 1


def check_benchmark_json() -> list[str]:
    """Differences between BENCHMARK.json and the names this harness prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        "workloads": set(BENCHMARKED),
        "end_to_end": set(END_TO_END),
        "per_layer": set(PER_LAYER),
    }
    out = []
    for key, names in want.items():
        got = {e["name"] for e in spec[key]}
        if got != names:
            out.append(f"BENCHMARK.json {key} differ: {sorted(got ^ names)}")
    units = {**END_TO_END, **PER_LAYER}
    for e in spec["end_to_end"] + spec["per_layer"]:
        if units.get(e["name"], e["unit"]) != e["unit"]:
            out.append(f"BENCHMARK.json unit of {e['name']} is {e['unit']}, not {units[e['name']]}")
    return out


def run_all(args) -> int:
    """Every workload, each run in its own process so peak RSS stays its own."""
    traces = (0, 1) if args.trace is None else (args.trace,)
    combined, ok, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            cmd += ["--smoke"] if args.smoke else []
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WATCHDOG_S + 30)
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                combined[f"{name}/{metric}"] = m
    if args.smoke:
        for problem in check_benchmark_json():
            print(f"perfbench: {problem}", file=sys.stderr)
            ok = False
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}), flush=True)
    return 0 if ok and failed == 0 else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="length of the timed loop; whole passes over the pool always finish")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: untraced end-to-end run, 1: traced per-layer run "
                        "(default 0, or both with --workload all)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny lengths and pools, to test the harness itself")
    args = p.parse_args()
    if args.smoke:
        args.seconds = 0.0
    if args.workload == "all":
        return run_all(args)
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

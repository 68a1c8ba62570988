"""End-to-end command line coverage, driven in-process."""
from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import semistream.engines as engines
from semistream.cli import main, run_verification
from semistream.dataflow import run_inference
from semistream.errors import PlanError
from semistream.modelkit import (
    BlockSpec,
    Kind,
    PreparedModel,
    build_model,
    image_to_qtensor,
    load_image,
    load_package,
    prepare,
    save_package,
    save_ppm,
)
from semistream.oracle import run_model_naive
from semistream.quantcore import Rounding

from conftest import edit_layers

runner = CliRunner()


def run_cli(*args, **kwargs):
    return runner.invoke(main, [str(a) for a in args], **kwargs)


def alltext(result) -> str:
    return result.output + result.stderr


@pytest.fixture(scope="module")
def pkg64(tmp_path_factory):
    out = tmp_path_factory.mktemp("pkg") / "model64"
    res = run_cli("gen-model", "--out", out, "--resolution", 64, "--seed", 0)
    assert res.exit_code == 0, res.output
    return out


@pytest.fixture(scope="module")
def img64(tmp_path_factory):
    out = tmp_path_factory.mktemp("img") / "in.ppm"
    res = run_cli("gen-image", "--out", out, "--resolution", 64, "--seed", 1)
    assert res.exit_code == 0, res.output
    return out


@pytest.fixture(scope="module")
def pkg224(tmp_path_factory):
    out = tmp_path_factory.mktemp("pkg") / "model224"
    res = run_cli("gen-model", "--out", out, "--resolution", 224, "--seed", 0)
    assert res.exit_code == 0, res.output
    return out, res.output


# ---------------------------------------------------------------------------
# model and image generation
# ---------------------------------------------------------------------------

def test_gen_model_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_cli("gen-model", "--out", out, "--resolution", 64, "--seed", 0)
        assert res.exit_code == 0, res.output
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_gen_model_different_seed_differs(tmp_path, pkg64):
    other = tmp_path / "seed9"
    res = run_cli("gen-model", "--out", other, "--resolution", 64, "--seed", 9)
    assert res.exit_code == 0
    assert load_package(other) != load_package(pkg64)


def test_gen_model_full_resolution_prints_the_plan(pkg224):
    _, output = pkg224
    assert "71 layers, 17 blocks" in output
    assert "17 rounds through the block pipeline + 3 trailing head rounds" in output


def test_gen_model_rejects_bad_resolution(tmp_path):
    res = run_cli("gen-model", "--out", tmp_path / "x", "--resolution", 100)
    assert res.exit_code == 2
    assert "error:" in res.stderr


def test_gen_image_formats(tmp_path):
    ppm = tmp_path / "a.ppm"
    res = run_cli("gen-image", "--out", ppm, "--resolution", 16)
    assert res.exit_code == 0
    assert ppm.read_bytes().startswith(b"P6")
    assert load_image(ppm).shape == (16, 16, 3)
    raw = tmp_path / "b.raw"
    res = run_cli("gen-image", "--out", raw, "--resolution", 8, "--channels", 16)
    assert res.exit_code == 0
    assert load_image(raw).shape == (8, 8, 16)


def test_prepare_lists_layers_and_rounds(pkg64):
    res = run_cli("prepare", "--model", pkg64)
    assert res.exit_code == 0
    assert "package ok: 71 layers, 17 blocks" in res.output
    assert "dwc -> layer" in res.output
    assert "exp -> layer" in res.output
    assert "19T" in res.output  # the classifier round is marked trailing


def test_prepare_rejects_a_non_package(tmp_path, pkg64):
    empty = tmp_path / "hollow"
    empty.mkdir()
    listed = tmp_path / "listed"
    listed.mkdir()
    (listed / "manifest.json").write_text("[1, 2]\n")
    # loads, but its blocks no longer number from zero
    unplanned = tmp_path / "unplanned"
    shutil.copytree(pkg64, unplanned)
    manifest = json.loads((unplanned / "manifest.json").read_text())
    for entry in manifest["layers"]:
        if entry["block"] == 0:
            entry["block"] = 99
    (unplanned / "manifest.json").write_text(json.dumps(manifest))
    for bad in (empty, listed, unplanned):
        res = run_cli("prepare", "--model", bad)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)  # through _fail, no traceback
        assert "error:" in res.stderr


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def test_infer_reports_classes_and_engine_stats(pkg64, img64, tmp_path):
    out_json = tmp_path / "logits.json"
    res = run_cli("infer", "--model", pkg64, "--image", img64,
                  "--out", out_json)
    assert res.exit_code == 0, alltext(res)
    assert "mode stream, 1000 classes" in res.output
    assert "1. class" in res.output
    for engine in ("C2D", "DWC", "PRO", "EXP", "ADD"):
        assert engine in res.output

    payload = json.loads(out_json.read_text())
    assert payload["classes"] == 1000
    model = load_package(pkg64)
    want = run_model_naive(model, load_image(img64)).reshape(-1)[:1000]
    assert payload["codes"] == [int(v) for v in want]


def test_infer_modes_agree_through_the_cli(pkg64, img64, tmp_path):
    outs = {}
    for mode in ("stream", "sequential", "threads"):
        path = tmp_path / f"{mode}.json"
        res = run_cli("infer", "--model", pkg64, "--image", img64,
                      "--mode", mode, "--out", path)
        assert res.exit_code == 0
        outs[mode] = json.loads(path.read_text())["codes"]
    assert outs["stream"] == outs["sequential"] == outs["threads"]


def test_infer_per_layer_stats_flag(pkg64, img64):
    res = run_cli("infer", "--model", pkg64, "--image", img64, "--stats")
    assert res.exit_code == 0
    assert "total cycles" in res.output
    assert "AVGPOOL" in res.output  # only the per-layer table names the pool


def test_infer_rejects_a_wrong_size_image(pkg64, tmp_path):
    small = tmp_path / "small.ppm"
    assert run_cli("gen-image", "--out", small, "--resolution", 32).exit_code == 0
    res = run_cli("infer", "--model", pkg64, "--image", small)
    assert res.exit_code == 2
    assert "does not match the model input" in res.stderr
    assert "(32, 32, 3)" in res.stderr and "(64, 64, 3)" in res.stderr


def test_infer_rejects_a_malformed_image(pkg64, tmp_path):
    bad = tmp_path / "bad.raw"
    bad.write_bytes(b"HWC -1 -1 3\n" + bytes(3))
    res = run_cli("infer", "--model", pkg64, "--image", bad)
    assert res.exit_code == 2
    assert "positive integers" in res.stderr
    assert "Traceback" not in alltext(res)


def test_a_block_out_of_order_is_rejected_everywhere(tmp_path):
    """A block listing its PRO before its DWC, with edges and rescale
    factors kept consistent, used to load and run: sequential mode matched
    run_model_naive while stream and threads mode streamed the wrong layers
    and returned other logits. The order rule rejects it at load time."""
    graph = edit_layers(build_model([BlockSpec(2, 16, 1), BlockSpec(1, 16, 1)], 8, seed=3,
                                    include_head=False), "swap", 5)
    assert [l.kind for l in graph.layers[5:7]] == [Kind.PRO, Kind.DWC]
    order = r"layer 5 \(PRO, block 1\) breaks the layer order"
    with pytest.raises(PlanError, match=order):
        prepare(graph)
    # the constructor validates nothing, so this model holds the bad order
    swapped = PreparedModel(graph.layers, graph.resolution, graph.width_multiplier,
                            graph.seed, Rounding.NEAREST)
    pixels = np.random.default_rng(0).integers(0, 256, (8, 8, 3)).astype(np.uint8)
    for mode in ("sequential", "stream", "threads"):
        with pytest.raises(PlanError, match=order):
            run_inference(swapped, image_to_qtensor(pixels, swapped), mode=mode)
    pkg, img = tmp_path / "swapped", tmp_path / "in.ppm"
    save_package(swapped, pkg)
    save_ppm(img, pixels)
    with pytest.raises(PlanError, match=order):
        load_package(pkg)
    for mode in ("sequential", "stream", "threads"):
        res = run_cli("infer", "--model", pkg, "--image", img, "--mode", mode)
        assert res.exit_code == 2, alltext(res)
        assert "breaks the layer order" in res.stderr
        assert "Traceback" not in alltext(res)


@pytest.mark.parametrize("args", [
    ("gen-model", "--width", "nan"),
    ("gen-model", "--width", "inf"),
    ("gen-model", "--seed", "-1"),
    ("gen-image", "--seed", "-1"),
    ("gen-image", "--resolution", "-4"),
    ("gen-image", "--channels", "-1"),
    ("gen-image", "--resolution", "0"),
    ("gen-image", "--channels", "0"),
    ("verify", "--seed", "-1"),
    ("verify", "--trials", "-1"),
    ("infer", "--top", "-1"),
    ("report", "--freq-mhz", "nan"),
    ("report", "--freq-mhz", "inf"),
    ("report", "--bandwidth-gbps", "nan"),
    ("report", "--bandwidth-gbps", "1e-320"),
], ids=lambda a: f"{a[0]}{a[1]}={a[2]}")
def test_bad_numeric_inputs_exit_2_without_a_traceback(args, pkg64, img64, tmp_path):
    target = {"gen-model": ["--out", tmp_path / "m", "--resolution", 32],
              "gen-image": ["--out", tmp_path / "i.ppm"],
              "verify": ["--trials", 1],
              "infer": ["--model", pkg64, "--image", img64],
              "report": ["--model", pkg64]}[args[0]]
    # the option under test comes last, so it overrides a default in target
    res = run_cli(args[0], *target, *args[1:])
    assert res.exit_code == 2, alltext(res)
    assert "Traceback" not in alltext(res)
    assert not (tmp_path / "m").exists() and not (tmp_path / "i.ppm").exists()


@pytest.mark.parametrize("case", [
    "gen-image-into-missing-dir",
    "gen-model-over-a-file",
    "infer-image-is-a-dir",
    "infer-out-into-missing-dir",
    "report-out-into-missing-dir",
    "report-csv-into-missing-dir",
])
def test_file_errors_exit_2_without_a_traceback(case, pkg64, img64, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("x")
    missing = tmp_path / "missing"
    args = {
        "gen-image-into-missing-dir": ["gen-image", "--out", missing / "x.ppm"],
        "gen-model-over-a-file": ["gen-model", "--out", afile, "--resolution", 32],
        "infer-image-is-a-dir": ["infer", "--model", pkg64, "--image", tmp_path],
        "infer-out-into-missing-dir": ["infer", "--model", pkg64, "--image", img64,
                                       "--out", missing / "x.json"],
        "report-out-into-missing-dir": ["report", "--model", pkg64, "--out", missing / "r.txt"],
        "report-csv-into-missing-dir": ["report", "--model", pkg64, "--format", "csv",
                                        "--out", missing / "r.csv"],
    }[case]
    res = run_cli(*args)
    assert res.exit_code == 2, alltext(res)
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in alltext(res)
    assert not missing.exists()


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_healthy(pkg64):
    res = run_cli("verify", "--trials", 2, "--seed", 3)
    assert res.exit_code == 0, alltext(res)
    assert "12/12 checks passed" in res.output
    assert "FAIL" not in res.output
    res = run_cli("verify", "--trials", 1, "--model", pkg64)
    assert res.exit_code == 0
    assert "given model" in res.output
    assert "6/6 checks passed" in res.output


def test_verify_zero_trials_warns(capsys):
    res = run_cli("verify", "--trials", 0)
    assert res.exit_code == 0
    assert "0/0 checks passed" in res.output
    assert "warning: 0 trials requested" in res.stderr


def test_verify_negative_trials(capsys):
    res = run_cli("verify", "--trials", -2)
    assert res.exit_code == 2


def test_verify_catches_an_off_by_one(monkeypatch):
    real = engines.apply_rescale
    monkeypatch.setattr(engines, "apply_rescale",
                        lambda *a, **k: real(*a, **k) + 1)
    res = run_cli("verify", "--trials", 1)
    assert res.exit_code == 1
    assert "FAIL" in res.output
    assert "first mismatch at flat element" in res.output
    assert "checks passed" in res.output


def test_run_verification_rows():
    rows = run_verification(seed=1, trials=2)
    assert len(rows) == 12
    assert all(ok for _, ok, _ in rows)
    names = [name for name, _, _ in rows]
    assert any("pointwise engine orders agree" in n for n in names)
    assert any("package round-trip" in n for n in names)


# ---------------------------------------------------------------------------
# performance report
# ---------------------------------------------------------------------------

def test_report_reference_design_point(pkg224):
    pkg, _ = pkg224
    res = run_cli("report", "--model", pkg)
    assert res.exit_code == 0, alltext(res)
    assert "latency 10.596 ms per frame, 94.4 frames/s, 1059648 cycles" in res.output
    assert "first bandwidth-limited round: 13" in res.output
    assert ("engine peak GOp/s: ADD 5.4, C2D 89.6, DWC 16.0, "
            "EXP 27.2, PRO 27.2") in res.output
    assert ("engine weight Gb/s: ADD 12.8, DWC 140.8, "
            "EXP 230.4, PRO 233.6") in res.output


#: `report`'s whole text output for the standard 224 package.
REPORT_224 = """\
clock 100.0 MHz, external bandwidth 2.600 GB/s (26.00 bytes/cycle)
latency 10.596 ms per frame, 94.4 frames/s, 1059648 cycles
total madds 383943672, effective 36.23 GOp/s
first bandwidth-limited round: 13

round    stage1      load    stage2        end  limiting
   0      75264        79     75264     150528  compute
   1      75264       296     56448     282240  compute
   2      28224       355     56448     366912  compute
   3      28224       414     18816     413952  compute
   4       9408       473     18816     442176  compute
   5       9408       473     18816     470400  compute
   6       9408      1418     18816     498624  compute
   7       4704      1891     18816     522144  compute
   8       4704      1891     18816     545664  compute
   9       4704      1891     18816     569184  compute
  10       4704      3545     42336     616224  compute
  11       7056      4254     42336     665616  compute
  12       7056      4254     42336     715008  compute
  13       7056      9453     29400     753861  bandwidth
  14       2940     11816     29400     795077  bandwidth
  15       2940     11816     29400     836293  bandwidth
  16       2940     11816     58800     906909  bandwidth
  17T         0     15754     78400    1001063  compute
  18T         0         0      3920    1004983  compute
  19T         0     49625      5040    1059648  bandwidth

engine peak GOp/s: ADD 5.4, C2D 89.6, DWC 16.0, EXP 27.2, PRO 27.2
engine weight Gb/s: ADD 12.8, DWC 140.8, EXP 230.4, PRO 233.6
"""


def test_report_output_is_pinned(pkg224):
    """The text report, byte for byte, and the CSV rows by sha-256."""
    pkg, _ = pkg224
    res = run_cli("report", "--model", pkg)
    assert res.exit_code == 0, alltext(res)
    assert res.output == REPORT_224
    res = run_cli("report", "--model", pkg, "--format", "csv")
    assert res.exit_code == 0, alltext(res)
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "1b675d9e8ec2f06b50bbcec8f82e4f25172ab99a3f31e34e057421f14baf72e2")


def test_report_infinite_bandwidth(pkg224):
    pkg, _ = pkg224
    res = run_cli("report", "--model", pkg, "--infinite-bandwidth")
    assert res.exit_code == 0
    assert "all rounds compute-limited" in res.output
    assert "bandwidth" not in res.output.split("compute-limited", 1)[1]


def test_report_csv(pkg224, tmp_path):
    pkg, _ = pkg224
    out = tmp_path / "rounds.csv"
    res = run_cli("report", "--model", pkg, "--format", "csv", "--out", out)
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("round,trailing,stage1_cycles")
    assert len(lines) == 21  # header plus one row per round
    for line in lines[1:]:
        assert line.rsplit(",", 1)[1] in ("compute", "bandwidth")


def test_report_respects_the_clock(pkg224):
    pkg, _ = pkg224
    res = run_cli("report", "--model", pkg, "--freq-mhz", 200)
    assert res.exit_code == 0
    assert "C2D 179.2" in res.output


def test_report_rejects_bad_flags(pkg224, tmp_path):
    pkg, _ = pkg224
    res = run_cli("report", "--model", pkg, "--freq-mhz", 0)
    assert res.exit_code == 2
    hollow = tmp_path / "hollow"
    hollow.mkdir()
    assert run_cli("report", "--model", hollow).exit_code == 2

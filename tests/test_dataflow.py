"""Streaming plumbing: queues, frames, the round schedule, the drivers."""
from __future__ import annotations

import dataclasses
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistream.dataflow import (
    BoundedQueue,
    FrameBuffer,
    _add_process,
    _run_round_robin,
    _run_threaded,
    residual_fifo_capacity,
    run_inference,
    schedule_rounds,
)
from semistream.engines import add_elements, compile_records, layer_record
from semistream.errors import (
    DeadlockError,
    DomainError,
    PlanError,
    SequencingError,
    SemistreamError,
    ShapeError,
)
from semistream.modelkit import (
    LANES,
    BlockSpec,
    Kind,
    ModelGraph,
    PreparedModel,
    QFilterSet,
    QTensor,
    build_mobilenet_v2,
    build_model,
    check_acc_bound,
    image_to_qtensor,
    load_package,
    prepare,
    save_package,
    validate_graph,
)
from semistream.oracle import run_model_naive
from semistream.perfmodel import estimate_timeline
from semistream.quantcore import Rounding, apply_rescale, pack_multipliers, rescale_constants

from conftest import edit_layers, toy_model, toy_pair


@pytest.fixture(scope="module")
def standard():
    return prepare(build_mobilenet_v2(seed=0))


def drain(gen):
    """Run a generator to completion, failing the test if it blocks."""
    for token in gen:
        pytest.fail(f"unexpected block: {token}")


def outcome(fn, timeout: float = 10.0):
    """Run fn in a helper thread and return what it raised (None if nothing).

    A driver that hangs fails the test after timeout seconds instead of
    stalling the suite.
    """
    box: list = []

    def target():
        try:
            fn()
            box.append(None)
        except BaseException as e:
            box.append(e)

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout)
    if helper.is_alive():
        pytest.fail(f"driver gave no result within {timeout} s")
    return box[0]


# ---------------------------------------------------------------------------
# queues and frames
# ---------------------------------------------------------------------------

def test_queue_fifo_order():
    q = BoundedQueue(8)
    for v in "abc":
        assert q.try_put(v)
    assert [q.try_get()[1] for _ in range(3)] == list("abc")
    assert q.try_get() == (False, None)


def test_queue_word_weighted_capacity():
    q = BoundedQueue(4, "w")
    assert q.try_put("x", words=3)
    assert q.words == 3
    assert not q.try_put("y", words=2)  # 5 words would overflow
    assert q.try_put("y", words=1)
    assert q.words == 4 and q.peak_words == 4
    q.try_get()
    assert q.words == 1
    with pytest.raises(DomainError, match="never fit"):
        q.try_put("z", words=5)
    with pytest.raises(DomainError, match="at least one"):
        BoundedQueue(0)


def test_queue_generators_block_and_resume():
    q = BoundedQueue(1)
    assert q.try_put("first")
    putter = q.put_g("second")
    token = next(putter)
    assert token.kind == "full"
    assert q.try_get() == (True, "first")
    with pytest.raises(StopIteration):
        next(putter)  # retry succeeds once a slot opened
    getter = q.get_g()
    got = None
    try:
        next(getter)  # queue holds "second", returns immediately
    except StopIteration as stop:
        got = stop.value
    assert got == "second"


def test_frame_buffer_assembly():
    buf = FrameBuffer(npix=6, channels=32, label="f")
    data = np.arange(6 * 32, dtype=np.uint8).reshape(6, 32)
    assert not buf.complete and buf.progress == 0
    with pytest.raises(SequencingError, match="before completion"):
        buf.assemble()
    buf.set_tensor(data)
    assert buf.complete and buf.progress == 1
    np.testing.assert_array_equal(buf.assemble(), data)


def test_frame_buffer_write_contract():
    """Only npix pixels of the buffer's channels, as uint8, are taken;
    a rejected write leaves the buffer unwritten."""
    buf = FrameBuffer(npix=4, channels=32, label="g")
    for bad in (np.zeros((2, 32), np.uint8),  # right size, wrong pixel count
                np.zeros((4, 48), np.uint8), np.zeros((4, 16), np.uint8),
                np.zeros((4, 32), np.int64)):
        with pytest.raises(DomainError, match="4 pixels of 32 uint8 channels"):
            buf.set_tensor(bad)
    assert buf.progress == 0 and not buf.complete


def test_frame_buffer_is_written_once():
    buf = FrameBuffer(npix=3, channels=48, label="h")
    data = np.arange(3 * 48, dtype=np.uint8).reshape(3, 48)
    buf.set_tensor(data)
    with pytest.raises(SequencingError, match="'h' was written twice"):
        buf.set_tensor(data.copy())
    assert buf.progress == 1
    assert buf.assemble() is buf.assemble()


def test_frame_buffer_counts_early_reads():
    buf = FrameBuffer(npix=2, channels=16)
    waiter = buf.wait_complete_g()
    assert next(waiter) == ("frame", buf, 0)
    next(waiter)
    assert buf.reads_before_complete == 2
    buf.set_tensor(np.zeros((2, 16), dtype=np.uint8))
    with pytest.raises(StopIteration):
        next(waiter)
    assert buf.reads_before_complete == 2


def test_frame_buffer_adopts_a_whole_frame():
    """The buffer holds the written array itself, flattened to pixels,
    not a copy; any channel count is taken, so an image is a frame."""
    buf = FrameBuffer(npix=6, channels=32, label="a")
    data = np.arange(6 * 32, dtype=np.uint8).reshape(2, 3, 32)
    buf.set_tensor(data)
    frame = buf.assemble()
    assert frame.shape == (6, 32) and np.shares_memory(frame, data)
    np.testing.assert_array_equal(frame, data.reshape(6, 32))
    image = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3)
    rgb = FrameBuffer(npix=20, channels=3, label="image")
    rgb.set_tensor(image)
    assert rgb.assemble().shape == (20, 3) and np.shares_memory(rgb.assemble(), image)


# ---------------------------------------------------------------------------
# round schedule
# ---------------------------------------------------------------------------

def _kinds(model, stage):
    return [model.layers[i].kind for i in stage]


def test_standard_schedule_shape(standard):
    plans = schedule_rounds(standard)
    assert len(plans) == 20
    main = [p for p in plans if not p.trailing]
    assert len(main) == 17
    assert main[0].whole[0] == 0
    assert _kinds(standard, main[0].whole) == [Kind.C2D, Kind.DWC]  # block 0 has no expansion
    for k, p in enumerate(main):
        assert _kinds(standard, p.whole)[-1] is Kind.DWC
        assert _kinds(standard, p.streamed)[:2] == [Kind.PRO, Kind.ADD]
        assert all(standard.layers[i].block == k for i in p.whole[-1:] + p.streamed[:2])
    # each round hosts the NEXT block's expansion, pipelined one ahead
    for k, p in enumerate(main[:-1]):
        (exp,) = p.streamed[2:]
        assert standard.layers[exp].kind is Kind.EXP
        assert standard.layers[exp].block == k + 1
    assert len(main[16].streamed) == 2  # the head expansion runs as its own round
    tail = plans[17:]
    assert [_kinds(standard, p.whole) for p in tail] == [[Kind.EXP], [Kind.AVGPOOL], [Kind.PRO]]
    assert all(p.trailing and p.streamed == () for p in tail)


def test_slots_are_ordered(standard):
    with_exp0 = prepare(build_model([BlockSpec(2, 16, 1), BlockSpec(3, 16, 1)], 8, seed=5))
    assert _kinds(with_exp0, with_exp0.rounds[0].whole) == [Kind.C2D, Kind.EXP, Kind.DWC]
    whole_order = [Kind.C2D, Kind.EXP, Kind.DWC]
    for model in (standard, with_exp0):
        for p in schedule_rounds(model):
            whole = _kinds(model, p.whole)
            if p.trailing:
                assert len(whole) == 1
                continue
            assert whole == [k for k in whole_order if k in whole]
            assert _kinds(model, p.streamed) in (
                [Kind.PRO, Kind.ADD], [Kind.PRO, Kind.ADD, Kind.EXP])


def test_toy_schedule_covers_every_layer():
    for seed in range(6):
        model = toy_model(seed, include_head=seed % 2 == 0)
        plans = schedule_rounds(model)
        assigned = sorted(i for p in plans for i in p.whole + p.streamed)
        assert assigned == list(range(len(model.layers)))


def test_one_round_plan_per_model(monkeypatch):
    import semistream.modelkit as modelkit

    calls = []
    real = modelkit.schedule_rounds
    monkeypatch.setattr(modelkit, "schedule_rounds", lambda m: calls.append(m) or real(m))
    model, image, _ = toy_pair(3)
    want = run_inference(model, image, mode="sequential").logits
    for mode in ("stream", "stream", "threads"):
        assert run_inference(model, image, mode=mode).logits == want
    estimate_timeline(model)
    assert calls == [model]


def test_one_wiring_plan_per_model(monkeypatch):
    """Stream and threads frames read one wiring plan per model object,
    built on the first of them; a changed model is a new object with its own."""
    import semistream.dataflow as dataflow

    calls = []
    real = dataflow._wire
    monkeypatch.setattr(dataflow, "_wire", lambda m: calls.append(m) or real(m))
    model, image, _ = toy_pair(3)
    want = run_inference(model, image, mode="sequential").logits
    assert calls == []
    for mode in ("stream", "stream", "threads"):
        assert run_inference(model, image, mode=mode).logits == want
    assert [id(m) for m in calls] == [id(model)]
    moved = dataclasses.replace(model)
    for mode in ("threads", "stream"):
        assert run_inference(moved, image, mode=mode).logits == want
    assert [id(m) for m in calls] == [id(model), id(moved)]


def test_concurrent_stream_frames_share_one_model():
    """Two threads run stream frames on one model object at once, each on
    its own images, from the model's first stream frame on: the wiring
    plan they share holds nothing mutable, so every frame's logits equal
    sequential mode's."""
    model = prepare(build_mobilenet_v2(0.5, 32, seed=2))
    rng = np.random.default_rng(32)
    images = [[image_to_qtensor(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8), model)
               for _ in range(3)] for _ in range(2)]
    want = [[run_inference(model, im, mode="sequential").logits for im in ims] for ims in images]
    start = threading.Barrier(2)
    wrong: list = []  # (thread, frame) of each wrong frame, or an error

    def frames(k: int) -> None:
        try:
            start.wait()
            for f in range(20):
                got = run_inference(model, images[k][f % 3], mode="stream").logits
                if got != want[k][f % 3]:
                    wrong.append((k, f))
        except BaseException as e:
            wrong.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-frame
    runners = [threading.Thread(target=frames, args=(k,), daemon=True) for k in range(2)]
    try:
        for t in runners:
            t.start()
        for t in runners:
            t.join(60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in runners)
    assert wrong == []


def test_one_layer_record_per_layer(monkeypatch):
    """The engines check the bound once per layer, and build the
    addition tables once per shortcut layer, in one bulk call per model."""
    import semistream.engines as engines

    real_bound, real_tables = engines.check_acc_bound, engines._add_tables
    for seed in (4, 1):  # toy model 1 has two shortcuts, model 4 none
        model, image, _ = toy_pair(seed)
        bound, tables = [], []
        monkeypatch.setattr(engines, "check_acc_bound",
                            lambda l: bound.append(l) or real_bound(l))
        monkeypatch.setattr(engines, "_add_tables",
                            lambda ls: tables.extend(ls) or real_tables(ls))
        want = run_inference(model, image, mode="sequential").logits
        for mode in ("sequential", "sequential", "stream", "stream", "stream"):
            assert run_inference(model, image, mode=mode).logits == want
        assert sorted(map(id, bound)) == sorted(map(id, model.layers))
        shortcuts = [l for l in model.layers if l.residual_from is not None]
        assert len(shortcuts) == (2 if seed == 1 else 0)
        assert sorted(map(id, tables)) == sorted(map(id, shortcuts))


def test_a_frame_costs_nothing_until_its_stats_are_read(monkeypatch):
    """Neither driver accounts for work: a result reads each layer's cost
    off its geometry on the first read of stats, and only then."""
    import semistream.dataflow as dataflow

    calls = []
    real = dataflow.layer_cost
    monkeypatch.setattr(dataflow, "layer_cost", lambda l: calls.append(l) or real(l))
    model, image, _ = toy_pair(1)
    for mode in ("sequential", "stream", "threads"):
        result = run_inference(model, image, mode=mode)
        assert calls == []
        assert result.stats == {i: real(l) for i, l in enumerate(model.layers)}
        assert result.stats is result.stats
        assert [id(l) for l in calls] == [id(l) for l in model.layers]
        calls.clear()


def test_a_frame_builds_one_qtensor_the_logits(monkeypatch):
    """Engines pass uint8 arrays from layer to layer in both drivers; only
    the logits are wrapped."""
    model, image, pixels = toy_pair(1)
    run_inference(model, image, mode="sequential")  # records compiled
    built = []
    real = QTensor.__post_init__
    monkeypatch.setattr(QTensor, "__post_init__", lambda t: built.append(t) or real(t))
    for mode in ("sequential", "stream"):
        result = run_inference(model, image, mode=mode)
        assert built == [result.logits]
        assert np.array_equal(result.logits.data, run_model_naive(model, pixels))
        built.clear()


def test_validate_graph_runs_once_per_model_object(monkeypatch):
    """A model object built with the constructor is validated on its
    first frame, and only then."""
    import semistream.modelkit as modelkit

    prepared, image, _ = toy_pair(3)
    model = dataclasses.replace(prepared)  # a new model object, without a verdict yet
    calls = []
    real = modelkit.validate_graph
    monkeypatch.setattr(modelkit, "validate_graph", lambda g: calls.append(g) or real(g))
    for mode in ("sequential", "stream", "sequential"):
        run_inference(model, image, mode=mode)
    assert calls == [model]
    again = dataclasses.replace(model)
    for _ in range(3):
        run_inference(again, image, mode="sequential")
    assert calls == [model, again]


def test_a_loaded_model_is_validated_once(tmp_path, monkeypatch):
    """load_package validates the loaded layers and sets the model's
    verdict, so its first frame does not validate them again."""
    import semistream.modelkit as modelkit

    model, image, _ = toy_pair(3)
    save_package(model, tmp_path)
    calls = []
    real = modelkit.validate_graph
    monkeypatch.setattr(modelkit, "validate_graph", lambda g: calls.append(g) or real(g))
    loaded = load_package(tmp_path)
    logits = run_inference(loaded, image, mode="sequential").logits
    assert len(calls) == 1 and calls[0] is not loaded
    assert logits == run_inference(model, image, mode="sequential").logits


def test_an_unvalidated_model_that_does_not_chain_is_refused():
    """A model built with the constructor, never validated, raises the
    verdict's DomainError on every frame instead of reaching a kernel."""
    model, image, _ = toy_pair(1)
    dwc = next(i for i, l in enumerate(model.layers) if l.kind is Kind.DWC)
    broken = _with_layers(model, model.layers[:dwc] + model.layers[dwc + 1:])
    for _ in range(3):
        with pytest.raises(DomainError, match=f"layer {dwc} input"):
            run_inference(broken, image, mode="sequential")


def test_a_model_of_underived_layers_is_refused():
    """Layers straight from build_model carry no multipliers: a model built
    from them with the constructor chains, so it passes validate_graph,
    but raises DomainError in every mode instead of reaching a kernel."""
    graph = build_model([BlockSpec(1, 16, 1)], 8, seed=1, include_head=False)
    model = PreparedModel(graph.layers, graph.resolution, 1.0, None, Rounding.NEAREST)
    image = image_to_qtensor(np.zeros((8, 8, 3), dtype=np.uint8), model)
    for mode in ("sequential", "stream", "threads"):
        with pytest.raises(DomainError, match="lacks the parameters prepare"):
            run_inference(model, image, mode=mode)


def test_a_layer_that_breaks_its_engine_contract_raises_in_every_mode():
    """A depthwise layer at stride 3 chains (1x1 out of 2x2), but its
    engine runs strides 1 and 2 only: it gets no record, so every frame
    raises the same ShapeError."""
    graph = build_model([BlockSpec(1, 16, 1), BlockSpec(2, 16, 2)], 4, seed=5,
                        include_head=False)
    dwc = max(i for i, l in enumerate(graph.layers) if l.kind is Kind.DWC)
    assert graph.layers[dwc].in_h == 2 and graph.layers[dwc].out_h == 1
    graph.layers[dwc] = dataclasses.replace(graph.layers[dwc], stride=3)
    model = prepare(graph)
    pixels = np.zeros((4, 4, 3), dtype=np.uint8)
    image = image_to_qtensor(pixels, model)
    for mode in ("sequential", "stream", "sequential", "stream"):
        with pytest.raises(ShapeError, match="depthwise stride 3 unsupported"):
            run_inference(model, image, mode=mode)


def test_later_frames_build_no_constants_or_taps(monkeypatch):
    """After the first frame no engine call builds rescale constants or
    zero-corrects a filter bank, in any mode or rounding: every MAC
    engine's taps live in its record, and the pointwise engines read a
    resident zero-corrected int16 bank slice by slice."""
    import semistream.engines as engines
    import semistream.quantcore as quantcore

    model = prepare(build_mobilenet_v2(0.5, 64), rounding=Rounding.TRUNCATE)
    pixels = np.random.default_rng(53).integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
    image = image_to_qtensor(pixels, model)
    for mode in ("sequential", "stream"):
        run_inference(model, image, mode=mode)
    rescales, signed = [], []
    real_rescale, real_signed = quantcore.rescale_constants, engines._signed_weights
    counted = lambda *a: rescales.append(a) or real_rescale(*a)  # noqa: E731
    monkeypatch.setattr(quantcore, "rescale_constants", counted)
    monkeypatch.setattr(engines, "rescale_constants", counted)
    monkeypatch.setattr(engines, "_signed_weights",
                        lambda f, dtype: signed.append(f) or real_signed(f, dtype))
    want = run_model_naive(model, pixels)
    for mode in ("sequential", "stream", "threads", "sequential", "stream"):
        assert np.array_equal(run_inference(model, image, mode=mode).logits.data, want)
    other = run_inference(model, image, mode="stream", rounding=Rounding.NEAREST).logits
    assert np.array_equal(other.data, run_model_naive(model, pixels, Rounding.NEAREST))
    assert rescales == []
    assert signed == []


def test_a_first_frame_makes_one_rescale_pass(monkeypatch):
    """A model's first frame builds its records in one segmented
    rescale_constants pass over every rescaling layer, after one over
    every shortcut's operand tables, in every mode; later frames build
    none."""
    import semistream.engines as engines

    calls = []
    real = engines.rescale_constants
    monkeypatch.setattr(engines, "rescale_constants",
                        lambda *a, **k: calls.append("starts" in k) or real(*a, **k))
    for mode in ("sequential", "stream", "threads"):
        model, image, _ = toy_pair(1)  # two shortcut additions
        calls.clear()
        for _ in range(3):
            run_inference(model, image, mode=mode)
        assert calls == [False, True]


def test_the_earlier_of_two_contract_faults_is_named():
    """Two depthwise layers break their engine's stride contract; every
    mode names the earlier one, on every frame, and no layer gets a
    record."""
    graph = build_model([BlockSpec(1, 16, 2), BlockSpec(2, 16, 2)], 4, seed=5,
                        include_head=False)
    dwcs = [i for i, l in enumerate(graph.layers) if l.kind is Kind.DWC]
    for i, stride in zip(dwcs, (3, 4)):  # 2x2 -> 1x1 and 1x1 -> 1x1 at either stride
        graph.layers[i] = dataclasses.replace(graph.layers[i], stride=stride)
    model = prepare(graph)
    image = image_to_qtensor(np.zeros((4, 4, 3), dtype=np.uint8), model)
    for mode in ("sequential", "stream", "threads", "stream", "sequential", "threads"):
        with pytest.raises(ShapeError, match="depthwise stride 3 unsupported"):
            run_inference(model, image, mode=mode)
    assert not any("_record" in l.__dict__ for l in model.layers)


def test_a_model_without_layers_raises_its_verdict():
    model = PreparedModel(layers=[], resolution=8, width_multiplier=1.0, seed=None,
                          rounding=Rounding.NEAREST)
    image = QTensor(8, 8, 3, np.zeros((8, 8, 3), dtype=np.uint8), 0, 1.0)
    for mode in ("sequential", "stream", "threads"):
        with pytest.raises(DomainError, match="graph has no layers"):
            run_inference(model, image, mode=mode)


def test_a_prepared_model_is_validated_once(monkeypatch):
    """prepare validates the graph and sets the model's verdict, so no
    first frame validates the padded model again."""
    import semistream.modelkit as modelkit

    graph = build_model([BlockSpec(2, 24, 1), BlockSpec(3, 24, 1)], 8, seed=2)
    calls = []
    real = modelkit.validate_graph
    monkeypatch.setattr(modelkit, "validate_graph", lambda g: calls.append(g) or real(g))
    for mode in ("sequential", "stream", "threads"):
        calls.clear()
        model = prepare(graph)
        image = image_to_qtensor(np.zeros((8, 8, 3), dtype=np.uint8), model)
        run_inference(model, image, mode=mode)
        model.rounds
        assert calls == [graph]


def test_an_entry_convolution_off_the_lanes_is_validated_after_padding():
    """The one layer prepare does not pad is the entry convolution, which
    its engine fixes at 32 filters: with 20 the padded next layer no
    longer chains from it, so the prepared model's verdict is found on
    its first frame and raised in every mode."""
    layers = build_model([BlockSpec(1, 16, 1)], 8, seed=4, include_head=False).layers
    def cut(layer, w, **changes):  # the layer on the filter bank w, a slice of its own
        f = layer.filters
        n = w.shape[3]
        return dataclasses.replace(layer, **changes, filters=dataclasses.replace(
            f, in_channels=w.shape[2], out_channels=n, weights=w,
            zero_points=f.zero_points[:n], scales=f.scales[:n], biases=f.biases[:n]))

    c2d, dwc, pro = layers[:3]
    layers[:3] = [cut(c2d, c2d.filters.weights[..., :20], out_ch=20),
                  cut(dwc, dwc.filters.weights[..., :20], in_ch=20, out_ch=20),
                  cut(pro, pro.filters.weights[:, :, :20], in_ch=20)]
    graph = ModelGraph(layers, 8)
    validate_graph(graph)
    model = prepare(graph)
    image = image_to_qtensor(np.zeros((8, 8, 3), dtype=np.uint8), model)
    for mode in ("sequential", "stream", "threads"):
        with pytest.raises(DomainError, match="layer 1 input .* does not chain"):
            run_inference(model, image, mode=mode)


def test_prepared_models_pass_validate_graph(standard):
    """Padding keeps every rule validate_graph checks, which is what lets
    prepare set the model's verdict."""
    models = [toy_model(seed, include_head=bool(seed % 2)) for seed in range(10)]
    models += [prepare(build_mobilenet_v2(0.5, 64, seed=1)), standard]
    for model in models:
        assert model.verdict is None
        validate_graph(model)


def _with_layers(model, layers):
    return PreparedModel(
        layers=layers,
        resolution=model.resolution,
        width_multiplier=model.width_multiplier,
        seed=model.seed,
        rounding=model.rounding,
    )


def _image_for(model):
    first = model.layers[0]
    pixels = np.zeros((first.in_h, first.in_w, first.in_ch), dtype=np.uint8)
    return QTensor(first.in_h, first.in_w, first.in_ch, pixels, first.in_zero, first.in_scale)


def _on_edge(layer, src, **changes):
    """A copy of layer that reads and writes src's output edge."""
    return dataclasses.replace(layer, in_scale=src.out_scale, in_zero=src.out_zero,
                               out_scale=src.out_scale, out_zero=src.out_zero, **changes)


def test_schedule_rejects_malformed_graphs(tmp_path):
    """Each broken structure chains and is rejected with PlanError naming
    its first layer out of order, by validate_graph, load_package, the
    timeline and every mode."""
    model = prepare(build_model([BlockSpec(1, 32, 1), BlockSpec(1, 32, 1), BlockSpec(2, 32, 1)],
                                8, seed=1, include_head=False))
    L = list(model.layers)
    assert [(l.kind, l.block) for l in L] == [
        (Kind.C2D, None), (Kind.DWC, 0), (Kind.PRO, 0), (Kind.ADD, 0),
        (Kind.DWC, 1), (Kind.PRO, 1), (Kind.ADD, 1),
        (Kind.EXP, 2), (Kind.DWC, 2), (Kind.PRO, 2), (Kind.ADD, 2)]
    assert L[3].residual_from is None and L[6].residual_from == 3
    second_entry = _on_edge(L[0], L[10], in_h=4, in_w=4, in_ch=32, orig_in_ch=32, stride=1,
                            filters=QFilterSet(3, 3, 32, 32, np.zeros((3, 3, 32, 32), np.uint8),
                                               np.zeros(32, np.int64), np.ones(32), np.zeros(32)))
    pool = _on_edge(L[10], L[10], kind=Kind.AVGPOOL, out_h=1, out_w=1, residual_from=None,
                    add_params=None)
    # without block 1's addition, block 2's shortcut reads the one before it
    *no_add, last = edit_layers(model, "drop", 6).layers
    cases = {  # name: (layers, first layer out of order)
        "second entry": ([*L, second_entry], 11),
        "duplicate slot": (edit_layers(model, "dup", 1).layers, 2),
        "no entry": (L[1:], 0),
        "non-contiguous blocks": (
            [dataclasses.replace(l, block=l.block + 1) if l.block else l for l in L], 4),
        "missing ADD": ([*no_add, dataclasses.replace(last, residual_from=3)], 6),
        "ends inside a block": (L[:10], 9),
        "DWC outside a block": ([*L, _on_edge(L[4], L[10], block=None)], 11),
        "ADD outside a block": ([*L, _on_edge(L[3], L[10], block=None)], 11),
        "pool in a block": ([*L, pool], 11),
        "block after the head": ([*L[:7], _on_edge(L[5], L[6], block=None), *L[7:]], 8),
        "out-of-order slots": (edit_layers(model, "swap", 4).layers, 4),
    }
    for name, (layers, bad) in cases.items():
        first = layers[0]
        broken = dataclasses.replace(model, layers=layers, resolution=first.in_h)
        order = rf"layer {bad} \({layers[bad].kind.value}, block {layers[bad].block}\) breaks"
        with pytest.raises(PlanError, match=order):
            validate_graph(broken)
        root = tmp_path / name.replace(" ", "-")
        save_package(broken, root)
        with pytest.raises(PlanError, match=order):
            load_package(root)
        with pytest.raises(PlanError, match=order):
            estimate_timeline(broken)
        for mode in ("sequential", "stream", "threads"):
            with pytest.raises(PlanError, match=order):
                run_inference(broken, _image_for(broken), mode=mode)


@pytest.mark.parametrize("mode", ["sequential", "stream", "threads", "timeline"])
def test_rounds_must_produce_the_final_layer(mode):
    # with the entry convolution moved last, no round would write the final
    # layer last; the order rule rejects the model at its first block
    # layer, which no entry convolution precedes
    model = toy_model(2)
    moved = _with_layers(model, model.layers[1:] + model.layers[:1])
    first = moved.layers[0]
    with pytest.raises(PlanError, match=rf"layer 0 \({first.kind.value}, block 0\) breaks"):
        if mode == "timeline":
            estimate_timeline(moved)
        else:
            run_inference(moved, _image_for(moved), mode=mode)


def test_residual_fifo_capacity(standard):
    # the largest shortcut frame: 56x56 pixels of two 16-channel batches
    # (24 channels padded to 32); block 0's 112x112 projection has no shortcut
    assert residual_fifo_capacity(standard) == 6272
    model = toy_model(1)
    assert len(model.residual_sources) == 2
    sources = [model.layers[i] for i in model.residual_sources]
    want = max(l.out_h * l.out_w * (l.out_ch // LANES) for l in sources)
    assert residual_fifo_capacity(model) == want
    plain = [dataclasses.replace(l, residual_from=None, add_params=None)
             if l.kind is Kind.ADD else l for l in model.layers]
    assert residual_fifo_capacity(_with_layers(model, plain)) == 0


def test_residual_fifo_capacity_is_the_least_that_runs(monkeypatch, standard):
    """At residual_fifo_capacity the stream and threads logits equal the
    sequential ones; one word less leaves a shortcut frame no room, and
    the stream run raises. Random topologies with shortcuts, mnv2 0.5/64
    and the 224x224 model."""
    import semistream.dataflow as dataflow

    models = [m for m in map(toy_model, range(20)) if m.residual_sources]
    models += [prepare(build_mobilenet_v2(0.5, 64, seed=5)), standard]
    assert len(models) == 13
    for model in models:
        side = model.resolution
        pixels = np.random.default_rng(side).integers(0, 256, (side, side, 3), dtype=np.uint8)
        image = image_to_qtensor(pixels, model)
        want = run_inference(model, image, mode="sequential").logits
        for mode in ("stream", "threads"):
            assert run_inference(model, image, mode=mode).logits == want
        words = residual_fifo_capacity(model)
        with monkeypatch.context() as m:
            m.setattr(dataflow, "residual_fifo_capacity", lambda _: words - 1)
            with pytest.raises(SemistreamError):
                run_inference(model, image, mode="stream")


def test_a_model_without_shortcuts_builds_no_residual_fifo(monkeypatch):
    import semistream.dataflow as dataflow

    built = []
    real = dataflow.BoundedQueue
    monkeypatch.setattr(dataflow, "BoundedQueue",
                        lambda words, label="": built.append(label) or real(words, label))
    for seed, shortcuts in ((1, True), (4, False)):
        model, image, pixels = toy_pair(seed)
        assert bool(model.residual_sources) == shortcuts
        built.clear()
        got = run_inference(model, image, mode="stream").logits
        assert built and ("residual-fifo" in built) == shortcuts
        assert np.array_equal(got.data, run_model_naive(model, pixels))


# ---------------------------------------------------------------------------
# deadlock detection
# ---------------------------------------------------------------------------

def shuttle(src, dst):
    item = yield from src.get_g()
    yield from dst.put_g(item)


def test_round_robin_detects_a_cycle():
    qa = BoundedQueue(1, "qa")
    qb = BoundedQueue(1, "qb")
    with pytest.raises(DeadlockError, match="no process can make progress"):
        _run_round_robin([shuttle(qa, qb), shuttle(qb, qa)])


def test_round_robin_detects_an_undrained_queue():
    q = BoundedQueue(1, "narrow")

    def stuff():
        yield from q.put_g("a")
        yield from q.put_g("b")

    with pytest.raises(DeadlockError, match="full on 'narrow'"):
        _run_round_robin([stuff()])


def fill(q, n=2):
    for v in range(n):
        yield from q.put_g(v)


def test_threaded_detects_a_cycle():
    qa = BoundedQueue(1, "qa")
    qb = BoundedQueue(1, "qb")
    err = outcome(lambda: _run_threaded([shuttle(qa, qb), shuttle(qb, qa)]))
    assert isinstance(err, DeadlockError)
    assert "empty on 'qa'" in str(err) and "empty on 'qb'" in str(err)


def test_threaded_detects_an_undrained_queue():
    q = BoundedQueue(1, "narrow")
    err = outcome(lambda: _run_threaded([fill(q)]))
    assert isinstance(err, DeadlockError)
    assert "full on 'narrow'" in str(err)


def test_threaded_detects_a_deadlock_left_by_a_finished_thread():
    def take_one(q):
        yield from q.get_g()

    # whichever comes last, the taker's exit or the producer's block on
    # its third item, must give the verdict
    for _ in range(20):
        q = BoundedQueue(1, "narrow")
        err = outcome(lambda: _run_threaded([fill(q, 3), take_one(q)]))
        assert isinstance(err, DeadlockError), err
        assert str(err).endswith("full on 'narrow'")


def test_threaded_relay_under_frequent_switches():
    """More threads than cores, switching often: no item lost, no false verdict."""
    n = 40

    def produce(q):
        for v in range(n):
            yield from q.put_g(v)

    def relay(src, dst):
        for _ in range(n):
            item = yield from src.get_g()
            yield from dst.put_g(item)

    def collect(q, out):
        for _ in range(n):
            out.append((yield from q.get_g()))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            qs = [BoundedQueue(1, f"q{i}") for i in range(6)]
            out: list = []
            procs = [produce(qs[0]), collect(qs[-1], out)]
            procs += [relay(a, b) for a, b in zip(qs, qs[1:])]
            assert outcome(lambda: _run_threaded(procs)) is None
            assert out == list(range(n))
    finally:
        sys.setswitchinterval(old)


def test_threaded_processes_step_one_at_a_time():
    """A process that sleeps mid-step (releasing the interpreter lock)
    still has the run to itself until it blocks or ends."""
    inside: set = set()

    def player(k, outbox, inbox):
        for _ in range(20):
            yield from outbox.put_g(k)
            # the put may wake the next player: it must not step yet
            inside.add(k)
            time.sleep(0.001)
            assert inside == {k}, f"player {k} shared its step with {inside - {k}}"
            inside.discard(k)
            yield from inbox.get_g()

    for n in (2, 3):
        qs = [BoundedQueue(1, f"q{k}") for k in range(n)]
        procs = [player(k, qs[k], qs[k - 1]) for k in range(n)]
        assert outcome(lambda: _run_threaded(procs)) is None
        assert all(q.words == 0 for q in qs)


def test_round_robin_deadlock_is_not_masked_by_another_thread():
    """Streams of other runs never count as this run's progress."""
    busy = BoundedQueue(1, "busy")
    turn, moved, stop = threading.Event(), threading.Event(), threading.Event()

    def mover():
        while not stop.is_set():
            if turn.wait(0.05):
                turn.clear()
                busy.try_put("x")
                busy.try_get()
                moved.set()

    def reader_beside_mover(q):
        # every resume lets the other thread move one item first, so
        # each sweep of this run overlaps a move on an unrelated queue
        reader = q.get_g()
        while True:
            turn.set()
            moved.wait(1.0)
            moved.clear()
            yield next(reader)

    qa = BoundedQueue(1, "qa")
    other = threading.Thread(target=mover)
    other.start()
    try:
        err = outcome(lambda: _run_round_robin([reader_beside_mover(qa)]), timeout=5.0)
    finally:
        stop.set()
        other.join()
    assert isinstance(err, DeadlockError)
    assert busy.progress > 0


def test_round_robin_finishes_a_real_chain():
    qa = BoundedQueue(1, "qa")
    qb = BoundedQueue(1, "qb")
    out = []

    def produce():
        for v in range(4):
            yield from qa.put_g(v)

    def collect():
        for _ in range(4):
            out.append((yield from qb.get_g()))

    _run_round_robin([produce(), shuttle(qa, qb), shuttle(qa, qb),
                      shuttle(qa, qb), shuttle(qa, qb), collect()])
    assert sorted(out) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# whole-model execution
# ---------------------------------------------------------------------------

def test_modes_agree():
    for seed in range(5):
        model, image, _ = toy_pair(seed)
        seq = run_inference(model, image, mode="sequential")
        stream = run_inference(model, image, mode="stream")
        threads = run_inference(model, image, mode="threads")
        np.testing.assert_array_equal(seq.logits.data, stream.logits.data)
        np.testing.assert_array_equal(seq.logits.data, threads.logits.data)
        assert seq.stats == stream.stats == threads.stats
        assert (seq.mode, stream.mode, threads.mode) == (
            "sequential", "stream", "threads")


def test_stream_matches_naive_reference():
    for seed in (0, 6, 11):
        model, image, _ = toy_pair(seed)
        got = run_inference(model, image, mode="stream")
        want = run_model_naive(model, image.data)
        np.testing.assert_array_equal(got.logits.data, want)


@st.composite
def block_graphs(draw):
    """Random bottleneck graphs: odd channel counts, resolutions off the 32 grid."""
    blocks, ch = [], 32
    for _ in range(draw(st.integers(1, 3))):
        stride = draw(st.sampled_from([1, 2]))
        out_ch = ch if draw(st.booleans()) else draw(st.integers(1, 40))
        blocks.append(BlockSpec(draw(st.integers(1, 3)), out_ch, stride))
        ch = out_ch
    resolution = draw(st.integers(2, 24).map(lambda n: 2 * n).filter(lambda r: r % 32))
    graph = build_model(
        blocks, resolution, seed=draw(st.integers(0, 2**31 - 1)),
        include_head=draw(st.booleans()),
        head_channels=draw(st.integers(1, 40)), classes=draw(st.integers(1, 20)),
    )
    return graph, draw(st.sampled_from(list(Rounding)))


@given(case=block_graphs(), pixel_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_graphs_survive_a_package_and_match_the_oracle(case, pixel_seed):
    graph, rounding = case
    model = prepare(graph, rounding)
    with tempfile.TemporaryDirectory() as root:
        save_package(model, root)
        loaded = load_package(root)
    assert loaded == model
    rng = np.random.default_rng(pixel_seed)
    pixels = rng.integers(0, 256, size=(graph.resolution, graph.resolution, 3), dtype=np.uint8)
    want = run_model_naive(loaded, pixels)
    image = image_to_qtensor(pixels, loaded)
    for mode in ("sequential", "stream", "threads"):
        got = run_inference(loaded, image, mode=mode)
        np.testing.assert_array_equal(got.logits.data, want)


def _reference_record(layer):
    """A layer's (rescale, taps, add_tables), built layer by layer and
    operand by operand: the record compile_records must produce."""
    bound, p = check_acc_bound(layer), layer.add_params
    mults, tables = layer.mults, None
    if p is not None:
        mults = pack_multipliers(p.mults.mult[2:], p.mults.shift[2:])
        codes = np.arange(256, dtype=np.int64)
        tables = {rounding: tuple(
            apply_rescale((codes - zero) << 20, rescale_constants(m.mult, m.shift), rounding)
            for zero, m in zip((layer.in_zero, p.in2_zero), p.mults[:2]))
            for rounding in Rounding}
        bound = sum(int(np.abs(t).max()) for t in tables[Rounding.NEAREST])
    f, taps, bias = layer.filters, None, None
    if f is not None:
        signed = f.weights.astype(np.int64) - f.zero_points
        sums = signed.sum(axis=(0, 1, 2))
        bias = f.biases - layer.in_zero * sums
        taps = (signed.reshape(27, 32).astype(np.float32) if layer.kind is Kind.C2D else
                signed[:, :, 0, :].astype(np.float32) if layer.kind is Kind.DWC else
                signed[0, 0].astype(np.int16))
    elif layer.kind is Kind.AVGPOOL:
        bias = -layer.in_h * layer.in_w * layer.in_zero
    rescale = None
    if mults is not None:
        rescale = rescale_constants(np.array(mults.mult), np.array(mults.shift), bound, bias)
    return rescale, taps, tables


def check_records_match_the_reference(model) -> list:
    """Every compiled record of the model equals the layer-by-layer
    reference, field by field, shapes and dtypes included; returns the
    rescales."""
    rescales = []
    for layer, rec in zip(model.layers, compile_records(model.layers)):
        want, taps, tables = _reference_record(layer)
        assert (rec.rescale is None) == (want is None)
        if want is not None:
            rescales.append(rec.rescale)
            assert rec.rescale.ties == want.ties
            for got_v, want_v in zip(rec.rescale[:5], want[:5]):
                assert (got_v is None) == (want_v is None)
                if want_v is not None:
                    assert np.shape(got_v) == np.shape(want_v)
                    np.testing.assert_array_equal(got_v, want_v)
                    assert not got_v.flags.writeable and got_v.flags.c_contiguous
        assert (rec.taps is None) == (taps is None)
        if taps is not None:
            assert rec.taps.dtype == taps.dtype and rec.taps.shape == taps.shape
            np.testing.assert_array_equal(rec.taps, taps)
        assert (rec.add_tables is None) == (tables is None)
        if tables is not None:
            assert set(rec.add_tables) == set(tables)
            for rounding, pair in tables.items():
                for got_t, want_t in zip(rec.add_tables[rounding], pair):
                    assert got_t.shape == (256,) and not got_t.flags.writeable
                    np.testing.assert_array_equal(got_t, want_t)
    return rescales


@pytest.mark.parametrize("rounding", list(Rounding))
def test_compiled_records_equal_a_layer_by_layer_reference(rounding):
    """One whole-model compile gives every record of mnv2 0.5/64 and of
    ten toy models what a layer-by-layer build gives, both shift forms
    and both tie verdicts included."""
    model = prepare(build_mobilenet_v2(0.5, 64, seed=1), rounding)
    rescales = check_records_match_the_reference(model)
    assert len(rescales) == 64
    assert sum(np.ndim(r.shifts) == 1 for r in rescales) == 7  # per-channel shifts
    assert sum(r.ties for r in rescales) == 10  # a tie is possible
    for seed in range(10):
        check_records_match_the_reference(toy_model(seed, rounding=rounding))


@given(case=block_graphs())
@settings(max_examples=20, deadline=None)
def test_random_graphs_compile_the_reference_records(case):
    """A prepared random graph passes validate_graph itself, and compiles
    the layer-by-layer reference records."""
    model = prepare(*case)
    validate_graph(model)
    check_records_match_the_reference(model)


@st.composite
def edited_graphs(draw):
    """A graph of 32-channel stride-1 blocks with one edit to its layer list
    (edit_layers): layers mostly chain after any edit, so order varies."""
    blocks = [BlockSpec(draw(st.integers(1, 2)), 32, 1) for _ in range(draw(st.integers(1, 3)))]
    graph = build_model(blocks, 8, seed=draw(st.integers(0, 2**31 - 1)),
                        include_head=draw(st.booleans()), head_channels=32, classes=32)
    edit = draw(st.sampled_from(["swap", "drop", "dup"]))
    at = draw(st.integers(0, len(graph.layers) - (2 if edit == "swap" else 1)))
    return edit_layers(graph, edit, at)


@given(graph=edited_graphs(), pixel_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_model_that_validates_runs_alike_in_every_mode(graph, pixel_seed):
    try:
        model = prepare(graph)
    except SemistreamError:
        return
    pixels = np.random.default_rng(pixel_seed).integers(0, 256, (8, 8, 3), dtype=np.uint8)
    want = run_model_naive(model, pixels)
    image = image_to_qtensor(pixels, model)
    for mode in ("sequential", "stream", "threads"):
        np.testing.assert_array_equal(run_inference(model, image, mode=mode).logits.data, want)


@pytest.mark.parametrize("width, resolution, rounding", [
    (0.5, 32, Rounding.NEAREST),
    (0.75, 64, Rounding.TRUNCATE),
    (0.5, 64, Rounding.TRUNCATE),
])
def test_small_mobilenets_match_the_oracle(width, resolution, rounding):
    model = prepare(build_mobilenet_v2(width, resolution, seed=3), rounding)
    pixels = np.random.default_rng(resolution).integers(
        0, 256, size=(resolution, resolution, 3), dtype=np.uint8)
    want = run_model_naive(model, pixels)
    image = image_to_qtensor(pixels, model)
    for mode in ("sequential", "stream", "threads"):
        got = run_inference(model, image, mode=mode)
        np.testing.assert_array_equal(got.logits.data, want)
    if (width, resolution) == (0.5, 64):  # both rescale forms ran under the oracle
        rescales = [layer_record(l).rescale for l in model.layers]
        assert {np.ndim(r.shifts) for r in rescales if r is not None} == {0, 1}


def test_truncate_rounding_propagates():
    model, image, _ = toy_pair(3)
    got = run_inference(model, image, mode="stream", rounding=Rounding.TRUNCATE)
    want = run_model_naive(model, image.data, rounding=Rounding.TRUNCATE)
    np.testing.assert_array_equal(got.logits.data, want)


def test_total_stats_aggregate():
    model, image, _ = toy_pair(7)
    res = run_inference(model, image, mode="sequential")
    assert set(res.stats) == set(range(len(model.layers)))
    total = res.total
    assert total.cycles == sum(s.cycles for s in res.stats.values())
    exp_sets = [s.acc_working_set for s in res.stats.values()]
    assert total.acc_working_set == max(exp_sets)


def test_stage_two_moves_one_run_per_queue_full(monkeypatch):
    """Each round queue holds two batches, so projection, addition and
    expansion trade ceil(fpass / 2) runs per round, never overfilling."""
    import semistream.dataflow as dataflow

    queues = []

    class Recording(BoundedQueue):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.puts = 0
            queues.append(self)

        def try_put(self, item, words=1):
            ok = super().try_put(item, words)
            self.puts += ok
            return ok

    monkeypatch.setattr(dataflow, "BoundedQueue", Recording)
    model = prepare(build_mobilenet_v2(0.5, 32))
    image = image_to_qtensor(np.random.default_rng(3).integers(0, 256, (32, 32, 3)), model)
    run_inference(model, image, mode="stream")
    fpass = {r: model.layers[streamed[0]].fpass
             for r, (_, streamed) in enumerate(model.rounds) if streamed}
    stage_two = [q for q in queues if q.label.endswith(("-pro-add", "-add-exp"))]
    assert len(stage_two) >= len(fpass) and max(fpass.values()) > 2
    for q in stage_two:
        r = int(q.label[len("round"):].split("-")[0])
        assert q.puts == (fpass[r] + 1) // 2, q.label
        assert q.peak_words <= q.capacity, q.label


def test_one_batch_stage_two_queues_run_every_model(monkeypatch):
    """Two batches per stage-two queue are a choice of message count, not
    a deadlock bound: with every PRO->ADD and ADD->EXP queue one batch
    (npix words) deep, stream logits still equal the sequential ones."""
    import semistream.dataflow as dataflow

    real = dataflow.BoundedQueue
    shrunk = []

    def one_batch(words, label=""):
        if label.endswith(("-pro-add", "-add-exp")):
            q = real(words // 2, label)
            shrunk.append(q)
            return q
        return real(words, label)

    monkeypatch.setattr(dataflow, "BoundedQueue", one_batch)
    models = [toy_model(seed, include_head=bool(seed % 2)) for seed in range(8)]
    models.append(prepare(build_mobilenet_v2(0.5, 64, seed=5)))
    for model in models:
        side = model.resolution
        pixels = np.random.default_rng(side).integers(0, 256, (side, side, 3), dtype=np.uint8)
        image = image_to_qtensor(pixels, model)
        want = run_inference(model, image, mode="sequential").logits
        shrunk.clear()
        assert run_inference(model, image, mode="stream").logits == want
        assert shrunk
        for q in shrunk:  # every run carried exactly one batch
            assert q.peak_words == q.capacity, q.label


def test_addition_slot_rejects_a_misaligned_residual_run():
    model, _, _ = toy_pair(1)
    layer = next(l for l in model.layers if l.residual_from is not None)
    npix = layer.out_h * layer.out_w
    run = np.zeros((npix, LANES), np.uint8)
    for residual in [(1, run), (0, np.zeros((npix, 2 * LANES), np.uint8))]:
        in_q, res_q = BoundedQueue(2 * npix, "in"), BoundedQueue(2 * npix, "res")
        in_q.try_put((0, run), npix)
        res_q.try_put(residual, npix)
        with pytest.raises(SequencingError, match="does not line up"):
            drain(_add_process(layer, in_q, res_q, [], None, Rounding.NEAREST))


@pytest.mark.parametrize("shortcut", [True, False])
@pytest.mark.parametrize("run_batches", [1, 2])
def test_addition_slot_writes_its_frame_once(shortcut, run_batches):
    """A slot with an out_buf writes the concatenated runs as one frame,
    once, after its last run, and still forwards every run to its sinks."""
    model = prepare(build_model([BlockSpec(2, 48, 1)] * 2, 8, seed=5, include_head=False))
    layer = next(l for l in model.layers
                 if l.kind is Kind.ADD and (l.residual_from is not None) == shortcut)
    npix, step = layer.out_h * layer.out_w, run_batches * LANES
    rng = np.random.default_rng(run_batches)
    x, res = (rng.integers(0, 256, (npix, layer.out_ch), dtype=np.uint8) for _ in range(2))
    runs = [(lo // LANES, x[:, lo : lo + step]) for lo in range(0, layer.out_ch, step)]
    assert len(runs) > 1 and layer.out_ch == 48
    cap = npix * layer.out_ch // LANES
    in_q, res_q, sink = (BoundedQueue(cap, label) for label in ("in", "res", "sink"))
    for first, run in runs:
        in_q.try_put((first, run), run.size // LANES)
        if shortcut:
            res_q.try_put((first, res[:, first * LANES : first * LANES + run.shape[1]]),
                          run.size // LANES)
    out = FrameBuffer(npix, layer.out_ch, "add-out")
    writes = []
    set_tensor = out.set_tensor
    out.set_tensor = lambda data: (writes.append(in_q.words), set_tensor(data))
    drain(_add_process(layer, in_q, res_q if shortcut else None, [sink], out, Rounding.NEAREST))
    assert writes == [0]  # once, after the last run was taken
    want = add_elements(x, res, layer, Rounding.NEAREST) if shortcut else x
    np.testing.assert_array_equal(out.assemble(), want)
    forwarded = []
    while sink.words:
        forwarded.append(sink.try_get()[1][1])
    np.testing.assert_array_equal(np.hstack(forwarded), want)


def test_exp_probe_sees_every_partial():
    model, image, _ = toy_pair(1)
    exp_layers = [i for i, l in enumerate(model.layers) if l.kind is Kind.EXP]
    assert exp_layers, "toy seed 1 should expand at least one block"

    def capture(into):
        def probe(idx, ab, acc):
            into.setdefault(idx, []).append((ab, acc[:, 0, :].copy()))
        return probe

    seq: dict = {}
    stream: dict = {}
    threads: dict = {}
    run_inference(model, image, mode="sequential", exp_probe=capture(seq))
    run_inference(model, image, mode="stream", exp_probe=capture(stream))
    run_inference(model, image, mode="threads", exp_probe=capture(threads))
    assert sorted(seq) == exp_layers
    assert sorted(stream) == exp_layers
    assert sorted(threads) == exp_layers
    for idx in exp_layers:
        layer = model.layers[idx]
        assert [ab for ab, _ in seq[idx]] == list(range(layer.apass))
        assert [ab for ab, _ in stream[idx]] == list(range(layer.apass))
        assert [ab for ab, _ in threads[idx]] == list(range(layer.apass))
        for (_, a), (_, b) in zip(seq[idx], stream[idx]):
            np.testing.assert_array_equal(a, b)
        for (_, a), (_, b) in zip(seq[idx], threads[idx]):
            np.testing.assert_array_equal(a, b)


def test_threads_mode_propagates_a_worker_error():
    model, image, _ = toy_pair(1)
    before = threading.active_count()

    class ProbeFailure(Exception):
        pass

    def probe(idx, ab, acc):
        raise ProbeFailure(idx)

    err = outcome(lambda: run_inference(model, image, mode="threads", exp_probe=probe))
    assert isinstance(err, ProbeFailure)
    assert threading.active_count() == before


def test_threads_mode_joins_its_threads_when_a_start_fails(monkeypatch):
    model, image, _ = toy_pair(1)
    before = threading.active_count()
    real_start = threading.Thread.start
    driver_starts = []

    def flaky_start(self):
        if threading.current_thread() is not threading.main_thread():
            driver_starts.append(self)  # started by the driver, not by outcome()
            if len(driver_starts) == 3:
                raise RuntimeError("can't start new thread")
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", flaky_start)
    err = outcome(lambda: run_inference(model, image, mode="threads"))
    monkeypatch.undo()
    assert isinstance(err, RuntimeError) and "can't start" in str(err)
    assert threading.active_count() == before


def test_threads_mode_starts_one_thread_per_engine(monkeypatch):
    model = prepare(build_mobilenet_v2(0.5, 64, seed=0))
    pixels = np.random.default_rng(0).integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
    image = image_to_qtensor(pixels, model)
    want = run_inference(model, image, mode="sequential")
    started = []
    real_start = threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    got = run_inference(model, image, mode="threads")
    assert len(started) <= 5, started
    np.testing.assert_array_equal(got.logits.data, want.logits.data)
    assert got.stats == want.stats


def test_inference_input_checks():
    model, image, _ = toy_pair(2)
    wrong = QTensor(image.height + 4, image.width, 3,
                    np.zeros((image.height + 4, image.width, 3), dtype=np.uint8),
                    image.zero_point, image.scale)
    with pytest.raises(ShapeError) as err:
        run_inference(model, wrong)
    assert str((image.height, image.width, 3)) in str(err.value)
    skewed = QTensor(image.height, image.width, 3, image.data,
                     image.zero_point, image.scale * 2)
    with pytest.raises(DomainError, match="entry edge"):
        run_inference(model, skewed)
    with pytest.raises(DomainError, match="unknown inference mode"):
        run_inference(model, image, mode="warp")

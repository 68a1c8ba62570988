"""Streaming plumbing: queues, frames, the round schedule, the drivers."""
from __future__ import annotations

import dataclasses
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistream.dataflow import (
    BoundedQueue,
    FrameBuffer,
    SingleConsumptionStream,
    _run_round_robin,
    _run_threaded,
    residual_fifo_capacity,
    run_inference,
    schedule_rounds,
)
from semistream.errors import (
    DeadlockError,
    DomainError,
    PlanError,
    SequencingError,
    ShapeError,
)
from semistream.modelkit import (
    LANES,
    BlockSpec,
    Kind,
    PreparedModel,
    QTensor,
    build_mobilenet_v2,
    build_model,
    image_to_qtensor,
    load_package,
    prepare,
    save_package,
)
from semistream.oracle import run_model_naive
from semistream.perfmodel import estimate_timeline
from semistream.quantcore import Rounding

from conftest import toy_model, toy_pair


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
    buf = FrameBuffer(npix=6, nbatches=2, label="f")
    data = np.arange(6 * 32, dtype=np.uint8).reshape(6, 32)
    buf.feed(1, data[:, 16:])
    assert not buf.complete
    with pytest.raises(SequencingError, match="before completion"):
        buf.assemble()
    buf.feed(0, data[:, :16])
    np.testing.assert_array_equal(buf.assemble(), data)


def test_frame_buffer_feed_contract():
    buf = FrameBuffer(npix=4, nbatches=2, label="g")
    batch = np.zeros((4, LANES), dtype=np.uint8)
    buf.feed(0, batch)
    with pytest.raises(SequencingError, match="fed twice"):
        buf.feed(0, batch)
    with pytest.raises(SequencingError, match="no batch"):
        buf.feed(2, batch)
    with pytest.raises(DomainError, match="shape"):
        buf.feed(1, np.zeros((3, LANES), dtype=np.uint8))
    # a whole frame of the right size but the wrong pixel count
    with pytest.raises(DomainError, match="shape"):
        FrameBuffer(npix=4, nbatches=2).set_tensor(np.zeros((2, 4 * LANES), dtype=np.uint8))


def test_frame_buffer_is_one_array_filled_in_place():
    buf = FrameBuffer(npix=3, nbatches=3, label="h")
    data = np.arange(3 * 48, dtype=np.uint8).reshape(3, 48)
    buf.feed(1, data[:, 16:32])
    # a whole-frame write may not overwrite a batch that is already in
    with pytest.raises(SequencingError, match="fed twice"):
        buf.set_tensor(data)
    assert buf.progress == 1 and not buf.complete
    buf.feed(0, data[:, :16])
    buf.feed(2, data[:, 32:])
    frame = buf.assemble()
    np.testing.assert_array_equal(frame, data)
    assert np.shares_memory(frame, buf.assemble())


def test_frame_buffer_counts_early_reads():
    buf = FrameBuffer(npix=2, nbatches=1)
    waiter = buf.wait_complete_g()
    next(waiter)
    next(waiter)
    assert buf.reads_before_complete == 2
    buf.set_tensor(np.zeros((2, 16), dtype=np.uint8))
    with pytest.raises(StopIteration):
        next(waiter)


def test_single_consumption_stream():
    q = BoundedQueue(16)
    q.try_put((0, "payload"))
    stream = SingleConsumptionStream(q)
    got = None
    try:
        next(stream.get_g())
    except StopIteration as stop:
        got = stop.value
    assert got == (0, "payload")
    q.try_put((0, "again"))
    with pytest.raises(SequencingError, match="consumed twice"):
        drain(stream.get_g())


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


def _with_layers(model, layers):
    return PreparedModel(
        layers=layers,
        resolution=model.resolution,
        width_multiplier=model.width_multiplier,
        seed=model.seed,
        rounding=model.rounding,
    )


def test_schedule_rejects_malformed_graphs():
    model = toy_model(1)
    dup_block = next(l for l in model.layers if l.kind is Kind.DWC)
    with pytest.raises(PlanError, match="two DWC"):
        schedule_rounds(_with_layers(model, model.layers + [dup_block]))
    with pytest.raises(PlanError, match="more than one entry convolution"):
        schedule_rounds(_with_layers(model, model.layers + [model.layers[0]]))
    with pytest.raises(PlanError, match="no entry convolution"):
        schedule_rounds(_with_layers(model, model.layers[1:]))
    shifted = [
        dataclasses.replace(l, block=l.block + 3) if l.block is not None else l
        for l in model.layers
    ]
    with pytest.raises(PlanError, match="contiguous"):
        schedule_rounds(_with_layers(model, shifted))
    last_add = max(i for i, l in enumerate(model.layers) if l.kind is Kind.ADD)
    with pytest.raises(PlanError, match="missing an engine slot"):
        schedule_rounds(_with_layers(
            model, [l for i, l in enumerate(model.layers) if i != last_add]))
    stray = dataclasses.replace(dup_block, block=None)
    with pytest.raises(PlanError, match="trailing"):
        schedule_rounds(_with_layers(model, model.layers + [stray]))
    # a pooling layer tagged with a block has no slot there
    headed = toy_model(0, include_head=True)
    pool = next(i for i, l in enumerate(headed.layers) if l.kind is Kind.AVGPOOL)
    layers = list(headed.layers)
    layers[pool] = dataclasses.replace(layers[pool], block=0)
    with pytest.raises(PlanError, match=rf"layers \[{pool}\] run in no round"):
        schedule_rounds(_with_layers(headed, layers))


@pytest.mark.parametrize("mode", ["stream", "threads", "timeline"])
def test_rounds_must_produce_the_final_layer(mode):
    # the entry convolution runs in round 0, so later rounds overwrite
    # its frame before a run could read it as the logits
    model = toy_model(2)
    moved = _with_layers(model, model.layers[1:] + model.layers[:1])
    first = moved.layers[0]
    pixels = np.zeros((first.in_h, first.in_w, first.in_ch), dtype=np.uint8)
    image = QTensor(first.in_h, first.in_w, first.in_ch, pixels,
                    first.in_zero, first.in_scale)
    with pytest.raises(PlanError, match="no round produced the final layer's output"):
        if mode == "timeline":
            estimate_timeline(moved)
        else:
            run_inference(moved, image, mode=mode)


def test_residual_fifo_capacity(standard):
    # block 0 projects 112x112 pixels into one 16-channel batch
    assert residual_fifo_capacity(standard) == 12544
    model = toy_model(4)
    want = max(
        l.out_h * l.out_w * (l.out_ch // LANES)
        for l in model.layers if l.kind is Kind.PRO
    )
    assert residual_fifo_capacity(model) == want
    gutted = [l for l in model.layers if l.kind is not Kind.PRO]
    with pytest.raises(PlanError, match="projection"):
        residual_fifo_capacity(_with_layers(model, gutted))


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

"""Dataflow runner: streams, processes and inference drivers.

The network executes as a loop of rounds, following the model's round
plan (PreparedModel.rounds, built once per model in modelkit). Round k
runs the depthwise layer of block k, the projection of block k, the
addition slot of block k, and the expansion of block k+1, whose output
lands in the frame buffer the next round's depthwise layer will read.
Round 0 additionally runs the entry convolution (and block 0's
expansion, if it has one); after the last block, the head layers run as
single-engine trailing rounds (head expansion, pooling, classifier).
One frame is in flight.

Each round has two stages, the plan's two tuples of layers. Stage one
runs its whole-frame layers one after another: each reads the newest
frame buffer and writes a fresh one. Stage two streams projection to
addition to expansion through bounded word-counted queues; a bounded
residual FIFO carries each shortcut frame from its addition slot to the
next round's. A frame buffer is one preallocated array filled in place:
the addition slot fills it batch by batch, every other producer writes
its whole frame at once, and readers get the array itself. One wiring
loop walks the plan and builds every round's processes this way up
front. Processes are plain generators that take only their streams and
yield Blocked tokens when a stream cannot move; per-layer work
accounting comes from the layers themselves after the run. They are
chained per engine (C2D, EXP, DWC, PRO, ADD) in round order, so data
streams from round to round with no barrier between rounds. Stream mode
resumes the five chains under a deterministic round-robin scheduler
(the reference); threads mode runs them at once, one OS thread per
engine for the whole frame.

Both drivers share one deadlock contract. Each stream counts its
successful operations under its own lock (its progress counter), and a
Blocked token carries the count seen before the attempt that failed;
when every unfinished process is blocked on a stream that has not moved
since, none can move again and the driver raises DeadlockError. The
counters belong to the streams a run builds, so other runs cannot mask
a deadlock.
"""
from __future__ import annotations

import itertools
import threading
from collections import deque, namedtuple
from dataclasses import dataclass

import numpy as np

from .engines import (
    EngineStats,
    ExpStreamKernel,
    add_elements,
    c2d_forward,
    nominal_stats,
    pro_forward,
    run_layer,
)
from .errors import DeadlockError, DomainError, SequencingError, ShapeError
from .modelkit import (  # RoundPlan and schedule_rounds are re-exported from here
    ENGINE_FOR_KIND,
    LANES,
    Kind,
    LayerDesc,
    PreparedModel,
    QTensor,
    RoundPlan,
    residual_fifo_capacity,
    schedule_rounds,
)
from .quantcore import Rounding

#: A process yields one of these when a stream cannot move this instant.
#: kind is "empty" (get from empty queue), "full" (put into full queue)
#: or "frame" (waiting on an incomplete frame buffer); seen is the
#: resource's progress counter read before the attempt that failed.
Blocked = namedtuple("Blocked", ["kind", "resource", "seen"])


class BoundedQueue:
    """FIFO with capacity counted in 16-lane words.

    Items carry a word weight (a whole-frame channel batch of npix
    pixels weighs npix words), so capacity semantics match a hardware
    FIFO holding individual words regardless of message granularity.
    """

    def __init__(self, capacity_words: int, label: str = ""):
        if capacity_words < 1:
            raise DomainError("queue capacity must be at least one word")
        self.capacity = capacity_words
        self.label = label
        self._items: deque = deque()
        self._words = 0
        self.peak_words = 0
        self.progress = 0  # successful puts and gets
        self._cond = threading.Condition()

    @property
    def words(self) -> int:
        return self._words

    def try_put(self, item, words: int = 1) -> bool:
        if words > self.capacity:
            raise DomainError(
                f"item of {words} words can never fit queue '{self.label}' "
                f"of capacity {self.capacity}"
            )
        with self._cond:
            if self._words + words > self.capacity:
                return False
            self._items.append((words, item))
            self._words += words
            self.peak_words = max(self.peak_words, self._words)
            self.progress += 1
            self._cond.notify_all()
            return True

    def try_get(self):
        with self._cond:
            if not self._items:
                return False, None
            words, item = self._items.popleft()
            self._words -= words
            self.progress += 1
            self._cond.notify_all()
            return True, item

    def put_g(self, item, words: int = 1):
        """Generator put: yields Blocked until the item fits."""
        while True:
            seen = self.progress
            if self.try_put(item, words):
                return
            yield Blocked("full", self, seen)

    def get_g(self):
        """Generator get: yields Blocked until an item arrives."""
        while True:
            seen = self.progress
            ok, item = self.try_get()
            if ok:
                return item
            yield Blocked("empty", self, seen)


class FrameBuffer:
    """One full activation frame: a preallocated (npix, channels) uint8
    array filled in place.

    Producers fill each 16-channel batch exactly once, one batch at a
    time with feed or the whole frame with set_tensor; consumers wait
    until every batch is present and then read the array itself.
    Attempted reads before completion are counted (and blocked), which
    is what makes the depthwise reorder boundary observable in tests.
    """

    def __init__(self, npix: int, nbatches: int, label: str = ""):
        self.npix = npix
        self.nbatches = nbatches
        self.label = label
        self._data = np.empty((npix, nbatches * LANES), dtype=np.uint8)
        self._fed = [False] * nbatches
        self.progress = 0  # batches fed
        self.reads_before_complete = 0
        self._cond = threading.Condition()

    def feed(self, index: int, batch: np.ndarray) -> None:
        if not (0 <= index < self.nbatches):
            raise SequencingError(
                f"frame '{self.label}' has no batch {index} (holds {self.nbatches})"
            )
        self._store(index, index + 1, batch)

    def set_tensor(self, data: np.ndarray) -> None:
        """Fill the whole frame from one (..., channels) array."""
        arr = np.asarray(data)
        self._store(0, self.nbatches, arr.reshape(-1, arr.shape[-1]))

    def _store(self, first: int, stop: int, data: np.ndarray) -> None:
        """Copy batches first..stop-1 in place under one lock and one wakeup."""
        data = np.asarray(data)
        want = (self.npix, (stop - first) * LANES)
        if data.shape != want:
            raise DomainError(f"frame '{self.label}' data shape {data.shape} != {want}")
        with self._cond:
            if any(self._fed[first:stop]):
                index = self._fed.index(True, first, stop)
                raise SequencingError(f"frame '{self.label}' batch {index} was fed twice")
            self._data[:, first * LANES : stop * LANES] = data
            self._fed[first:stop] = [True] * (stop - first)
            self.progress += stop - first
            self._cond.notify_all()

    def put_g(self, item, words: int = 0):
        """Queue-compatible sink: feeding a frame never blocks."""
        index, batch = item
        self.feed(index, batch)
        return
        yield  # makes this a generator like BoundedQueue.put_g

    @property
    def complete(self) -> bool:
        with self._cond:
            return self.progress == self.nbatches

    def wait_complete_g(self):
        while True:
            seen = self.progress
            if self.complete:
                return
            self.reads_before_complete += 1
            yield Blocked("frame", self, seen)

    def assemble(self) -> np.ndarray:
        """The finished frame itself, not a copy."""
        if not self.complete:
            raise SequencingError(f"frame '{self.label}' read before completion")
        return self._data


class SingleConsumptionStream:
    """Adapter enforcing that each batch index is taken exactly once.

    The expansion engine folds every input batch into its accumulators
    the moment it arrives and can never ask for it again; this adapter
    turns a violation of that contract into a SequencingError instead
    of silent recomputation.
    """

    def __init__(self, queue: BoundedQueue):
        self._queue = queue
        self._seen: set[int] = set()

    def get_g(self):
        item = yield from self._queue.get_g()
        index = item[0]
        if index in self._seen:
            raise SequencingError(f"input batch {index} consumed twice")
        self._seen.add(index)
        return item


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _tensor_from_frame(buf: FrameBuffer, layer: LayerDesc, which: str) -> QTensor:
    data = buf.assemble()
    if which == "in":
        h, w, c, zp, sc = layer.in_h, layer.in_w, layer.in_ch, layer.in_zero, layer.in_scale
    else:
        h, w, c, zp, sc = layer.out_h, layer.out_w, layer.out_ch, layer.out_zero, layer.out_scale
    return QTensor(h, w, c, data.reshape(h, w, c), zp, sc)


def _c2d_process(image: QTensor, layer: LayerDesc, out_buf: FrameBuffer, rounding: Rounding):
    out_buf.set_tensor(c2d_forward(image, layer, rounding)[0].data)
    return
    yield  # a process is a generator, even one that never blocks


def _frame_process(layer: LayerDesc, in_buf: FrameBuffer, out_buf: FrameBuffer,
                   rounding: Rounding, probe=None):
    """Whole frame in, whole frame out: every stage-one layer but the entry."""
    yield from in_buf.wait_complete_g()
    x = _tensor_from_frame(in_buf, layer, "in")
    out_buf.set_tensor(run_layer(x, layer, rounding=rounding, probe=probe)[0].data)


def _pro_process(layer: LayerDesc, in_buf: FrameBuffer, out_q: BoundedQueue, rounding: Rounding):
    yield from in_buf.wait_complete_g()
    out, _ = pro_forward(_tensor_from_frame(in_buf, layer, "in"), layer, rounding)
    flat = out.data.reshape(-1, out.channels)
    for fb in range(layer.fpass):
        yield from out_q.put_g((fb, flat[:, fb * LANES : (fb + 1) * LANES]), words=flat.shape[0])


def _add_process(layer: LayerDesc, in_q: BoundedQueue, res_q, sinks: list, rounding: Rounding):
    npix = layer.out_h * layer.out_w
    for b in range(layer.out_ch // LANES):
        bi, batch = yield from in_q.get_g()
        if bi != b:
            raise SequencingError(f"addition slot got batch {bi}, expected {b}")
        if layer.residual_from is not None:
            ri, rbatch = yield from res_q.get_g()
            if ri != b:
                raise SequencingError(f"residual batch {ri} arrived out of order")
            batch = add_elements(batch, rbatch, layer.add_params, rounding)
        for sink in sinks:
            yield from sink.put_g((b, batch), words=npix)


def _exp_process(layer: LayerDesc, stream: SingleConsumptionStream, out_buf: FrameBuffer,
                 rounding: Rounding, probe=None):
    """Streamed expansion: fold each batch from the addition slot into
    the accumulators as it arrives."""
    first = yield from stream.get_g()
    # the EXP chain reaches this process before its input exists;
    # allocate the accumulator bank only once input arrives
    kernel = ExpStreamKernel(layer, layer.in_h * layer.in_w, rounding, probe=probe)
    kernel.consume(*first)
    for _ in range(1, layer.apass):
        kernel.consume(*(yield from stream.get_g()))
    out_buf.set_tensor(kernel.outputs())


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _stuck(blocked) -> bool:
    """True when no blocked stream has moved since its process saw it."""
    return all(t.resource.progress == t.seen for t in blocked)


def _deadlock(blocked) -> DeadlockError:
    detail = ", ".join(
        f"{t.kind} on '{getattr(t.resource, 'label', '?')}'" for t in blocked
    )
    return DeadlockError(f"no process can make progress: {detail}")


def _run_round_robin(procs: list) -> None:
    """Deterministic reference scheduler with deadlock detection.

    A sweep resumes each unfinished process once, except a process
    blocked on a stream whose progress counter has not moved since the
    process saw it: it could only block again. A sweep that resumes no
    process means none can ever move again.
    """
    waits = dict.fromkeys(procs)  # process -> the Blocked token it last yielded
    while waits:
        resumed = False
        for g, token in list(waits.items()):
            if token is not None and token.resource.progress == token.seen:
                continue
            resumed = True
            try:
                token = next(g)
            except StopIteration:
                del waits[g]
                continue
            waits[g] = token if isinstance(token, Blocked) else None
        if not resumed:
            raise _deadlock(waits.values())


def _run_threaded(procs: list) -> None:
    """One thread per process, under the round-robin deadlock contract.

    A thread whose process yields Blocked waits on that stream's
    condition until the stream's progress counter moves past the value
    the process saw; the check and the wait happen under the stream's
    lock, so no wakeup is lost. When every live thread waits on a stream
    that has not moved, the thread that completes that picture raises
    DeadlockError for the run. The first error wakes every waiting
    thread, and every thread is joined before this returns or raises.
    """
    lock = threading.Lock()  # guards waiting, live and errors
    waiting: dict[int, Blocked] = {}
    errors: list[BaseException] = []
    live = len(procs)

    def fail(err: BaseException) -> None:  # caller holds lock
        errors.append(err)
        for t in waiting.values():
            with t.resource._cond:
                t.resource._cond.notify_all()

    def judge() -> None:  # caller holds lock
        if not errors and waiting and len(waiting) == live and _stuck(waiting.values()):
            fail(_deadlock(waiting.values()))

    def drive(i: int, g) -> None:
        nonlocal live
        try:
            for token in g:
                if not isinstance(token, Blocked):
                    continue
                with lock:
                    waiting[i] = token
                    judge()
                cond = token.resource._cond
                with cond:
                    while not errors and token.resource.progress == token.seen:
                        cond.wait()
                with lock:
                    del waiting[i]
                if errors:
                    return
        except BaseException as e:  # surface through the caller
            with lock:
                fail(e)
        finally:
            with lock:
                live -= 1
                judge()

    threads = [threading.Thread(target=drive, args=(i, g), daemon=True,
                                name=f"semistream-{i}")
               for i, g in enumerate(procs)]
    started = []
    try:
        for t in threads:
            t.start()
            started.append(t)
    except BaseException as e:  # wake the started threads, then re-raise
        with lock:
            live -= len(threads) - len(started)
            fail(e)
        raise
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]


@dataclass
class InferenceResult:
    """Logits plus per-layer work accounting."""

    logits: QTensor
    stats: dict[int, EngineStats]
    mode: str

    @property
    def total(self) -> EngineStats:
        out = EngineStats(0, 0, 0, 0)
        for st in self.stats.values():
            out = out + st
        return out


def _check_image(model: PreparedModel, image: QTensor) -> None:
    first = model.layers[0]
    if (image.height, image.width, image.channels) != (first.in_h, first.in_w, first.in_ch):
        raise ShapeError(
            f"image {(image.height, image.width, image.channels)} does not match "
            f"the model input {(first.in_h, first.in_w, first.in_ch)}"
        )
    if image.scale != first.in_scale or image.zero_point != first.in_zero:
        raise DomainError("image quantization does not match the model's entry edge")


def run_inference(
    model: PreparedModel,
    image: QTensor,
    mode: str = "stream",
    rounding: Rounding | None = None,
    exp_probe=None,
) -> InferenceResult:
    """Run one frame through the model.

    mode selects the driver: "sequential" runs layers one after another
    on their engines; "stream" and "threads" run the round dataflow with
    each engine's processes chained in round order, "stream" under the
    deterministic round-robin scheduler and "threads" with one OS thread
    per engine for the whole frame. Both dataflow modes raise
    DeadlockError rather than hang. All three produce identical
    logits; they differ only in how engine execution is interleaved.
    """
    if mode not in ("sequential", "stream", "threads"):
        raise DomainError(f"unknown inference mode {mode!r}")
    rounding = model.rounding if rounding is None else rounding
    _check_image(model, image)
    if mode == "sequential":
        return _run_sequential(model, image, rounding, exp_probe)
    return _run_rounds(model, image, rounding, exp_probe, threaded=(mode == "threads"))


def _layer_probe(exp_probe, idx: int):
    """exp_probe bound to layer idx, or None without a probe."""
    if exp_probe is None:
        return None
    return lambda ab, acc: exp_probe(idx, ab, acc)


def _run_sequential(model, image, rounding, exp_probe) -> InferenceResult:
    stats: dict[int, EngineStats] = {}
    kept: dict[int, QTensor] = {}
    sources = model.residual_sources
    x = image
    for idx, layer in enumerate(model.layers):
        residual = kept.pop(layer.residual_from, None) if layer.kind is Kind.ADD else None
        x, stats[idx] = run_layer(x, layer, residual=residual, rounding=rounding,
                                  probe=_layer_probe(exp_probe, idx))
        if idx in sources:
            kept[idx] = x
    return InferenceResult(logits=x, stats=stats, mode="sequential")


def _run_rounds(model, image, rounding, exp_probe, threaded: bool) -> InferenceResult:
    """Wire every round's processes, chain them per engine, run the chains.

    Stream mode resumes the five chains under the round-robin scheduler;
    threads mode runs them at once, one thread each.
    """
    layers = model.layers
    res_fifo = BoundedQueue(residual_fifo_capacity(model), "residual-fifo")
    sources = model.residual_sources
    chains: dict[str, list] = {}  # engine -> its processes in round order

    def chain(idx: int, proc) -> None:
        chains.setdefault(ENGINE_FOR_KIND[layers[idx].kind], []).append(proc)

    def out_frame(r: int, idx: int) -> FrameBuffer:
        l = layers[idx]
        label = f"round{r}-{ENGINE_FOR_KIND[l.kind].lower()}-out"
        return FrameBuffer(l.out_h * l.out_w, l.out_ch // LANES, label)

    buf: FrameBuffer | None = None  # the newest frame buffer
    for r, (whole, streamed) in enumerate(model.rounds):
        for idx in whole:
            out = out_frame(r, idx)
            if layers[idx].kind is Kind.C2D:
                chain(idx, _c2d_process(image, layers[idx], out, rounding))
            else:
                chain(idx, _frame_process(layers[idx], buf, out, rounding,
                                          _layer_probe(exp_probe, idx)))
            buf = out
        if not streamed:
            continue

        pro, add = streamed[:2]
        exp = streamed[2] if len(streamed) == 3 else None
        pro_l, add_l = layers[pro], layers[add]
        words = 2 * pro_l.out_h * pro_l.out_w
        q_pro_add = BoundedQueue(words, f"round{r}-pro-add")
        chain(pro, _pro_process(pro_l, buf, q_pro_add, rounding))
        # the round's last layer writes the frame the next round reads
        buf = out_frame(r, streamed[-1])
        if exp is None:
            add_sinks: list = [buf]
        else:
            q_add_exp = BoundedQueue(words, f"round{r}-add-exp")
            chain(exp, _exp_process(layers[exp], SingleConsumptionStream(q_add_exp), buf,
                                    rounding, _layer_probe(exp_probe, exp)))
            add_sinks = [q_add_exp]
        if add in sources:
            add_sinks.append(res_fifo)
        res_in = res_fifo if add_l.residual_from is not None else None
        chain(add, _add_process(add_l, q_pro_add, res_in, add_sinks, rounding))

    # each engine's processes run one after another as one process
    procs = [itertools.chain(*c) for c in chains.values()]
    _run_threaded(procs) if threaded else _run_round_robin(procs)
    return InferenceResult(logits=_tensor_from_frame(buf, layers[-1], "out"),
                           stats={i: nominal_stats(l) for i, l in enumerate(layers)},
                           mode="threads" if threaded else "stream")

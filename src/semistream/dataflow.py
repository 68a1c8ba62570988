"""Dataflow runner: streams, processes and inference drivers.

The network executes as a loop of rounds, following the model's round
plan (PreparedModel.rounds, read once per model off the layer order
validate_graph checked). Round k runs the depthwise layer of block k,
the projection of block k, the addition slot of block k, and the
expansion of block k+1, whose output lands in the frame buffer the next
round's depthwise layer will read. Round 0 additionally runs the entry
convolution (and block 0's expansion, if it has one); the layers after
the last block (every layer, in a model without blocks) run as
single-engine trailing rounds (head expansion, pooling, classifier).
One frame is in flight.

Each round has two stages, the plan's two tuples of layers. Stage one
runs its whole-frame layers one after another: each reads the newest
frame buffer and writes a fresh one; the image is the first frame
buffer, so the entry convolution is one of them. Stage two streams
projection to addition to expansion through bounded word-counted
queues, one message per run of as many 16-channel batches as a queue
holds; a bounded residual FIFO, one shortcut source frame deep
(residual_fifo_capacity) and built only for a model with shortcuts,
carries each shortcut frame, in the same runs, to the next round's
addition slot. Processes pass plain uint8 arrays: each runs its layer's
kernel (the one its record holds, engines.compile_records) on a frame
buffer's array, as the sequential driver does from layer to layer, and
only the logits become a QTensor. A frame buffer is written once, whole: it
adopts the finished array of its producer, and readers get the array
itself. In a round without an expansion the addition slot is that
producer: it copies its runs into a frame it owns and writes it after
the last run. The facts a frame's wiring reads (each layer's engine,
each frame buffer's and queue's size and label) form an immutable wiring
plan, read off the round plan once per model object, so each frame
builds only its frame buffers, queues and processes. Processes are
plain generators that take only their streams: each stream operation is
one attempt (put, get, read) that returns a Blocked token when the
stream cannot move, and the process yields that token itself and
retries when resumed. Neither
driver accounts for work: a result's per-layer stats are read off the
layers' geometry (perfmodel.layer_cost) when first asked for. Processes
are chained per engine (C2D, EXP, DWC, PRO, ADD) in round order, so data
streams from round to round with no barrier between rounds. Stream mode
resumes the five chains under a deterministic round-robin scheduler (the
reference); threads mode gives each engine one OS thread for the whole
frame, and the threads take turns under one run lock. Streams are plain
single-threaded structures: all locking lives in the threads driver.

Both drivers share one deadlock contract. Each stream counts its
successful operations (its progress counter), and a Blocked token
carries the count seen before the attempt that failed; when every
unfinished process is blocked on a stream that has not moved since,
none can move again and the driver raises DeadlockError. The counters
belong to the streams a run builds, so other runs cannot mask a
deadlock.
"""
from __future__ import annotations

import itertools
import threading
from collections import deque, namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engines import (
    ExpStreamKernel,
    add_elements,
    compile_records,
    layer_record,
    output_tensor,
)
from .errors import DeadlockError, DomainError, SequencingError, ShapeError
from .modelkit import (  # RoundPlan and schedule_rounds are re-exported from here
    ENGINE_FOR_KIND,
    LANES,
    LayerDesc,
    PreparedModel,
    QTensor,
    RoundPlan,
    residual_fifo_capacity,
    schedule_rounds,
)
from .perfmodel import EngineStats, layer_cost
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
    put and get are one attempt each: they move an item or return the
    Blocked token a process yields; an item is never a Blocked token.
    """

    __slots__ = ("capacity", "label", "_items", "_words", "peak_words", "progress")

    def __init__(self, capacity_words: int, label: str = ""):
        if capacity_words < 1:
            raise DomainError("queue capacity must be at least one word")
        self.capacity = capacity_words
        self.label = label
        self._items: deque = deque()
        self._words = 0
        self.peak_words = 0
        self.progress = 0  # successful puts and gets

    @property
    def words(self) -> int:
        return self._words

    def try_put(self, item, words: int = 1) -> bool:
        if words > self.capacity:
            raise DomainError(
                f"item of {words} words can never fit queue '{self.label}' "
                f"of capacity {self.capacity}"
            )
        total = self._words + words
        if total > self.capacity:
            return False
        self._items.append((words, item))
        self._words = total
        if total > self.peak_words:
            self.peak_words = total
        self.progress += 1
        return True

    def try_get(self):
        item = self.get()
        return (False, None) if type(item) is Blocked else (True, item)

    def put(self, item, words: int = 1) -> Blocked | None:
        """Put the item and return None, or return Blocked if it does not fit yet."""
        seen = self.progress
        return None if self.try_put(item, words) else Blocked("full", self, seen)

    def get(self):
        """Take the oldest item, or return Blocked if the queue is empty."""
        if not self._items:
            return Blocked("empty", self, self.progress)
        words, item = self._items.popleft()
        self._words -= words
        self.progress += 1
        return item

    def put_g(self, item, words: int = 1):
        """Generator put, for hand-written processes: yields until the item fits."""
        while (token := self.put(item, words)) is not None:
            yield token

    def get_g(self):
        """Generator get, for hand-written processes: yields until an item arrives."""
        while type(item := self.get()) is Blocked:
            yield item
        return item


class FrameBuffer:
    """One finished activation frame: an (npix, channels) uint8 array.

    Its producer writes it once, whole: set_tensor adopts the finished
    array without a copy. Readers read the array itself once it is
    written (read); attempted reads before the write are counted (and
    blocked), which is what makes the depthwise reorder boundary
    observable in tests.
    """

    def __init__(self, npix: int, channels: int, label: str = ""):
        self.npix = npix
        self.channels = channels
        self.label = label
        self._data: np.ndarray | None = None
        self.progress = 0  # 1 once written
        self.reads_before_complete = 0

    def set_tensor(self, data: np.ndarray) -> None:
        """Adopt the whole finished frame, one (..., channels) uint8 array."""
        if self.progress:
            raise SequencingError(f"frame '{self.label}' was written twice")
        flat = data if data.ndim == 2 else data.reshape(-1, data.shape[-1])
        if flat.dtype != np.uint8 or flat.shape != (self.npix, self.channels):
            raise DomainError(f"frame '{self.label}' takes {self.npix} pixels of "
                              f"{self.channels} uint8 channels; got {data.dtype} of "
                              f"shape {data.shape}")
        self._data = flat
        self.progress = 1

    @property
    def complete(self) -> bool:
        return self.progress == 1

    def read(self):
        """The finished frame, or Blocked (a counted early read) before its write."""
        if self.progress:
            return self._data
        self.reads_before_complete += 1
        return Blocked("frame", self, self.progress)

    def wait_complete_g(self):
        """Generator wait, for hand-written processes: yields until the write."""
        while type(token := self.read()) is Blocked:
            yield token

    def assemble(self) -> np.ndarray:
        """The finished frame itself, not a copy."""
        if not self.complete:
            raise SequencingError(f"frame '{self.label}' read before completion")
        return self._data


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _frame_process(layer: LayerDesc, in_buf: FrameBuffer, out_buf: FrameBuffer,
                   rounding: Rounding, probe=None):
    """Whole frame in, whole frame out: every stage-one layer."""
    while type(x := in_buf.read()) is Blocked:
        yield x
    out_buf.set_tensor(layer_record(layer).kernel(x, layer, rounding, probe))


def _pro_process(layer: LayerDesc, in_buf: FrameBuffer, out_q: BoundedQueue, rounding: Rounding):
    while type(x := in_buf.read()) is Blocked:
        yield x
    flat = layer_record(layer).kernel(x, layer, rounding)
    step = out_q.capacity // flat.shape[0] * LANES
    for lo in range(0, flat.shape[1], step):
        run = flat[:, lo : lo + step]
        while (token := out_q.put((lo // LANES, run), run.size // LANES)) is not None:
            yield token


def _add_process(layer: LayerDesc, in_q: BoundedQueue, res_q, sinks: list,
                 out_buf: FrameBuffer | None, rounding: Rounding):
    """One run in, one run out to every sink queue. A shortcut slot adds
    the residual run of the same first batch and shape: shortcut ends
    have equal dims, so both rounds cut their frames into the same runs.
    A slot with an out_buf (its round has no expansion) copies each run
    into a frame it owns and writes that frame whole after its last run."""
    frame = None if out_buf is None else np.empty((out_buf.npix, out_buf.channels), np.uint8)
    batches, shortcut = layer.out_ch // LANES, layer.residual_from is not None
    b = 0
    while b < batches:
        while type(got := in_q.get()) is Blocked:
            yield got
        first, run = got
        if first != b:
            raise SequencingError(f"addition slot got batch {first}, expected {b}")
        if shortcut:
            while type(got := res_q.get()) is Blocked:
                yield got
            rfirst, rrun = got
            if rfirst != first or rrun.shape != run.shape:
                raise SequencingError(f"residual run {rfirst} {rrun.shape} does not line "
                                      f"up with run {first} {run.shape}")
            run = add_elements(run, rrun, layer, rounding)
        for sink in sinks:
            while (token := sink.put((first, run), run.size // LANES)) is not None:
                yield token
        if frame is not None:
            frame[:, b * LANES : b * LANES + run.shape[1]] = run
        b += run.shape[1] // LANES
    if frame is not None:
        out_buf.set_tensor(frame)


def _exp_process(layer: LayerDesc, in_q: BoundedQueue, out_buf: FrameBuffer,
                 rounding: Rounding, probe=None):
    """Streamed expansion: fold each run from the addition slot into
    the accumulators as it arrives. The kernel takes each input batch
    once, in order: a repeated or overlapping run raises in consume."""
    kernel = ExpStreamKernel(layer, rounding, probe=probe)
    ab, apass = 0, layer.apass
    while ab < apass:
        while type(got := in_q.get()) is Blocked:
            yield got
        first, run = got
        kernel.consume(first, run)
        ab = first + run.shape[1] // LANES
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
    waits = [[g, None] for g in procs]  # each process and the Blocked token it last yielded
    while waits:
        resumed = ended = False
        for w in waits:
            token = w[1]
            if token is not None and token.resource.progress == token.seen:
                continue
            resumed = True
            try:
                token = next(w[0])
            except StopIteration:
                w[0], ended = None, True
                continue
            w[1] = token if isinstance(token, Blocked) else None
        if ended:
            waits = [w for w in waits if w[0] is not None]
        elif not resumed:
            raise _deadlock(w[1] for w in waits)


def _run_threaded(procs: list) -> None:
    """One thread per process, taking turns under one run lock.

    A thread holds the lock while it steps its process and releases it
    only inside wait(), so streams change only under the lock and no
    wakeup is lost. A process that yields Blocked waits on its own
    condition until the stream's progress counter moves past the value
    the process saw. Whenever a process blocks or ends, its thread wakes
    the waiters whose stream has moved, and when every live process waits
    on a stream that has not moved it raises DeadlockError for the run.
    The first error wakes every waiter, and every thread is joined before
    this returns or raises.
    """
    lock = threading.Lock()  # guards every stream, waiting, live and errors
    wakes = [threading.Condition(lock) for _ in procs]
    waiting: dict[int, Blocked] = {}
    errors: list[BaseException] = []
    live = len(procs)

    def fail(err: BaseException) -> None:  # caller holds lock
        errors.append(err)
        for wake in wakes:
            wake.notify()

    def settle() -> None:  # caller holds lock
        for j, t in waiting.items():
            if t.resource.progress != t.seen:
                wakes[j].notify()
        if not errors and waiting and len(waiting) == live and _stuck(waiting.values()):
            fail(_deadlock(waiting.values()))

    def drive(i: int, g) -> None:
        nonlocal live
        with lock:
            try:
                for token in g:
                    if not isinstance(token, Blocked):
                        continue
                    waiting[i] = token
                    settle()
                    while not errors and token.resource.progress == token.seen:
                        wakes[i].wait()
                    del waiting[i]
                    if errors:
                        return
            except BaseException as e:  # surface through the caller
                fail(e)
            finally:
                live -= 1
                settle()

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
    """Logits of one frame, with the layers that computed them; their
    costs (stats, by layer index) are read off the layers on first read."""

    logits: QTensor
    layers: tuple[LayerDesc, ...]
    mode: str

    @cached_property
    def stats(self) -> dict[int, EngineStats]:
        return {i: layer_cost(l) for i, l in enumerate(self.layers)}

    @property
    def total(self) -> EngineStats:
        return sum(self.stats.values(), EngineStats(0, 0, 0, 0))


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
    per engine for the whole frame, taking turns under one run lock. Both
    dataflow modes raise DeadlockError rather than hang. All three produce identical
    logits; they differ only in how engine execution is interleaved.

    The model's validate_graph verdict, found once per model object
    (PreparedModel.verdict), is raised first, then the image is checked
    against the entry edge. The model's first frame compiles every
    layer's record in whole-model passes (engines.compile_records),
    before either driver runs a kernel; after that every layer runs its
    record's kernel on plain uint8 arrays, and only the logits become a
    QTensor.
    """
    if mode not in ("sequential", "stream", "threads"):
        raise DomainError(f"unknown inference mode {mode!r}")
    rounding = model.rounding if rounding is None else rounding
    model.require_valid()
    _check_image(model, image)
    records = compile_records(model.layers)
    if mode == "sequential":
        return _run_sequential(model, records, image, rounding, exp_probe)
    return _run_rounds(model, image, rounding, exp_probe, threaded=(mode == "threads"))


def _layer_probe(exp_probe, idx: int):
    """exp_probe bound to layer idx, or None without a probe."""
    return None if exp_probe is None else lambda ab, acc: exp_probe(idx, ab, acc)


def _run_sequential(model, records, image, rounding, exp_probe) -> InferenceResult:
    kept: dict[int, np.ndarray] = {}
    sources = model.residual_sources
    x = image.data
    for idx, (layer, rec) in enumerate(zip(model.layers, records)):
        if layer.residual_from is None:
            x = rec.kernel(x, layer, rounding, _layer_probe(exp_probe, idx))
        else:
            x = add_elements(x, kept.pop(layer.residual_from), layer, rounding)
        if idx in sources:
            kept[idx] = x
    return InferenceResult(output_tensor(model.layers[-1], x), model.layers, "sequential")


def _wire(model: PreparedModel) -> tuple:
    """The model's wiring plan: the immutable facts each frame's wiring reads.

    Returns (engine_of, rounds): each layer's engine, and per round a pair
    (whole, streamed). whole holds a (layer, pixels, channels, label) per
    stage-one layer, for the frame it writes. streamed is None, or (pro,
    add, exp or None, queue words, the two queue labels, the out frame's
    (pixels, channels, label), feeds_fifo, reads_fifo): whether the
    addition's frame is a shortcut source, and whether it is a shortcut.
    """
    layers, sources = model.layers, model.residual_sources
    engine_of = tuple(ENGINE_FOR_KIND[l.kind] for l in layers)

    def frame(r: int, idx: int) -> tuple[int, int, str]:
        l = layers[idx]
        return l.out_h * l.out_w, l.out_ch, f"round{r}-{engine_of[idx].lower()}-out"

    rounds = []
    for r, (whole, s) in enumerate(model.rounds):
        two = None
        if s:
            pro = layers[s[0]]
            # two batches per run halve the messages a round trades; one batch
            # (npix words) runs every model too, so two is not a deadlock bound
            two = (s[0], s[1], s[2] if len(s) == 3 else None, 2 * pro.out_h * pro.out_w,
                   f"round{r}-pro-add", f"round{r}-add-exp", frame(r, s[-1]),
                   s[1] in sources, layers[s[1]].residual_from is not None)
        rounds.append((tuple((i, *frame(r, i)) for i in whole), two))
    return engine_of, tuple(rounds)


def _wire_frame(model, image, rounding, exp_probe) -> tuple[list, FrameBuffer]:
    """One frame's processes, chained per engine, and the frame buffer its
    logits are read from: its mutable objects, built from the wiring plan
    (_wire) the model's first stream or threads frame keeps in its __dict__."""
    engine_of, rounds = model.__dict__.get("_wiring") or model.__dict__.setdefault(
        "_wiring", _wire(model))
    layers = model.layers
    fifo_words = residual_fifo_capacity(model)
    res_fifo = BoundedQueue(fifo_words, "residual-fifo") if fifo_words else None
    chains: dict[str, list] = {}  # engine -> its processes in round order
    entry = layers[0]
    buf = FrameBuffer(entry.in_h * entry.in_w, entry.in_ch, "image")  # the newest frame buffer
    buf.set_tensor(image.data)
    for whole, streamed in rounds:
        for idx, npix, channels, label in whole:
            out = FrameBuffer(npix, channels, label)
            chains.setdefault(engine_of[idx], []).append(_frame_process(
                layers[idx], buf, out, rounding, _layer_probe(exp_probe, idx)))
            buf = out
        if streamed is None:
            continue
        pro, add, exp, words, pro_add, add_exp, out_frame, feeds_fifo, reads_fifo = streamed
        q_pro_add = BoundedQueue(words, pro_add)
        chains.setdefault(engine_of[pro], []).append(
            _pro_process(layers[pro], buf, q_pro_add, rounding))
        # the round's last layer writes the frame the next round reads
        buf = FrameBuffer(*out_frame)
        sinks, add_out = [], buf
        if exp is not None:
            q_add_exp = BoundedQueue(words, add_exp)
            chains.setdefault(engine_of[exp], []).append(_exp_process(
                layers[exp], q_add_exp, buf, rounding, _layer_probe(exp_probe, exp)))
            sinks, add_out = [q_add_exp], None
        if feeds_fifo:
            sinks.append(res_fifo)
        chains.setdefault(engine_of[add], []).append(_add_process(
            layers[add], q_pro_add, res_fifo if reads_fifo else None, sinks, add_out, rounding))

    # each engine's processes run one after another as one process
    return [itertools.chain(*c) for c in chains.values()], buf


def _run_rounds(model, image, rounding, exp_probe, threaded: bool) -> InferenceResult:
    """Wire one frame (_wire_frame: the model's cached plan, this frame's
    own buffers, queues and processes, which wait inline), then run its
    engine chains: stream mode under the round-robin scheduler, threads
    mode with one thread each, taking turns under one lock."""
    procs, last = _wire_frame(model, image, rounding, exp_probe)
    _run_threaded(procs) if threaded else _run_round_robin(procs)
    return InferenceResult(output_tensor(model.layers[-1], last.assemble()), model.layers,
                           "threads" if threaded else "stream")

"""The benchmark's workloads, generated from one seed.

A workload is a pool of graph constructors plus the images each graph
sees. Frame f runs pool graph f % P on that graph's image number
(f // P) % len(images), so one pass over the pool is P frames. A graph
constructor takes the API to build with: the program (semistream) or
the benchmark's frozen reference copy of it (semistream_ref). The
program only ever receives the generated graphs and images; the seed
stays in the benchmark.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


#: Analytic anchors of the standard 224x224 model at the reference clock.
MNV2_224_ANCHORS = {"model_cycles": 1059648, "latency_ms": 10.596, "first_bw_round": 13}

#: The reference runtime's (reference/semistream_ref) own median wall
#: times per frame in each mode (ms), and per set-up of the whole pool
#: (s), on the reference host: a 2-vCPU Intel Xeon VM, Python 3.11,
#: numpy 2.4 with OpenBLAS, medians of 20 runs (mnv2-224: of 7 runs).
#: The untraced run reports the program's time over the reference's,
#: call by call, times these.
REFERENCE = {
    "mnv2-224": {"sequential": 793.0, "stream": 815.0, "threads": 1248.0, "setup_s": 1.23},
    "mnv2-64-w0.5-trunc": {"sequential": 84.4, "stream": 91.2, "threads": 124.6, "setup_s": 0.317},
    "random-tiny": {"sequential": 7.66, "stream": 8.56, "threads": 18.09, "setup_s": 1.72},
}

#: random-tiny pool: 36 graphs, 12 per input resolution, and per
#: resolution three graphs of each block count.
TINY_POOL = 36
TINY_RESOLUTIONS = (16, 24, 32)
TINY_BLOCKS = (3, 4, 5, 6)
TINY_EXPAND = (1, 2, 3, 4, 5, 6)
TINY_CHANNELS = (8, 16, 24, 32)


@dataclass
class Workload:
    name: str
    seed: int
    #: name of the Rounding member, resolved against each API
    rounding: str
    #: graph_fns[g](api) builds pool graph g with that API
    graph_fns: list[Callable]
    images: list[list[np.ndarray]]
    #: frames checked against the naive oracle; None checks every
    #: distinct (graph, image) pair that ran
    oracle_frames: int | None
    #: `semistream infer` calls timed in the traced run
    cli_calls: int
    #: program and reference set-ups timed back to back in the untraced run
    setup_pairs: int
    #: frames per timing sample in the untraced run; divides the pool
    slice_frames: int = 1
    anchors: dict = field(default_factory=dict)
    #: builds the model the anchors are checked on, if not pool graph 0
    anchor_graph: Callable | None = None

    def rounding_of(self, api):
        return api.Rounding[self.rounding]

    @property
    def pool(self) -> int:
        return len(self.graph_fns)

    def frame_key(self, f: int) -> tuple[int, int]:
        g = f % self.pool
        return g, (f // self.pool) % len(self.images[g])


def _images(rng, resolution: int, count: int) -> list[np.ndarray]:
    return [rng.integers(0, 256, size=(resolution, resolution, 3), dtype=np.uint8)
            for _ in range(count)]


def _mnv2(name, seed, width, resolution, rounding, images, oracle_frames, cli_calls,
          setup_pairs) -> Workload:
    rng = np.random.default_rng(seed)
    model_seed = int(rng.integers(0, 2**31))
    build = lambda api: api.build_mobilenet_v2(width, resolution, seed=model_seed)  # noqa: E731
    wl = Workload(name, seed, rounding, [build], [_images(rng, resolution, images)],
                  oracle_frames, cli_calls, setup_pairs, anchors=MNV2_224_ANCHORS)
    if (width, resolution) != (1.0, 224):
        # the anchors hold for the standard model whatever its weights; it
        # is built and prepared, never run
        wl.anchor_graph = lambda api: api.build_mobilenet_v2(1.0, 224, seed=model_seed)
    return wl


def _tiny_blocks(rng) -> list[list[tuple[int, int, int]]]:
    """Block lists, as (expand, out_ch, stride), for the random-tiny pool.

    Every (resolution, block position) slot draws its expansion, output
    channels, stride and shortcut from its own shuffled deck, so each
    seed's pool holds the same multiset of settings per slot in a new
    arrangement. Topologies change with the seed; the pool's total work
    changes little, which keeps run-to-run spread across seeds small.
    """
    shapes = [(TINY_RESOLUTIONS[g % 3], TINY_BLOCKS[(g // 3) % 4]) for g in range(TINY_POOL)]
    decks: dict[tuple, list[int]] = {}

    def draw(res: int, pos: int, what: str, values) -> int:
        key = (res, pos, what)
        if key not in decks:
            count = sum(1 for r, n in shapes if r == res and n > pos)
            decks[key] = [int(v) for v in rng.permutation(np.resize(values, count))]
        return decks[key].pop()

    pool = []
    for res, nblocks in shapes:
        blocks, ch = [], 32  # the entry convolution always emits 32 channels
        for pos in range(nblocks):
            stride = draw(res, pos, "stride", (1, 2))
            keep = draw(res, pos, "keep", (0, 1))
            out_ch = draw(res, pos, "out", TINY_CHANNELS)
            if stride == 1 and keep:
                out_ch = ch  # a shortcut block
            blocks.append((draw(res, pos, "expand", TINY_EXPAND), out_ch, stride))
            ch = out_ch
        pool.append(blocks)
    return pool


def _random_tiny(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    graph_fns, images = [], []
    for g, blocks in enumerate(_tiny_blocks(rng)):
        res = TINY_RESOLUTIONS[g % 3]
        model_seed = int(rng.integers(0, 2**31))
        graph_fns.append(lambda api, b=blocks, r=res, s=model_seed: api.build_model(
            [api.BlockSpec(*spec) for spec in b], r, seed=s, include_head=False))
        images.append(_images(rng, res, 1))
    # twelve consecutive pool graphs hold one of each resolution and block
    # count, so each slice of twelve frames is a balanced sample of the pool
    return Workload("random-tiny", seed, "NEAREST", graph_fns, images,
                    oracle_frames=None, cli_calls=5, setup_pairs=3,
                    slice_frames=len(TINY_RESOLUTIONS) * len(TINY_BLOCKS))


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate workload `name` from `seed`; smoke keeps a tiny slice of it."""
    if name == "mnv2-224":
        wl = _mnv2(name, seed, 1.0, 224, "NEAREST", images=4, oracle_frames=1, cli_calls=1,
                   setup_pairs=3)
    elif name == "mnv2-64-w0.5-trunc":
        wl = _mnv2(name, seed, 0.5, 64, "TRUNCATE", images=8, oracle_frames=None,
                   cli_calls=3, setup_pairs=7)
    elif name == "random-tiny":
        wl = _random_tiny(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if smoke:
        wl.graph_fns, wl.images = wl.graph_fns[:4], [imgs[:1] for imgs in wl.images[:4]]
        wl.cli_calls = 1
        wl.slice_frames = 1
    return wl

"""Exhaustive level enumeration of hypergraphs with deterministic chunking.

A *level* is the set of labeled hypergraphs on a fixed (n, r) with a
fixed edge count m, optionally restricted to supergraphs of a base graph.
Every labeled graph of a level is visited once; there is no isomorph
rejection.  A graph's rank is the colex position of its chosen (non-base)
edge indices, which is also ascending numeric order of its chosen-universe
bitmask.  ``level_masks`` unranks a whole array of ranks at once in the
combinatorial number system: for i = k down to 1, one ``searchsorted``
over the column C(., i) finds every rank's i-th index c, whose binomial is
subtracted and whose universe bit is set.  Index c is universe edge c on a
labeled level and the c-th edge outside the base on a supergraph level,
whose base mask is ORed in, so both modes share one path.  Masks are
``uint64`` for universes of at most 64 edges and Python ints in ``object``
arrays beyond, in the same loop.  Ranks give stateless chunks ``[lo, hi)``
that partition a level exactly, so work can be distributed over processes
and the results merged back in rank order: aggregates are reproducible for
any worker count, and interrupted sweeps can resume from a rank.

The monotone reduction plan encodes why sweeping two levels suffices to
verify an edge-count Hamiltonicity threshold for *all* larger edge
counts: a Berge cycle only uses listed edges, so Hamiltonicity survives
edge addition, and a non-Hamiltonian graph above the threshold level
would have all its one-edge-smaller subgraphs non-Hamiltonian as well,
forcing it to be a supergraph of an exceptional graph found at the
threshold level.  Sweeping the supergraphs of each exception closes the
induction; the path statement needs only its own threshold level because
a cycle certificate yields a path certificate by dropping an edge.
"""

from __future__ import annotations

import multiprocessing
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache, partial
from math import comb
from typing import Callable, Iterator

import numpy as np

from .hypergraph import Hypergraph, universe_masks

ALL_LABELED = "all_labeled"
SUPERGRAPHS = "supergraphs"

DEFAULT_BUDGET = 10 ** 10
DEFAULT_CHUNK = 1 << 16


class BudgetExceeded(RuntimeError):
    """A level is larger than the configured enumeration budget."""

    def __init__(self, size: int, budget: int, spec: "LevelSpec"):
        super().__init__(
            f"level {spec.n=} {spec.r=} {spec.m=} mode={spec.mode} has exactly "
            f"{size} graphs, exceeding the budget of {budget}"
        )
        self.size = size
        self.budget = budget


@dataclass(frozen=True)
class LevelSpec:
    """One enumeration level: m-edge r-graphs on n vertices, or only the
    supergraphs of ``base`` when one is given."""

    n: int
    r: int
    m: int
    base: Hypergraph | None = None

    def __post_init__(self):
        if not 2 <= self.r <= self.n:
            raise ValueError(f"need 2 <= r <= n, got r={self.r}, n={self.n}")
        if not 0 <= self.m <= comb(self.n, self.r):
            raise ValueError(f"need 0 <= m <= C(n,r), got m={self.m}")
        if self.base is not None:
            if (self.base.n, self.base.r) != (self.n, self.r):
                raise ValueError("base must live on the same (n, r)")
            if self.base.m > self.m:
                raise ValueError("base has more edges than the level")

    @property
    def mode(self) -> str:
        return ALL_LABELED if self.base is None else SUPERGRAPHS


def level_size(spec: LevelSpec) -> int:
    """Exact number of graphs the level enumerates: every labeled m-edge
    graph, or every m-edge supergraph of the base."""
    u = comb(spec.n, spec.r)
    if spec.base is not None:
        return comb(u - spec.base.m, spec.m - spec.base.m)
    return comb(u, spec.m)


def _free_positions(spec: LevelSpec) -> list[int]:
    u = universe_masks(spec.n, spec.r)
    base_set = set(spec.base.edges)
    return [i for i, em in enumerate(u) if em not in base_set]


@cache
def _binomial_columns(width: int, k: int, dtype) -> tuple[np.ndarray, ...]:
    """Column i - 1 holds C(c, i) for c = 0..width-1, ascending, for i = 1..k.
    The columns are shared by every caller, so they are read-only."""
    cols = tuple(np.array([comb(c, i) for c in range(width)], dtype=dtype) for i in range(1, k + 1))
    for col in cols:
        col.flags.writeable = False
    return cols


def level_masks(spec: LevelSpec, ranks) -> np.ndarray:
    """The chosen-universe masks of the level's graphs at ``ranks``, in the given order.

    ``ranks`` is an integer array of ranks in ``[0, level_size(spec))``, in
    any order.  The masks come back ``uint64`` for universes of at most 64
    edges, and as Python ints in an ``object`` array beyond that.
    """
    ranks = np.asarray(ranks)
    total = level_size(spec)
    if ranks.size and not (ranks.dtype.kind in "iu"
                           or ranks.dtype == object and all(isinstance(x, int) for x in ranks.flat)):
        raise ValueError(f"ranks must be integers, got an array of {ranks.dtype}")
    if ranks.size and not (int(ranks.min()) >= 0 and int(ranks.max()) < total):
        raise ValueError(f"ranks must lie in [0, {total}), got {ranks.min()}..{ranks.max()}")
    u = universe_masks(spec.n, spec.r)
    dtype = np.uint64 if len(u) <= 64 else object
    if spec.base is None:
        pos, base, k = range(len(u)), 0, spec.m
    else:
        pos, k = _free_positions(spec), spec.m - spec.base.m
        base = chosen_mask(spec.n, spec.r, spec.base.edges)
    bits = np.array([1 << p for p in pos], dtype=dtype)
    rank = ranks.astype(dtype)
    mask = np.full(rank.shape, base, dtype=dtype)
    for col in reversed(_binomial_columns(len(bits), k, dtype)):
        c = np.searchsorted(col, rank, "right") - 1
        rank -= col[c]
        mask |= bits[c]
    return mask


def iter_level_masks(spec: LevelSpec, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, int]]:
    """Yield (rank, chosen-universe-mask) over ranks [lo, hi) of the level,
    in rank order, unranking ``DEFAULT_CHUNK`` ranks at a time."""
    total = level_size(spec)
    if hi is None:
        hi = total
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"bad rank window [{lo}, {hi}) for level of size {total}")
    for a in range(lo, hi, DEFAULT_CHUNK):
        b = min(a + DEFAULT_CHUNK, hi)
        ranks = np.arange(a, b, dtype=np.int64 if b <= 1 << 63 else object)
        yield from zip(range(a, b), level_masks(spec, ranks).tolist())


def chosen_mask(n: int, r: int, edges) -> int:
    """The chosen-universe mask of some edges: bit i set for edge ``universe_masks(n, r)[i]``."""
    edges = set(edges)
    return sum(1 << i for i, em in enumerate(universe_masks(n, r)) if em in edges)


def hypergraph_at(spec: LevelSpec, chosen: int) -> Hypergraph:
    """Materialize the hypergraph a chosen-universe mask denotes."""
    u = universe_masks(spec.n, spec.r)
    masks = []
    while chosen:
        b = chosen & -chosen
        chosen ^= b
        masks.append(u[b.bit_length() - 1])
    return Hypergraph._from_sorted_masks(spec.n, spec.r, tuple(masks))


def run_chunks(
    spec: LevelSpec,
    chunk_fn: Callable[[LevelSpec, int, int], object],
    *,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    budget: int | None = DEFAULT_BUDGET,
    progress: Callable[[LevelSpec, int, int, object], None] | None = None,
) -> list:
    """Apply ``chunk_fn(spec, lo, hi)`` over a level, merging in rank order.

    ``chunk_fn`` must be picklable and pure; with ``jobs > 1`` chunks run
    in a process pool, but the returned list is always ordered by rank, so
    any aggregation over it is independent of the worker count.  The pool
    forks where the platform can and spawns elsewhere, so under ``spawn``
    ``chunk_fn`` must also be importable by the workers.  The ``progress``
    callback fires per chunk, in rank order, with or without the pool.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    total = level_size(spec)
    if budget is not None and total > budget:
        raise BudgetExceeded(total, budget, spec)
    windows = [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)] or [(0, 0)]
    task = partial(_run_window, chunk_fn, spec)
    results = []
    with ExitStack() as stack:
        outputs = map(task, windows)
        if jobs > 1 and len(windows) > 1:
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            outputs = stack.enter_context(multiprocessing.get_context(method).Pool(jobs)).imap(task, windows)
        for (lo, hi), res in zip(windows, outputs):
            if progress is not None:
                progress(spec, lo, hi, res)
            results.append(res)
    return results


def _run_window(chunk_fn, spec: LevelSpec, window: tuple[int, int]):
    """``chunk_fn`` over one rank window; module level so pools can pickle it."""
    return chunk_fn(spec, *window)


@dataclass(frozen=True)
class ReductionPlan:
    """Levels whose exhaustive check settles a threshold theorem for all m.

    ``cycle_level`` holds every graph with one edge more than the cycle
    threshold and ``path_level`` sits exactly at the path threshold.
    Campaigns add the supergraph levels of the exceptions they actually
    find at ``cycle_level``, so no prediction biases the check.  See the
    module docstring for the downward-closure argument that makes this
    complete.
    """

    n: int
    r: int
    cycle_level: LevelSpec
    path_level: LevelSpec


def monotone_reduction_plan(n: int, r: int) -> ReductionPlan:
    if r < 3 or n < r + 2:
        raise ValueError(f"threshold theorems need n >= r+2 and r >= 3, got (n={n}, r={r})")
    t = comb(n - 1, r)
    return ReductionPlan(n=n, r=r, cycle_level=LevelSpec(n, r, t + 1), path_level=LevelSpec(n, r, t))

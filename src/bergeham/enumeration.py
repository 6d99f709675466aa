"""Exhaustive level enumeration of hypergraphs with deterministic chunking.

A *level* is the set of labeled hypergraphs on a fixed (n, r) with a
fixed edge count m, optionally restricted to supergraphs of a base graph.
Every labeled graph of a level is visited once; there is no isomorph
rejection.  Levels are walked in colex order of the chosen edge-index
sets, which coincides with ascending numeric order of the chosen-index
bitmasks; successive masks come from Gosper's hack and rank/unrank uses
the combinatorial number system.  That gives stateless chunks ``[lo, hi)`` that partition a level
exactly, so work can be distributed over processes and the results merged
back in rank order: aggregates are reproducible for any worker count, and
interrupted sweeps can resume from a rank.

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
from functools import partial
from math import comb
from typing import Callable, Iterator

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


def colex_rank(mask: int) -> int:
    """Position of a chosen-index bitmask in colex order of its popcount class."""
    rank = 0
    i = 0
    while mask:
        b = mask & -mask
        mask ^= b
        i += 1
        rank += comb(b.bit_length() - 1, i)
    return rank


def colex_unrank(rank: int, m: int) -> int:
    """Inverse of ``colex_rank`` within the m-subsets."""
    mask = 0
    for i in range(m, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= rank:
            c += 1
        rank -= comb(c, i)
        mask |= 1 << c
    return mask


def next_same_popcount(v: int) -> int:
    """Gosper's hack: numerically next integer with the same popcount."""
    c = v & -v
    r = v + c
    return (((v ^ r) >> 2) // c) | r


def _free_positions(spec: LevelSpec) -> list[int]:
    u = universe_masks(spec.n, spec.r)
    base_set = set(spec.base.edges)
    return [i for i, em in enumerate(u) if em not in base_set]


def iter_level_masks(spec: LevelSpec, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, int]]:
    """Yield (rank, chosen-universe-mask) over ranks [lo, hi) of the level,
    in colex order of the chosen (non-base) edge indices."""
    total = level_size(spec)
    if hi is None:
        hi = total
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"bad rank window [{lo}, {hi}) for level of size {total}")
    if lo == hi:
        return
    if spec.base is not None:
        free = _free_positions(spec)
        base_mask = chosen_mask(spec.n, spec.r, spec.base.edges)
        k = spec.m - spec.base.m
        if k == 0:
            yield 0, base_mask
            return
        small = colex_unrank(lo, k)
        for rank in range(lo, hi):
            chosen = base_mask
            s = small
            while s:
                b = s & -s
                s ^= b
                chosen |= 1 << free[b.bit_length() - 1]
            yield rank, chosen
            if rank + 1 < hi:
                small = next_same_popcount(small)
        return
    if spec.m == 0:
        yield 0, 0
        return
    mask = colex_unrank(lo, spec.m)
    for rank in range(lo, hi):
        yield rank, mask
        if rank + 1 < hi:
            mask = next_same_popcount(mask)


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

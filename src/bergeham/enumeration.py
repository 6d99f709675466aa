"""Exhaustive level enumeration of hypergraphs with deterministic chunking.

A graph is named by its chosen-universe mask, an int whose bit i selects
edge ``universe_masks(n, r)[i]``.  A *level* is the set of labeled m-edge
hypergraphs on a fixed (n, r) that contain a base mask of k edges: base 0
gives every labeled graph, any other base its supergraphs, and one
formula, C(C(n, r) - k, m - k), counts both.  Every labeled graph of a
level is visited once; there is no isomorph rejection.  A graph's rank
is the colex position of its edge indices outside the base, which is
also ascending numeric order of its mask.  ``level_masks`` unranks a
whole array of ranks at once in the combinatorial number system: for
i = m - k down to j + 1, one ``searchsorted`` over the column C(., i)
finds every rank's i-th index c, whose binomial is subtracted and whose
bit, the c-th bit clear in the base, is set on top of the base.  The
lowest j digits come from one gather in a cached, read-only table of
the j-subsets of those free bits in colex order, with j the largest
value whose table, and every smaller one it is built from, has at most
``LOW_DIGIT_TABLE`` entries; on small levels that is the whole level.
``window_masks`` gives a window of consecutive ranks the same masks as
runs ``prefix | table[a:b]``: only each run's high digits go through the
``searchsorted`` loop, and the runs expand with one repeat and one
gather.  Both give ``uint64`` masks, the batched layers' one format
(``chosen_array``), so they take universes of at most 64 edges; a
``LevelSpec`` and its ``level_size`` take any.  Ranks give stateless
windows ``[lo, hi)`` that partition a level exactly, so work can be
distributed over processes and the results merged back in rank
order: aggregates are reproducible for any worker count, and interrupted
sweeps can resume from a rank.  ``run_chunks`` packs the windows of a
list of levels into tasks, so many small levels cost few tasks.

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
import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cache, lru_cache
from math import comb
from typing import Callable

import numpy as np

from .hypergraph import Hypergraph, chosen_array, chosen_index, universe_masks

ALL_LABELED = "all_labeled"
SUPERGRAPHS = "supergraphs"

DEFAULT_BUDGET = 10 ** 10
DEFAULT_CHUNK = 1 << 16
LOW_DIGIT_TABLE = 1 << 16  # most entries of a low-digit table in ``level_masks``


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
    """One enumeration level: the m-edge r-graphs on n vertices that contain
    ``base``, a chosen-universe mask; the default 0 gives every labeled graph."""

    n: int
    r: int
    m: int
    base: int = 0

    def __post_init__(self):
        for name in ("n", "r", "m", "base"):  # stored as Python ints; chosen_index checks the base
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise TypeError(f"LevelSpec.{name} is not an integer: {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not 2 <= self.r <= self.n:
            raise ValueError(f"need 2 <= r <= n, got r={self.r}, n={self.n}")
        width = comb(self.n, self.r)
        if not 0 <= self.m <= width:
            raise ValueError(f"need 0 <= m <= C(n,r), got m={self.m}")
        object.__setattr__(self, "base", chosen_index(self.base, width))
        if self.base.bit_count() > self.m:
            raise ValueError("base has more edges than the level")

    @property
    def mode(self) -> str:
        return SUPERGRAPHS if self.base else ALL_LABELED


def level_size(spec: LevelSpec) -> int:
    """Exact number of graphs the level enumerates: the m-edge graphs that
    contain the base's k edges."""
    k = spec.base.bit_count()
    return comb(comb(spec.n, spec.r) - k, spec.m - k)


@cache
def _binomial_columns(width: int, k: int) -> tuple[np.ndarray, ...]:
    """Column i holds C(c, i) for c = 0..width-1, ascending, for i = 0..k.
    The columns are shared by every caller, so they are read-only."""
    cols = tuple(np.array([comb(c, i) for c in range(width)], dtype=np.uint64) for i in range(k + 1))
    for col in cols:
        col.flags.writeable = False
    return cols


@lru_cache(maxsize=16)  # a uint64 table holds at most LOW_DIGIT_TABLE entries, 0.5 MB
def _low_digit_table(width: int, base: int, j: int) -> np.ndarray:
    """Entry t is the mask of the j-subset at colex rank t of the bits clear
    in ``base`` (the free bits) of a ``width``-edge universe, for t below
    C(free, j).  Colex order lists the subsets whose largest free position
    is c after all those below c, so the i-subset table is, for c = i-1,
    i, ... in turn, the first C(c, i-1) entries of the (i-1)-subset table
    with bit c set.  Shared by every caller, so read-only."""
    bits = np.array([1 << p for p in range(width) if not base >> p & 1], dtype=np.uint64)
    table = np.zeros(1, dtype=np.uint64)
    for i in range(1, j + 1):
        table = np.concatenate([table[:comb(c, i - 1)] | bits[c] for c in range(i - 1, len(bits))])
    table.flags.writeable = False
    return table


def _unranking(spec: LevelSpec):
    """What both forms of the unranking read: the free bits, the digit count
    k = m - |base|, the count j of low digits the table resolves, the table
    and the binomial columns of the free bits.  A universe of more than 64
    edges raises ``chosen_array``'s ``ValueError``."""
    width = comb(spec.n, spec.r)
    bits = chosen_array([1 << p for p in range(width) if not spec.base >> p & 1], width)
    k = spec.m - spec.base.bit_count()
    j = 0  # a table is built through every smaller one, so each must fit
    while j < k and comb(len(bits), j + 1) <= LOW_DIGIT_TABLE:
        j += 1
    return bits, k, j, _low_digit_table(width, spec.base, j), _binomial_columns(len(bits), k)


def _peel(rank: np.ndarray, mask: np.ndarray, bits: np.ndarray, cols) -> np.ndarray | None:
    """The digit loop of the combinatorial number system, in place: for each
    column C(., i) of ``cols`` from the last, one ``searchsorted`` finds
    every rank's digit c, whose binomial is subtracted from ``rank`` and
    whose bit ``bits[c]`` is set in ``mask``.  Returns the last digits."""
    c = None
    for col in reversed(cols):
        c = np.searchsorted(col, rank, "right") - 1
        rank -= col[c]
        mask |= bits[c]
    return c


def level_masks(spec: LevelSpec, ranks) -> np.ndarray:
    """The chosen-universe masks of the level's graphs at ``ranks``, in the given order.

    ``ranks`` is an integer array of ranks in ``[0, level_size(spec))``, in
    any order.  The masks come back as one ``uint64`` array.  For a window
    of consecutive ranks, ``window_masks`` gives the same masks.
    """
    bits, k, j, table, cols = _unranking(spec)
    ranks = np.asarray(ranks)
    total = level_size(spec)
    if ranks.size and ranks.dtype.kind not in "iu":
        raise ValueError(f"ranks must be integers, got an array of {ranks.dtype}")
    if ranks.size and not (int(ranks.min()) >= 0 and int(ranks.max()) < total):
        raise ValueError(f"ranks must lie in [0, {total}), got {ranks.min()}..{ranks.max()}")
    rank = ranks.astype(np.uint64)
    mask = np.full(rank.shape, spec.base, dtype=np.uint64)
    _peel(rank, mask, bits, cols[j + 1:])
    # the rank left is below C(c, j) for the last digit c taken, so it names
    # a j-subset of smaller free positions at that colex rank
    return mask | table[rank.astype(np.intp)]


def window_masks(spec: LevelSpec, lo: int, hi: int) -> np.ndarray:
    """``level_masks(spec, np.arange(lo, hi))``, expanded from runs of the table.

    Consecutive ranks whose digits above the table's j agree (their
    *prefix*) form a run ``prefix | table[a:b]``: the rank left after
    peeling the prefix counts up from 0 to C(c, j), with c the prefix's
    lowest digit.  The prefixes, (k - j)-subsets of the free positions
    j, j+1, ..., are in colex order too, so a window's runs are the
    prefixes between those of ranks ``lo`` and ``hi - 1``.  Those two are
    peeled by the loop of ``level_masks``, which gives their colex
    positions among the prefixes, and every prefix between them is
    unranked by the same loop; one ``np.repeat`` and one table gather then
    expand the runs.  A level with j = k is one table slice.
    """
    total = level_size(spec)
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"need 0 <= lo <= hi <= {total}, got lo={lo}, hi={hi}")
    bits, k, j, table, cols = _unranking(spec)
    if j == k:
        return table[lo:hi] | spec.base
    if lo == hi:
        return np.zeros(0, dtype=np.uint64)
    # the colex positions of the prefixes of lo and hi - 1 among the (k - j)-subsets of
    # positions j.., summed as their digits are peeled, one column at a time
    pcols = _binomial_columns(len(bits) - j, k - j)
    ends, scratch = np.array([lo, hi - 1], dtype=np.uint64), np.zeros(2, dtype=np.uint64)
    first, last = map(int, sum(pcols[i - j][_peel(ends, scratch, bits, cols[i:i + 1]) - j]
                               for i in range(k, j, -1)))
    a, b = map(int, ends)  # where the first run starts and the last run ends, less one
    prefix = np.full(last - first + 1, spec.base, dtype=np.uint64)
    low = _peel(np.arange(first, last + 1, dtype=np.uint64), prefix, bits[j:], pcols[1:])
    counts = cols[j][low + j].astype(np.intp)  # C(c, j) ranks in each run
    counts[-1] = b + 1
    counts[0] -= a
    shift = counts - np.cumsum(counts)  # a run's table start, less where it starts in the window
    shift[0] += a
    return np.repeat(prefix, counts) | table[np.arange(hi - lo) + np.repeat(shift, counts)]


def chosen_mask(n: int, r: int, edges) -> int:
    """The chosen-universe mask of some edges, each a vertex mask as in
    ``Hypergraph.edges``: bit i set for edge ``universe_masks(n, r)[i]``.

    A non-integer edge raises ``TypeError``, and the first edge that is not
    an r-subset of [0, n) ``ValueError``, so no edge is dropped unseen.
    """
    u = universe_masks(n, r)
    chosen = 0
    for e in edges:
        try:
            em = operator.index(e)
        except TypeError:
            raise TypeError(f"an edge mask is not an integer: {e!r}") from None
        i = bisect_left(u, em)
        if i == len(u) or u[i] != em:
            raise ValueError(f"edge mask {em} is not a {r}-subset of [0, {n})")
        chosen |= 1 << i
    return chosen


@cache
def isolated_copies(n: int, r: int) -> frozenset[int]:
    """The chosen-universe masks of the n labeled copies of K_{n-1}^r + v:
    per vertex v, the C(n-1, r) edges that avoid v."""
    if not 2 <= r < n:
        raise ValueError(f"need 2 <= r < n, got r={r}, n={n}")
    u = universe_masks(n, r)
    return frozenset(sum(1 << i for i, e in enumerate(u) if not e >> v & 1) for v in range(n))


@cache
def pendant_copies(n: int, r: int) -> frozenset[int]:
    """The chosen-universe masks of the n·C(n-1, r-1) labeled copies of
    K_{n-1}^r + e: each copy of K_{n-1}^r + v plus one of the edges it
    lacks, which are the C(n-1, r-1) edges through its vertex v."""
    width = comb(n, r)
    return frozenset(a | 1 << i for a in isolated_copies(n, r) for i in range(width) if not a >> i & 1)


def hypergraph_at(n: int, r: int, chosen) -> Hypergraph:
    """Materialize the hypergraph a chosen-universe mask denotes on (n, r)."""
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    u = universe_masks(n, r)
    chosen = chosen_index(chosen, len(u))
    masks = []
    while chosen:
        b = chosen & -chosen
        chosen ^= b
        masks.append(u[b.bit_length() - 1])
    return Hypergraph._from_sorted_masks(n, r, tuple(masks))


def run_chunks(
    specs: list[LevelSpec],
    chunk_fn: Callable[[list[tuple[LevelSpec, int, int]]], list],
    *,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    budget: int | None = DEFAULT_BUDGET,
    progress: Callable[[LevelSpec, int, int, object], None] | None = None,
) -> list:
    """Apply ``chunk_fn`` over the rank windows of a row's levels, merging in rank order.

    Each level of ``specs`` is cut into rank windows ``[lo, hi)`` of
    ``chunk_size``, and consecutive windows, across levels, are packed
    into tasks of at most ``chunk_size`` graphs, so a one-level row has
    one window per task and a row of many small levels, such as a
    supergraph closure, few tasks.  ``chunk_fn(task)`` gets a task's
    windows as ``(spec, lo, hi)`` triples and returns one result per
    window.  Each task is packed as it is about to run, in a serial run or,
    with ``jobs > 1`` and more than one task, on a ``ProcessPoolExecutor``
    that holds at most ``2 * jobs`` tasks ahead of the one merged next.
    ``chunk_fn`` must be picklable and pure; the returned list holds one
    result per window, ordered by level and rank, so any aggregation over
    it is independent of the worker count.  The pool forks where the
    platform can and spawns elsewhere, so under ``spawn`` ``chunk_fn``
    must also be importable by the workers.  A worker that dies raises
    ``BrokenProcessPool``.  The ``progress`` callback fires per window, as
    ``progress(spec, lo, hi, result)``, in that order, with or without the
    pool.  A level larger than ``budget`` raises ``BudgetExceeded`` before
    any task runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    sizes = [level_size(spec) for spec in specs]
    for spec, total in zip(specs, sizes):
        if budget is not None and total > budget:
            raise BudgetExceeded(total, budget, spec)

    def tasks():
        task, room = [], chunk_size  # room: graphs the task can still take
        for spec, total in zip(specs, sizes):
            for lo in range(0, total, chunk_size):
                hi = min(lo + chunk_size, total)
                if hi - lo > room:
                    yield task
                    task, room = [], chunk_size
                task.append((spec, lo, hi))
                room -= hi - lo
        if task:
            yield task

    def merged(runs) -> list:
        results = []
        for task, out in runs:
            for (spec, lo, hi), res in zip(task, out, strict=True):
                if progress is not None:
                    progress(spec, lo, hi, res)
                results.append(res)
        return results

    if jobs == 1 or sum(sizes) <= chunk_size:  # one task holds every window
        return merged((task, chunk_fn(task)) for task in tasks())
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for the import
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context(method))

    def submitted():
        ahead: deque = deque()
        for task in tasks():
            ahead.append((task, pool.submit(chunk_fn, task)))
            if len(ahead) > 2 * jobs:
                yield ahead.popleft()
        yield from ahead

    try:
        return merged((task, future.result()) for task, future in submitted())
    finally:
        pool.shutdown(cancel_futures=True)  # an error stops the queued tasks too


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
    """The edge theorem's cycle level (m = C(n-1, r) + 1) and path level
    (m = C(n-1, r)) at (n, r); at r = 2 the theorem is Ore's for graphs."""
    if r < 2 or n < r + 2:
        raise ValueError(f"threshold theorems need n >= r+2 and r >= 2, got (n={n}, r={r})")
    t = comb(n - 1, r)
    return ReductionPlan(n=n, r=r, cycle_level=LevelSpec(n, r, t + 1), path_level=LevelSpec(n, r, t))

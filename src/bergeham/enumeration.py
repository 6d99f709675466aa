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
Masks are ``uint64`` for universes of at most 64 edges and Python ints
in ``object`` arrays beyond, in the same loop.  Ranks give stateless
chunks ``[lo, hi)`` that partition a level exactly, so work can be
distributed over processes and the results merged back in rank order:
aggregates are reproducible for any worker count, and interrupted sweeps
can resume from a rank.

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
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from math import comb
from typing import Callable

import numpy as np

from .hypergraph import Hypergraph, chosen_index, universe_masks

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
def _binomial_columns(width: int, k: int, dtype) -> tuple[np.ndarray, ...]:
    """Column i - 1 holds C(c, i) for c = 0..width-1, ascending, for i = 1..k.
    The columns are shared by every caller, so they are read-only."""
    cols = tuple(np.array([comb(c, i) for c in range(width)], dtype=dtype) for i in range(1, k + 1))
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
    dtype = np.uint64 if width <= 64 else object
    bits = np.array([1 << p for p in range(width) if not base >> p & 1], dtype=dtype)
    table = np.zeros(1, dtype=dtype)
    for i in range(1, j + 1):
        table = np.concatenate([table[:comb(c, i - 1)] | bits[c] for c in range(i - 1, len(bits))])
    table.flags.writeable = False
    return table


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
    width = comb(spec.n, spec.r)
    dtype = np.uint64 if width <= 64 else object
    bits = np.array([1 << p for p in range(width) if not spec.base >> p & 1], dtype=dtype)
    k = spec.m - spec.base.bit_count()
    j = 0  # a table is built through every smaller one, so each must fit
    while j < k and comb(len(bits), j + 1) <= LOW_DIGIT_TABLE:
        j += 1
    rank = ranks.astype(dtype)
    mask = np.full(rank.shape, spec.base, dtype=dtype)
    for col in reversed(_binomial_columns(len(bits), k, dtype)[j:]):
        c = np.searchsorted(col, rank, "right") - 1
        rank -= col[c]
        mask |= bits[c]
    # the rank left is below C(c, j) for the last digit c taken, so it names
    # a j-subset of smaller free positions at that colex rank
    return mask | _low_digit_table(width, spec.base, j)[rank.astype(np.intp)]


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
    spec: LevelSpec,
    chunk_fn: Callable[[LevelSpec, int, int], object],
    *,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    budget: int | None = DEFAULT_BUDGET,
    progress: Callable[[LevelSpec, int, int, object], None] | None = None,
) -> list:
    """Apply ``chunk_fn(spec, lo, hi)`` over a level, merging in rank order.

    The level is cut into rank windows ``[lo, hi)`` of ``chunk_size`` and
    the chunks run through one ``map``: the builtin one, or with
    ``jobs > 1`` and more than one chunk, a ``ProcessPoolExecutor``'s.
    ``chunk_fn`` must be picklable and pure; the returned list is always
    ordered by rank, so any aggregation over it is independent of the
    worker count.  The pool forks where the platform can and spawns
    elsewhere, so under ``spawn`` ``chunk_fn`` must also be importable by
    the workers.  A worker that dies raises ``BrokenProcessPool``.  The
    ``progress`` callback fires per chunk, in rank order, with or without
    the pool.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    total = level_size(spec)
    if budget is not None and total > budget:
        raise BudgetExceeded(total, budget, spec)
    los = range(0, total, chunk_size)
    his = [min(lo + chunk_size, total) for lo in los]

    def merged(outputs) -> list:
        results = []
        for lo, hi, res in zip(los, his, outputs):
            if progress is not None:
                progress(spec, lo, hi, res)
            results.append(res)
        return results

    task = partial(chunk_fn, spec)
    if jobs == 1 or len(los) < 2:
        return merged(map(task, los, his))
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for the import
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context(method))
    try:
        return merged(pool.map(task, los, his))
    finally:
        pool.shutdown(cancel_futures=True)  # an error stops the queued chunks too


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

"""Core r-uniform hypergraph representation and constructions.

Vertices are integers ``0..n-1`` and every edge is stored as a vertex
bitmask (an ``int`` with exactly ``r`` bits set), which keeps containment
tests O(1).  Hypergraphs are immutable: edge lists are deduplicated and
sorted at construction time, so equal objects compare and hash equal and
instances are safe to share between threads and processes.

The vertex count is capped at 64; the exact algorithms built on top are
only feasible far below that anyway.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import combinations
from typing import Iterable

MAX_VERTICES = 64


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def chosen_index(mask, width: int) -> int:
    """Any integer ``mask``, numpy's included, as a Python int whose bit i
    selects edge i of a ``width``-edge universe; a non-integer raises
    ``TypeError``, a negative mask or a bit past the universe ``ValueError``."""
    try:
        value = operator.index(mask)
    except TypeError:
        raise TypeError(f"a chosen mask is not an integer: {mask!r}") from None
    if value < 0:
        raise ValueError(f"a chosen mask is negative: {value}")
    if value >> width:
        raise ValueError(f"a chosen mask selects an edge beyond the {width} universe edges: {value}")
    return value


def members_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of vertex ids; a negative mask,
    which has no lowest bit left to clear, raises ``ValueError``."""
    if mask < 0:
        raise ValueError(f"a vertex mask is negative: {mask}")
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


class Hypergraph:
    """An r-uniform hypergraph on vertices ``0..n-1``.

    ``edges`` may be given as vertex collections (sets, lists, tuples) or
    as already-packed bitmasks.  Duplicates collapse; edges of the wrong
    size or touching vertices outside ``[0, n)`` are rejected.
    """

    __slots__ = ("n", "r", "edges")

    n: int
    r: int
    edges: tuple[int, ...]

    def __init__(self, n: int, r: int, edges: Iterable[Iterable[int] | int] = ()):
        if not 2 <= r <= n:
            raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds the {MAX_VERTICES}-vertex limit")
        full = (1 << n) - 1
        masks = set()
        for e in edges:
            # accept packed masks (any int-like) or vertex collections
            m = mask_of(e) if isinstance(e, Iterable) else operator.index(e)
            if m & ~full:
                raise ValueError(f"edge {sorted(members_of(m))} has a vertex out of range [0, {n})")
            if m.bit_count() != r:
                raise ValueError(
                    f"edge {sorted(members_of(m))} has {m.bit_count()} vertices, expected {r}"
                )
            masks.add(m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "edges", tuple(sorted(masks)))

    @classmethod
    def _from_sorted_masks(cls, n: int, r: int, masks: tuple[int, ...]) -> "Hypergraph":
        """Trusted fast constructor: masks must already be valid, sorted, unique."""
        h = object.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "r", r)
        object.__setattr__(h, "edges", masks)
        return h

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __reduce__(self):
        # the default slot-state restore would go through __setattr__
        return Hypergraph, (self.n, self.r, self.edges)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.r, self.edges) == (other.n, other.r, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, m={self.m})"

    def edge_sets(self) -> list[tuple[int, ...]]:
        """Edges as sorted vertex tuples (for display and serialization)."""
        return [members_of(m) for m in self.edges]

    def has_edge(self, edge: Iterable[int] | int) -> bool:
        m = mask_of(edge) if isinstance(edge, Iterable) else operator.index(edge)
        return m in set(self.edges)

    def degree(self, v: int) -> int:
        """Number of edges containing vertex ``v``."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        bit = 1 << v
        return sum(1 for e in self.edges if e & bit)

    def degrees(self) -> list[int]:
        out = [0] * self.n
        for e in self.edges:
            for v in members_of(e):
                out[v] += 1
        return out

    def min_degree(self) -> int:
        return min(self.degrees())

    def add_edge(self, edge: Iterable[int] | int) -> "Hypergraph":
        """Return a copy with one more edge (no-op if already present)."""
        m = mask_of(edge) if isinstance(edge, Iterable) else operator.index(edge)
        return Hypergraph(self.n, self.r, list(self.edges) + [m])

    def remove_vertex(self, v: int) -> tuple["Hypergraph", tuple[int | None, ...]]:
        """Delete vertex ``v`` and every edge through it.

        Remaining vertices are relabeled contiguously (ids above ``v``
        shift down by one).  Returns the new hypergraph together with the
        old-id -> new-id map (``None`` at the removed vertex), which lets
        callers translate certificates between the two graphs.
        """
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        bit = 1 << v
        low = bit - 1
        kept = []
        for e in self.edges:
            if e & bit:
                continue
            kept.append((e & low) | ((e >> 1) & ~low))
        mapping = tuple(None if u == v else (u if u < v else u - 1) for u in range(self.n))
        return Hypergraph(self.n - 1, self.r, kept), mapping

    def relabel(self, perm: Iterable[int]) -> "Hypergraph":
        """Apply a vertex permutation: old vertex ``u`` becomes ``perm[u]``."""
        p = tuple(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        out = []
        for e in self.edges:
            m = 0
            for u in members_of(e):
                m |= 1 << p[u]
            out.append(m)
        return Hypergraph(self.n, self.r, out)

    def shadow_pairs(self) -> set[tuple[int, int]]:
        """Vertex pairs covered by at least one edge (the shadow graph)."""
        pairs = set()
        for e in self.edges:
            mem = members_of(e)
            pairs.update(combinations(mem, 2))
        return pairs

    def isolated_vertices(self) -> list[int]:
        covered = 0
        for e in self.edges:
            covered |= e
        return [v for v in range(self.n) if not (covered >> v) & 1]


def complete(n: int, r: int) -> Hypergraph:
    """The complete r-graph on ``n`` vertices (all C(n, r) edges)."""
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    return Hypergraph(n, r, (mask_of(c) for c in combinations(range(n), r)))


def clique_plus_isolated(n: int, r: int) -> Hypergraph:
    """Complete r-graph on vertices ``0..n-2`` plus the isolated vertex ``n-1``."""
    if r >= n:
        raise ValueError(f"need r <= n-1, got r={r}, n={n}")
    return Hypergraph(n, r, (mask_of(c) for c in combinations(range(n - 1), r)))


def clique_plus_pendant(n: int, r: int) -> Hypergraph:
    """Complete r-graph on ``0..n-2`` plus one edge through vertex ``n-1``.

    The extra edge is fixed to ``{0, .., r-2, n-1}``; every other choice of
    pendant edge gives an isomorphic hypergraph, so one representative
    suffices.  Vertex ``n-1`` ends up with degree exactly 1.
    """
    if r >= n:
        raise ValueError(f"need r <= n-1, got r={r}, n={n}")
    edges = [mask_of(c) for c in combinations(range(n - 1), r)]
    edges.append(mask_of(list(range(r - 1)) + [n - 1]))
    return Hypergraph(n, r, edges)


@cache
def universe_masks(n: int, r: int) -> tuple[int, ...]:
    """All C(n, r) possible edge masks, sorted ascending.

    Ascending mask order is the canonical edge-universe ordering used by
    the enumeration machinery (it is the colex order on vertex sets).
    The tuple is built once per (n, r) and shared by every caller.
    """
    return tuple(sorted(mask_of(c) for c in combinations(range(n), r)))


"""Exact hypergraph canonicalization by pruned permutation search.

The canonical code of a hypergraph is the lexicographically minimal
sorted edge-bitmask list over all ``n!`` vertex relabelings, so two
hypergraphs on the same ``(n, r)`` have equal codes exactly when they are
isomorphic.  An exact search is affordable at the instance sizes this
library targets (n <= 10) and removes the correctness risk a refinement
heuristic would carry.

The search assigns new labels ``0, 1, ..`` one at a time.  An edge whose
members are all labeled contributes its relabeled mask, and any edge
completed at depth ``d`` contains bit ``d``, so completed masks are
strictly larger than everything completed earlier: the code grows as an
append-only sorted prefix.  That makes prefix comparison against the best
code found so far a sound branch-and-bound rule.  Vertices interchangeable
under a transposition automorphism are explored only once per node, which
collapses the otherwise factorial plateau of highly symmetric graphs.
``isomorphism`` instead finds an explicit vertex map by colour refinement
and backtracking, without canonizing, and checks it edge for edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .hypergraph import Hypergraph, mask_of, members_of

MAX_EXACT_VERTICES = 10


@dataclass(frozen=True)
class CanonicalForm:
    """Permutation-minimal encoding; equal forms <=> isomorphic hypergraphs."""

    n: int
    r: int
    code: tuple[int, ...]

    def compact(self) -> str:
        """Short string form, used in reports."""
        return f"{self.n}.{self.r}:" + "-".join(format(c, "x") for c in self.code)


class _SmallerLabelingFound(Exception):
    pass


def _swap_automorphism_table(h: Hypergraph) -> list[list[bool]]:
    """auto[u][v] is True when exchanging vertices u and v maps edges onto edges."""
    n = h.n
    edge_set = set(h.edges)
    auto = [[False] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            swapped = set()
            for e in h.edges:
                bu = (e >> u) & 1
                bv = (e >> v) & 1
                if bu != bv:
                    e ^= (1 << u) | (1 << v)
                swapped.add(e)
            if swapped == edge_set:
                auto[u][v] = auto[v][u] = True
    return auto


class _CodeSearch:
    def __init__(self, h: Hypergraph):
        self.n = h.n
        self.edges = h.edges
        m = len(h.edges)
        self.incident = [[] for _ in range(self.n)]
        for ei, e in enumerate(h.edges):
            for v in members_of(e):
                self.incident[v].append(ei)
        self.unlabeled = [e.bit_count() for e in h.edges]
        self.relabeled = [0] * m
        self.assigned = [False] * self.n
        self.auto = _swap_automorphism_table(h)
        self.best: list[int] = []

    def _assign(self, u: int, d: int) -> list[int]:
        self.assigned[u] = True
        batch = []
        bit = 1 << d
        for ei in self.incident[u]:
            self.unlabeled[ei] -= 1
            self.relabeled[ei] |= bit
            if self.unlabeled[ei] == 0:
                batch.append(self.relabeled[ei])
        batch.sort()
        return batch

    def _unassign(self, u: int, d: int) -> None:
        self.assigned[u] = False
        bit = 1 << d
        for ei in self.incident[u]:
            self.unlabeled[ei] += 1
            self.relabeled[ei] &= ~bit

    def _candidates(self) -> list[int]:
        cands: list[int] = []
        for u in range(self.n):
            if self.assigned[u]:
                continue
            if any(self.auto[w][u] for w in cands):
                continue
            cands.append(u)
        return cands

    @staticmethod
    def _batch_less(a: list[int], b: list[int]) -> bool:
        # Element-wise; on a shared prefix the LONGER batch is smaller, because
        # the shorter branch's next element completes later and has a higher top bit.
        for x, y in zip(a, b):
            if x != y:
                return x < y
        return len(a) > len(b)

    def _greedy_completion(self, d: int) -> list[int]:
        """Complete the current partial labeling by locally minimal choices.

        Leaves the search state exactly as found; returns the code suffix
        contributed by depths ``d..n-1``.
        """
        out: list[int] = []
        taken: list[tuple[int, int]] = []
        for depth in range(d, self.n):
            best_u = -1
            best_batch: list[int] | None = None
            for u in self._candidates():
                batch = self._assign(u, depth)
                self._unassign(u, depth)
                if best_batch is None or self._batch_less(batch, best_batch):
                    best_u, best_batch = u, batch
            self._assign(best_u, depth)
            taken.append((best_u, depth))
            out.extend(best_batch)  # type: ignore[arg-type]
        for u, depth in reversed(taken):
            self._unassign(u, depth)
        return out

    def _walk(self, d: int, pos: int, improve: bool) -> None:
        if d == self.n:
            return
        for u in self._candidates():
            batch = self._assign(u, d)
            verdict = 0
            for i, x in enumerate(batch):
                bx = self.best[pos + i]
                if x != bx:
                    verdict = -1 if x < bx else 1
                    break
            if verdict > 0:
                self._unassign(u, d)
                continue
            if verdict < 0:
                if not improve:
                    self._unassign(u, d)
                    raise _SmallerLabelingFound
                # This branch strictly beats the incumbent: materialize a full
                # labeling from here so the equal-prefix invariant is restored.
                self.best[pos:] = batch + self._greedy_completion(d + 1)
            self._walk(d + 1, pos + len(batch), improve)
            self._unassign(u, d)

    def minimum_code(self) -> tuple[int, ...]:
        self.best = self._greedy_completion(0)
        self._walk(0, 0, improve=True)
        return tuple(self.best)

    def identity_is_minimal(self) -> bool:
        self.best = list(self.edges)
        try:
            self._walk(0, 0, improve=False)
        except _SmallerLabelingFound:
            return False
        return True


def _check_size(h: Hypergraph) -> None:
    if h.n > MAX_EXACT_VERTICES:
        raise ValueError(
            f"exact canonicalization only supports n <= {MAX_EXACT_VERTICES}, got n={h.n}"
        )


def canonical_form(h: Hypergraph) -> CanonicalForm:
    """Minimal encoding of ``h`` over all vertex relabelings (exact)."""
    _check_size(h)
    return CanonicalForm(n=h.n, r=h.r, code=_CodeSearch(h).minimum_code())


def is_canonical(h: Hypergraph) -> bool:
    """True when ``h``'s own edge list already is its canonical code.

    Tells whether ``h`` is the min-lex representative of its isomorphism
    class, as an orderly generator would need, without storing a seen-set;
    cheaper than ``canonical_form`` because the search can stop at the
    first strictly smaller relabeling.
    """
    _check_size(h)
    return _CodeSearch(h).identity_is_minimal()


def _refined_colours(members: list[list[tuple[int, ...]]], n: int) -> list[list[int]] | None:
    """Stable joint vertex colourings of two edge lists, from degrees refined by
    each incident edge's colour multiset; None once the histograms differ."""
    colours = [[d[v] for v in range(n)] for d in (Counter(v for e in mem for v in e) for mem in members)]
    while True:
        sigs = []
        for col, mem in zip(colours, members):
            seen = [[] for _ in col]
            for e in mem:
                t = tuple(sorted([col[v] for v in e]))
                for v in e:
                    seen[v].append(t)
            sigs.append([(c, tuple(sorted(s))) for c, s in zip(col, seen)])
        name = {s: i for i, s in enumerate(sorted(set(sigs[0]) | set(sigs[1])))}
        new = [[name[s] for s in sig] for sig in sigs]
        if sorted(new[0]) != sorted(new[1]):
            return None
        if len(name) == len(set(colours[0]) | set(colours[1])):
            return new
        colours = new


def isomorphism(a: Hypergraph, b: Hypergraph) -> tuple[int, ...] | None:
    """A vertex map ``sigma`` with ``a.relabel(sigma) == b``, or None if there is none,
    found by backtracking over colour-preserving maps, smallest class first."""
    for h in (a, b):
        _check_size(h)
    members = [h.edge_sets() for h in (a, b)]
    colours = (a.n, a.r, a.m) == (b.n, b.r, b.m) and _refined_colours(members, a.n)
    if not colours:
        return None
    (ca, cb), n = colours, a.n
    order = sorted(range(n), key=lambda u: (ca.count(ca[u]), ca[u]))
    inc = [[[e for e in h.edges if e >> v & 1] for v in range(n)] for h in (a, b)]
    b_edges, sigma, mem_a = set(b.edges), [0] * n, dict(zip(a.edges, members[0]))

    def extend(d: int, done_a: int, done_b: int) -> bool:
        if d == n:
            return a.relabel(sigma) == b
        u = order[d]
        done_a |= 1 << u
        closed = [e for e in inc[0][u] if not e & ~done_a]
        for w in [w for w in range(n) if cb[w] == ca[u] and not done_b >> w & 1]:
            sigma[u] = w
            # as many edges close at w as at u, each closed at u landing on an edge of b
            if (sum(not f & ~(done_b | 1 << w) for f in inc[1][w]) == len(closed)
                    and all(mask_of(sigma[v] for v in mem_a[e]) in b_edges for e in closed)
                    and extend(d + 1, done_a, done_b | 1 << w)):
                return True
        return False

    return tuple(sigma) if extend(0, 0, 0) else None


def are_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    return isomorphism(a, b) is not None

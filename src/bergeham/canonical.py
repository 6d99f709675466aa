"""Exact hypergraph canonicalization by a bounded min-lex labeling search.

The canonical code of a hypergraph is the lexicographically minimal
sorted edge-bitmask list over all ``n!`` vertex relabelings, so two
hypergraphs on the same ``(n, r)`` have equal codes exactly when they are
isomorphic.  An exact search is affordable at the instance sizes this
library targets (n <= 10) and removes the correctness risk a refinement
heuristic would carry.

The search gives labels to vertices one at a time in one fixed sequence:
``n-1, n-2, .., 0`` when ``2r >= n`` and ``0, 1, .., n-1`` otherwise.
Either way the labels still free at a node form one contiguous range
starting at ``lo`` (``lo = 0`` descending, ``lo`` = labels given so far
ascending), disjoint from the labels already given.

*The bound.*  Let an edge's given labels form the mask ``P`` and let
``k`` of its members be unlabeled.  They will get ``k`` distinct free
labels ``S``, and ``mask(S) >= ((1 << k) - 1) << lo``: the largest label
of ``S`` is at least ``lo + k - 1``, and if it is larger, ``mask(S)``
already exceeds the whole right-hand side; otherwise drop it and repeat
with ``k - 1``.  ``P`` is disjoint from every free label, so the edge's
final mask is at least ``P | ((1 << k) - 1) << lo``.

*Why sorted bounds order the code.*  If every edge's bound is at most its
final mask, the j-th smallest bound is at most the j-th smallest final
mask for every j (order statistics are monotone), so the sorted bound
vector is elementwise, hence lexicographically, at most the final code of
every labeling below the node.  A node whose sorted bounds are not below
the incumbent therefore holds no labeling with a smaller code and is cut.
Once every vertex is labeled the bounds are the masks, so the sorted
bound vector is the code itself.

*The incumbent* starts as ``h.edges``, the code of the identity labeling.
``canonical_form`` lowers it at every leaf it reaches, so it ends at the
minimum; ``is_canonical`` stops at the first leaf below it.

*The direction rule.*  Both directions give valid bounds; they differ in
how early the bounds separate the edges.  Labeling from the top fixes
the high bits, which integer order reads first, and pays off when edges
hold most vertices.  When ``r`` is small most edges miss the labeled
vertices, whose bounds descending labels leave at ``(1 << r) - 1``, while
ascending labels lift them above every label given.  On random (9, 2)
and (9, 7) graphs the wrong direction visits about 50 to 100 times as
many nodes.

*Transposition pruning.*  If exchanging two unlabeled vertices ``u`` and
``w`` is an automorphism ``s`` of ``h``, then ``p -> p o s`` maps the
labelings that give the next label to ``u`` onto those that give it to
``w``: ``s`` fixes every labeled vertex, and ``h.relabel(p o s)`` equals
``h.relabel(p)`` because ``s`` maps edges onto edges.  Both subtrees hold
the same codes whichever label is being given, so only one is searched;
this collapses the factorial plateau of highly symmetric graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph

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


def _min_code(h: Hypergraph, improve: bool) -> list[int]:
    """The least code of ``h`` below ``h.edges``, or ``h.edges`` if none is.

    With ``improve`` false the search stops at the first labeling whose
    code is below ``h.edges`` by raising ``_SmallerLabelingFound``.
    """
    n, edges = h.n, h.edges
    best = list(edges)
    descending = 2 * h.r >= n
    labels = range(n - 1, -1, -1) if descending else range(n)
    # fill[d][k]: the k least labels still free after depth d
    fill = [[((1 << k) - 1) << (0 if descending else d + 1) for k in range(h.r + 1)] for d in range(n)]
    incident = [[i for i, e in enumerate(edges) if e >> u & 1] for u in range(n)]
    auto = _swap_automorphism_table(h)
    part = [0] * len(edges)  # the labels given to each edge's members so far
    free = [h.r] * len(edges)  # each edge's members still unlabeled

    def walk(d: int, unlabeled: list[int]) -> None:
        nonlocal best
        bit, low = 1 << labels[d], fill[d]
        tried: list[int] = []
        for u in unlabeled:
            if any(auto[w][u] for w in tried):
                continue
            tried.append(u)
            for i in incident[u]:
                part[i] |= bit
                free[i] -= 1
            bound = sorted([p | low[k] for p, k in zip(part, free)])
            if bound < best:
                if d + 1 < n:
                    walk(d + 1, [w for w in unlabeled if w != u])
                elif improve:
                    best = bound
                else:
                    raise _SmallerLabelingFound
            for i in incident[u]:
                part[i] ^= bit
                free[i] += 1

    walk(0, list(range(n)))
    return best


def _check_size(h: Hypergraph) -> None:
    if h.n > MAX_EXACT_VERTICES:
        raise ValueError(
            f"exact canonicalization only supports n <= {MAX_EXACT_VERTICES}, got n={h.n}"
        )


def canonical_form(h: Hypergraph) -> CanonicalForm:
    """Minimal encoding of ``h`` over all vertex relabelings (exact)."""
    _check_size(h)
    return CanonicalForm(n=h.n, r=h.r, code=tuple(_min_code(h, improve=True)))


def is_canonical(h: Hypergraph) -> bool:
    """True when ``h``'s own edge list already is its canonical code.

    Tells whether ``h`` is the min-lex representative of its isomorphism
    class, as an orderly generator would need, without storing a seen-set;
    cheaper than ``canonical_form`` because the search can stop at the
    first strictly smaller relabeling.
    """
    _check_size(h)
    try:
        _min_code(h, improve=False)
    except _SmallerLabelingFound:
        return False
    return True


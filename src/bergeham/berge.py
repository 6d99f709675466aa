"""Exact decision procedures for Hamiltonian Berge cycles and paths.

A Berge cycle of length ``l`` is a list of ``l`` distinct vertices and
``l`` distinct edges with ``v_i in e_i & e_{i+1}`` cyclically; a Berge
path drops one edge.  Equivalently, the vertex sequence is a Hamiltonian
cycle (path) of the shadow graph together with a system of distinct
representative edges covering the consecutive pairs.

One depth-first core decides both.  It extends a vertex order while
keeping the representative system as an incremental bipartite matching
(consecutive pair -> covering edge), undone from a trail on backtrack,
and prunes a branch as soon as the matching cannot be augmented, i.e. on
a Hall violation.  Only where the order may end, and one closing slot,
tell the cases apart: a cycle starts at vertex 0, ends above order[1]
and closes the pair (last, 0); a path without endpoints ends above its
start; a path with endpoints (a, b) starts at a and keeps b for last.

A negative answer carries a reason.  Whether the shadow graph itself is
Hamiltonian is settled by the same decider run on the shadow 2-graph,
where a Berge Hamiltonian cycle or path is exactly an ordinary one.

Everything is deterministic.  Candidates are tried in ascending id, and
a new slot takes its lowest-index covering edge that no slot owns, or
else the first augmenting path through its owned edges in ascending
index, so a given hypergraph always yields the same certificate.  By
Berge's lemma a slot can be added exactly when an augmenting path
exists, whichever matching is current, so this edge rule decides which
edges a certificate lists but never which orders the search tries.
``BergeDecider`` binds the expensive per-universe tables once so that
enumeration campaigns can decide millions of graphs that share an edge
universe; the public ``find_*`` functions wrap it for a single
hypergraph.

``decide`` answers one kind of question for many graphs of a universe
at once.  It searches the first undecided graph of a slice; when that
finds a vertex order, every undecided graph of the slice that passes
Hall's condition on the order's slots (each set S of slots meets at
least |S| of the graph's edges) has a Berge Hamiltonian cycle (path)
along that order, and is positive.  Before it searches, a slice tries
the orders that certified a graph in the decider's last slice of the
same kind, in the order they were found.  That memory is kept per kind:
a path order's slots pass the copies of K_{n-1}^r + e, which have no
Hamiltonian cycle.  Negatives come only from the exhaustive search, so
answers are exact and depend neither on which graphs share a batch nor
on which orders the decider remembers.  Hall's condition is one table
of constraints per order, over the unions of overlap-connected sets of
slots, kept in a bounded cache (``_hall_sets``) that answers do not
depend on.  ``certificate``, through which ``decide`` and ``find_*``
search, decides one graph, so certificates and ``SearchStats`` depend on
the graph alone.  ``certificates`` gives many graphs those same
certificates as arrays, one fixed-width row per graph: one lockstep numpy
pass follows the search's first choices for every row at once and writes
its rows in place, and a row that needs anything more (backtracking, a
longer augmenting path, or a negative answer) goes through
``certificate``, whose answer is written into the row.

The checker reads only the certificates, the edge universe and chosen
masks.  ``verify_certificate_rows`` checks the rows of ``certificates`` as
they are: ``_accepted`` accepts the valid spanning rows in one numpy pass,
and every other row goes to a per-row explainer, which alone checks the
one certificate of ``verify_certificate``.

The batched layers (``decide``, ``certificates``, ``verify_certificate_rows``)
hold chosen masks in one format, ``chosen_array``'s ``uint64`` rows, so they
take universes of at most 64 edges; the one-graph entry points
(``certificate``, ``find_*``, ``verify_certificate``) take any width.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .hypergraph import Hypergraph, chosen_array, chosen_index, members_of

REASON_INSUFFICIENT_EDGES = "insufficient_edges"
REASON_SHADOW_NOT_HAMILTONIAN = "shadow_not_hamiltonian"
REASON_EXHAUSTED = "search_exhausted"

DECIDE_SLICE = 4096  # graphs per Hall-filter slice in ``BergeDecider.decide``, for any batch size


@dataclass(frozen=True)
class BergeCertificate:
    """Witness for a Berge path or cycle.

    ``vertices`` is the traversal order; ``edges`` are vertex bitmasks.
    For a cycle of length l: ``vertices[i] in edges[i] & edges[i+1]`` for
    i < l-1 and ``vertices[l-1] in edges[l-1] & edges[0]``.  For a path:
    ``{vertices[i], vertices[i+1]} <= edges[i]``.  The certificate is
    Hamiltonian for a host graph when it spans all its vertices.
    """

    kind: str                    # "path" | "cycle"
    vertices: tuple[int, ...]
    edges: tuple[int, ...]


@dataclass
class SearchStats:
    nodes: int = 0        # order extensions attempted
    augments: int = 0     # matching (re)computations


@dataclass(frozen=True)
class SearchResult:
    certificate: BergeCertificate | None
    reason: str | None           # set when no certificate exists
    stats: SearchStats = field(compare=False, default_factory=SearchStats)

    def __bool__(self) -> bool:
        return self.certificate is not None


def verify_certificate(h: Hypergraph, cert: BergeCertificate) -> list[str]:
    """Check a certificate against its host; returns [] iff it is valid."""
    return _explain(h.n, h.edges, (1 << h.m) - 1, cert)


def verify_certificate_rows(n: int, universe, chosen, kind: str, vertices, edges) -> list[list[str]]:
    """The problems of each certificate row, [] iff it is valid: the ``kind``
    certificate with vertex order ``vertices[i]`` and edge masks ``edges[i]``
    (a ``(k, n)`` integer and a ``(k, w)`` ``uint64`` array, as
    ``BergeDecider.certificates`` returns them) on the n-vertex graph of the
    ``universe`` edges (ascending masks) that ``chosen[i]`` selects.  The masks
    go through ``chosen_array``, so a bad one raises and so does a universe of
    more than 64 edges; ``_id_rows`` checks the ids.  The rows that
    ``_accepted`` does not accept go to ``_explain`` one by one, as given."""
    chosen = chosen_array(chosen, len(universe))
    vertices, vertex_ids, vertex_fit = _id_rows(vertices, np.intp)
    edges, edge_ids, edge_fit = _id_rows(edges, np.uint64)
    ok = _accepted(n, universe, chosen, kind, vertices, edges) & vertex_fit & edge_fit
    out = [[] for _ in range(len(ok))]
    for i in np.flatnonzero(~ok).tolist():
        cert = BergeCertificate(kind, tuple(vertex_ids[i].tolist()), tuple(edge_ids[i].tolist()))
        out[i] = _explain(n, universe, int(chosen[i]), cert)
    return out


def _id_rows(rows, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of certificate ids as a ``dtype`` array (0s in a row it cannot hold),
    as given, and whether it holds each row; a non-integer id raises ``TypeError``."""
    given, info = np.asarray(rows), np.iinfo(dtype)
    if given.dtype.kind in "iu" and info.min <= int(given.min(initial=0)) and int(given.max(initial=0)) <= info.max:
        return given.astype(dtype, copy=False), given, np.ones(len(given), dtype=bool)
    given = given.astype(object)
    if bad := [v for v in given.flat if not isinstance(v, (int, np.integer))]:
        raise TypeError(f"a certificate id is not an integer: {bad[0]!r}")
    fit = ((given >= info.min) & (given <= info.max)).all(axis=1)
    return np.where(fit[:, None], given, 0).astype(dtype), given, fit


def _accepted(n: int, universe, chosen, kind: str, vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Which certificate rows are valid and spanning, in one numpy pass: the
    check of ``verify_certificate_rows``.

    For n <= 63, a non-empty universe and rows of n vertices and n (cycle)
    or n - 1 (path) edges, a row is accepted when its vertices sort to
    ``range(n)``, its edges are distinct and chosen (found by
    ``searchsorted``), and its vertices lie in their incident edges.  Every
    row is rejected otherwise.  ``chosen`` is ``chosen_array``'s ``(k,)``
    array, ``vertices`` a ``(k, n)`` integer array, ``edges`` a ``(k, w)``
    ``uint64`` array of vertex masks."""
    k = len(vertices)
    width = n if kind == "cycle" else n - 1
    if not (kind in ("cycle", "path") and 2 <= n <= 63 and 0 < len(universe)
            and vertices.shape == (k, n) and edges.shape == (k, width)):
        return np.zeros(k, dtype=bool)
    ok = (np.sort(vertices, axis=1) == np.arange(n)).all(axis=1)
    ok &= (np.diff(np.sort(edges, axis=1), axis=1) != 0).all(axis=1)
    known = np.array(universe, dtype=np.uint64)
    at = np.searchsorted(known, edges)
    bits = chosen[:, None] >> at.astype(np.uint64)
    ok &= ((known[np.minimum(at, len(known) - 1)] == edges) & (bits & 1 == 1)).all(axis=1)
    vs = vertices.astype(np.uint64)  # a negative vertex: a shift past the edge, in a row already rejected
    if kind == "cycle":  # vertex i lies in edges i and i+1, cyclically
        inc = (edges >> vs) & (np.roll(edges, -1, axis=1) >> vs)
    else:  # edge i holds vertices i and i+1
        inc = (edges >> vs[:, :-1]) & (edges >> vs[:, 1:])
    return ok & (inc & 1 == 1).all(axis=1)


def _explain(n: int, universe, chosen: int, cert: BergeCertificate) -> list[str]:
    """One certificate's problems, in order, in Python ints: the check of
    ``verify_certificate`` and of every row the batch pass does not accept."""
    bad: list[str] = []
    if cert.kind not in ("path", "cycle"):
        return [f"unknown certificate kind {cert.kind!r}"]
    vs, es = cert.vertices, cert.edges
    if len(set(vs)) != len(vs):
        bad.append("repeated vertex in vertex sequence")
    if any(not 0 <= v < n for v in vs):
        bad.append("vertex out of range")
    if len(set(es)) != len(es):
        bad.append("repeated edge in edge sequence")
    for e in es:
        i = bisect_left(universe, e)
        if not (i < len(universe) and universe[i] == e and chosen >> i & 1):
            bad.append(f"edge {sorted(members_of(e))} not in the hypergraph")
    if cert.kind == "cycle":
        if len(vs) < 2:
            bad.append("cycle needs at least 2 vertices")
        if len(es) != len(vs):
            bad.append(f"cycle needs as many edges as vertices, got {len(es)} for {len(vs)}")
        elif not bad:  # vertex i lies in edges i and i+1, cyclically
            bad += [f"vertex {v} not in both its incident cycle edges"
                    for v, e, f in zip(vs, es, es[1:] + es[:1]) if not (e >> v & 1 and f >> v & 1)]
    else:
        if len(vs) < 1:
            bad.append("path needs at least 1 vertex")
        if len(es) != len(vs) - 1:
            bad.append(f"path needs one fewer edge than vertices, got {len(es)} for {len(vs)}")
        elif not bad:
            bad += [f"edge {i} does not contain the pair ({a}, {b})"
                    for i, (a, b, e) in enumerate(zip(vs, vs[1:], es)) if not (e >> a & 1 and e >> b & 1)]
    return bad


class BergeDecider:
    """Hamiltonicity decisions over a fixed (n, edge-universe) context.

    A graph is identified by a bitmask over universe indices, so one
    decider serves an entire enumeration level.
    """

    def __init__(self, n: int, universe: tuple[int, ...]):
        self.n = n
        self.universe = tuple(universe)
        self.full_chosen = (1 << len(self.universe)) - 1
        # pair_cover[a * n + b]: universe edges containing both a and b
        self.pair_cover = pc = [0] * (n * n)
        self.vert_cover = vc = [0] * n
        for ei, em in enumerate(self.universe):
            bit = 1 << ei
            members = members_of(em)
            for a in members:
                vc[a] |= bit
            for a, b in combinations(members, 2):
                pc[a * n + b] |= bit
                pc[b * n + a] |= bit
        # search starts (first vertex, per-depth candidate masks), see _search
        self._cycle_starts = ((0, [-1] * n),)
        self._free_path_starts = tuple((s, [-1] * (n - 1) + [-2 << s]) for s in range(n))
        # kind -> slots of the orders that certified a graph in decide's last slice of that kind
        self._last_orders: dict[str, list[tuple[int, ...]]] = {}

    @classmethod
    def for_hypergraph(cls, h: Hypergraph) -> "BergeDecider":
        return cls(h.n, h.edges)

    # ----- search --------------------------------------------------------

    def _search(self, chosen: int, starts, close: bool, stats: SearchStats | None):
        """Depth-first order search shared by cycles and paths.

        Each entry of ``starts`` is ``(first, allow)``: the order begins at
        ``first`` and ``allow[i]`` masks the candidates for order[i], so
        ``allow[n-1]`` says where the order may end.  Slot i holds the pair
        (order[i], order[i+1]); with ``close`` one more slot holds the pair
        (order[-1], order[0]) and the direction rule order[1] < order[-1]
        drops mirror images.  Returns (order, slot_edges) with one universe
        index per slot, or None.
        """
        n = self.n
        pc = self.pair_cover
        everyone = (1 << n) - 1

        match_owner: dict[int, int] = {}
        owned = 0  # mask of the edges in match_owner
        slot_avail: list[int] = []
        trail: list[tuple[int, int]] = []
        order: list[int] = []
        nodes = 0
        augments = 0

        def augment(s: int, visited: list[int]) -> bool:
            """Match slot s: its lowest edge no slot owns, else the first
            augmenting path through its owned edges in ascending index."""
            nonlocal owned
            free = slot_avail[s] & ~owned
            if free:
                b = free & -free
                e = b.bit_length() - 1
                trail.append((e, -1))
                match_owner[e] = s
                owned |= b
                return True
            av = slot_avail[s] & ~visited[0]
            while av:
                b = av & -av
                av ^= b
                visited[0] |= b
                e = b.bit_length() - 1
                o = match_owner[e]
                if augment(o, visited):
                    trail.append((e, o))
                    match_owner[e] = s
                    return True
            return False

        def extend(last: int, depth: int, used: int) -> bool:
            nonlocal nodes, augments, owned
            if depth == n:
                if not close:
                    return True
                if order[1] > last:  # direction symmetry: v2 < vn
                    return False
                av = pc[last * n + order[0]] & chosen
                if not av:
                    return False
                slot_avail.append(av)
                augments += 1
                ok = augment(len(slot_avail) - 1, [0])
                slot_avail.pop()
                return ok
            cands = everyone & ~used & allow[depth]
            while cands:
                b = cands & -cands
                cands ^= b
                v = b.bit_length() - 1
                av = pc[last * n + v] & chosen  # chosen edges that hold last and v
                if not av:
                    continue
                nodes += 1
                slot_avail.append(av)
                mark = len(trail)
                augments += 1
                if augment(len(slot_avail) - 1, [0]):
                    order.append(v)
                    if extend(v, depth + 1, used | b):
                        return True
                    order.pop()
                while len(trail) > mark:
                    e, o = trail.pop()
                    if o == -1:
                        del match_owner[e]
                        owned ^= 1 << e
                    else:
                        match_owner[e] = o
                slot_avail.pop()
            return False

        found = False
        for first, allow in starts:
            order[:] = [first]
            if extend(first, 1, 1 << first):
                found = True
                break
        if stats is not None:
            stats.nodes += nodes
            stats.augments += augments
        if not found:
            return None
        slot_to_edge = [-1] * (n if close else n - 1)
        for e, s in match_owner.items():
            slot_to_edge[s] = e
        return tuple(order), tuple(slot_to_edge)

    def search_cycle(self, chosen: int, stats: SearchStats | None = None):
        """Return (order, slot_edges, closing_edge) or None.

        ``slot_edges[i]`` covers the pair (order[i], order[i+1]) and
        ``closing_edge`` covers (order[-1], order[0]); entries are
        universe indices.  Vertex 0 anchors the cycle.
        """
        n = self.n
        chosen = chosen_index(chosen, len(self.universe))
        if chosen.bit_count() < n:
            return None
        vc = self.vert_cover
        for v in range(n):
            # a cycle holds every vertex in two distinct edges
            if (vc[v] & chosen).bit_count() < 2:
                return None
        hit = self._search(chosen, self._cycle_starts, True, stats)
        if hit is None:
            return None
        order, slots = hit
        return order, slots[:-1], slots[-1]

    def cycle_exists(self, chosen: int) -> bool:
        """Whether the graph has a Hamiltonian Berge cycle."""
        return self.search_cycle(chosen) is not None

    def search_path(self, chosen: int, endpoints: tuple[int, int] | None = None,
                    stats: SearchStats | None = None):
        """Return (order, slot_edges) or None; see ``search_cycle``.

        Without endpoints the last vertex exceeds the first, which drops
        reversed copies; with endpoints (a, b) the order runs from a to b.
        """
        n = self.n
        chosen = chosen_index(chosen, len(self.universe))
        if chosen.bit_count() < n - 1:
            return None
        vc = self.vert_cover
        low = [v for v in range(n) if (vc[v] & chosen).bit_count() < 2]
        # interior vertices sit in two distinct edges; only endpoints may have degree 1
        if any((vc[v] & chosen) == 0 for v in low):
            return None
        if endpoints is None:
            if len(low) > 2:
                return None
            starts = self._free_path_starts
        else:
            if any(v not in endpoints for v in low):
                return None
            a, b = endpoints
            starts = ((a, [~(1 << b)] * (n - 1) + [1 << b]),)
        return self._search(chosen, starts, False, stats)

    def path_exists(self, chosen: int, endpoints: tuple[int, int] | None = None) -> bool:
        """Whether the graph has a Hamiltonian Berge path (from a to b, if given)."""
        return self.search_path(chosen, endpoints) is not None

    def certificate(self, chosen: int, kind: str, endpoints: tuple[int, int] | None = None,
                    stats: SearchStats | None = None) -> BergeCertificate | None:
        """The Hamiltonian Berge cycle or path (from a to b, if ``endpoints``
        are given) that ``search_*`` finds in the graph ``chosen``, or None.
        Each new slot takes its lowest unowned covering edge, else the first
        augmenting path in ascending edge index.  Universe indices follow
        ascending mask order, so the level's decider and one over the
        graph's own edges give the same certificate and stats."""
        if kind == "cycle":
            hit = self.search_cycle(chosen, stats)
        elif kind == "path":
            hit = self.search_path(chosen, endpoints, stats)
        else:
            raise ValueError(f"kind must be 'cycle' or 'path', got {kind!r}")
        if hit is None:
            return None
        order, slots, *closing = hit
        return BergeCertificate(kind, order, tuple(self.universe[e] for e in (*closing, *slots)))

    # ----- batches -------------------------------------------------------

    def _rows(self, masks, kind: str) -> np.ndarray:
        """``masks`` as ``chosen_array``'s ``uint64`` rows, for ``decide`` and
        ``certificates``, once ``kind`` is checked."""
        if kind not in ("cycle", "path"):
            raise ValueError(f"kind must be 'cycle' or 'path', got {kind!r}")
        return chosen_array(masks, len(self.universe))

    def certificates(self, masks, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``[self.certificate(m, kind) for m in masks]`` as arrays, most rows
        in one pass: ``(found, vertices, edges)``, a ``(k,)`` bool array, the
        ``(k, n)`` ``intp`` vertex orders and the ``(k, w)`` ``uint64`` edge
        masks, with ``w = n`` for a cycle (its closing edge first, as in
        ``certificate``) and ``n - 1`` for a path.  Row i holds the vertices
        and edges of ``certificate(masks[i], kind)``, or zeros when that is
        None.

        The pass follows ``_search`` for every row at once, as long as the
        row needs no backtracking: at each depth the row takes its lowest
        unused vertex with a covering edge, and the new slot takes its
        lowest free covering edge, or else its lowest covering edge while
        that edge's owner moves on, to its own lowest free edge or else to
        its lowest edge not yet visited in this augmenting path, whose owner
        moves on in turn.  A row whose path runs out of edges is handed
        back.  That is the first branch of ``augment`` to any depth, and the
        search tries nothing before it, so a row the
        pass completes (a cycle closes its last slot the same way) holds the
        search's own certificate.  The direction rule order[1] < order[-1]
        needs no check: order[1] is the lowest vertex that shares an edge
        with vertex 0, so the closing slot (order[-1], 0) has an edge only
        when order[-1] lies above it.  Every other row, negatives included,
        goes through ``certificate``, whose answer is written into the row.
        The pass reads only ``pair_cover`` and ``universe``, so answers
        depend on the graph alone.
        """
        rows = self._rows(masks, kind)
        n, k = self.n, len(rows)
        pc = np.array(self.pair_cover, dtype=np.uint64).reshape(n, n)
        at = np.arange(k)
        order = np.zeros((k, n), dtype=np.intp)  # every order starts at vertex 0
        taken = np.zeros((k, n), dtype=bool)
        taken[:, 0] = True
        avail = np.zeros((k, n), dtype=np.uint64)  # per slot: the row's covering edges
        edge = np.zeros((k, n), dtype=np.uint64)   # per slot: its edge, as a one-bit mask
        owned = np.zeros(k, dtype=np.uint64)
        ok = rows != 0  # rows the pass still follows; the search rejects an edgeless row, even at n = 1

        def place(s: int, av: np.ndarray) -> None:
            ok[av == 0] = False
            free = av & ~owned
            low = np.where(free != 0, free, av)
            low &= -low
            move = np.flatnonzero(ok & (free == 0))
            # per moving row: the slot that takes the edge ``want`` from its owner, and the visited edges
            slot, want, seen = np.full(move.size, s), low[move], low[move]
            while move.size:  # the owner moves on to its lowest free edge, else its lowest unvisited one
                o = (edge[move, :s] == want[:, None]).argmax(axis=1)
                edge[move, slot] = want
                alt = avail[move, o] & ~owned[move]
                settled = alt != 0
                alt = np.where(settled, alt, avail[move, o] & ~seen)
                alt &= -alt
                ok[move[alt == 0]] = False  # the first branch dies: the search backtracks
                edge[move[settled], o[settled]] = alt[settled]
                owned[move[settled]] |= alt[settled]
                go = ~settled & (alt != 0)
                move, slot, want, seen = move[go], o[go], alt[go], (seen | alt)[go]
            avail[:, s] = av
            edge[:, s] = low
            owned[:] |= low

        for depth in range(1, n):
            cover = pc[order[:, depth - 1]] & rows[:, None]
            cand = (cover != 0) & ~taken
            v = cand.argmax(axis=1)
            ok &= cand[at, v]
            order[:, depth] = v
            taken[at, v] = True
            place(depth - 1, cover[at, v])
        if kind == "cycle":
            place(n - 1, pc[order[:, -1], 0] & rows)
            edge = np.roll(edge, 1, axis=1)  # the closing slot's edge comes first
        else:
            edge = edge[:, :-1]
        order[~ok] = 0
        edges = np.zeros(edge.shape, dtype=np.uint64)
        edges[ok] = np.array(self.universe, dtype=np.uint64)[np.bitwise_count(edge[ok] - np.uint64(1))]
        for i in np.flatnonzero(~ok).tolist():
            cert = self.certificate(int(rows[i]), kind)
            if cert is not None:
                ok[i] = True
                order[i], edges[i] = cert.vertices, cert.edges
        return ok, order, edges

    def decide(self, masks, kind: str) -> np.ndarray:
        """Whether each graph has a Hamiltonian Berge cycle (``kind="cycle"``)
        or path without endpoints (``kind="path"``), as a boolean array.

        ``masks`` holds chosen-universe masks.  They are decided in slices
        of at most ``DECIDE_SLICE``.  A slice first runs ``_hall`` on the
        slots of each order that certified a graph in the last slice of the
        same ``kind``, in the order they were found, and marks the rows that
        pass positive.  Then it goes in rounds: the first undecided graph
        goes through ``certificate``, and when that finds an order, every
        undecided graph that passes ``_hall`` on the order's slots is
        positive too.  The orders that certified a row are remembered for
        the next slice of that kind, and only they.  A negative answer
        always comes from the search, and a slice's answers depend on that
        slice alone; its work depends on the slice before.
        """
        close = kind == "cycle"
        masks = self._rows(masks, kind)
        out = np.zeros(len(masks), dtype=bool)
        for lo in range(0, len(masks), DECIDE_SLICE):
            part = masks[lo:lo + DECIDE_SLICE]
            rem = np.arange(len(part))  # undecided rows of the slice
            used = []  # slots of the orders that certify a row of this slice
            for slots in self._last_orders.get(kind, ()):
                if not len(rem):
                    break
                ok = _hall(part[rem], slots, len(self.universe))
                if ok.any():
                    used.append(slots)
                    out[lo + rem[ok]] = True
                    rem = rem[~ok]
            while len(rem):
                cert = self.certificate(int(part[rem[0]]), kind)
                if cert is None:
                    rem = rem[1:]
                    continue
                order = cert.vertices
                pairs = zip(order, order[1:] + order[:1] if close else order[1:])
                slots = tuple(self.pair_cover[a * self.n + b] for a, b in pairs)
                used.append(slots)
                ok = _hall(part[rem], slots, len(self.universe))
                out[lo + rem[ok]] = True
                rem = rem[~ok]
            self._last_orders[kind] = used
        return out


@lru_cache(maxsize=1 << 10)
def _hall_sets(slots: tuple[int, ...], width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hall's condition on ``slots`` as read-only arrays ``(unions, need, slack)``
    over a ``width``-edge universe, cached per order; see ``_hall``.

    Two slots overlap when their masks meet.  The unions kept are those of
    the overlap-connected sets of slots: the single slots, closed under
    adding a slot that meets the union, and need(U) is the number of slots
    inside U.  That suffices.  A set S of slots splits into its overlap
    components; their unions are disjoint, so for every row |N(S)| is the
    sum over the components, and each component's union is kept with a
    need of at least that component's size.  Where any two pairs of
    vertices lie in a common edge (r >= 4) every set is connected and every
    union is kept; at r = 3 only the arcs of the order are, and at r = 2
    only the single slots.
    """
    unions = list(dict.fromkeys(slots))
    seen = set(unions)
    for u in unions:  # grows while it is walked, until no slot meets a union without lying inside it
        for s in slots:
            if s & u and (v := u | s) not in seen:
                seen.add(v)
                unions.append(v)
    unions = np.array(unions, dtype=np.uint64)
    q = ((np.array(slots, dtype=np.uint64) & ~unions[:, None]) == 0).sum(axis=1, dtype=np.uint8)
    table = unions, q, q + width - np.bitwise_count(unions)
    for a in table:
        a.flags.writeable = False
    return table


def _hall(rows: np.ndarray, slots: tuple[int, ...], width: int) -> np.ndarray:
    """Which rows can give every slot a distinct edge of their own.

    ``rows`` are ``uint64`` chosen-universe masks below ``1 << width`` and
    ``slots[s]`` masks the universe edges that fit slot s.  By Hall's
    theorem a row can exactly when every non-empty set S of slots meets at
    least |S| of its edges.  Of the sets with one union U the largest, all
    slots inside U, asks the most, so ``_hall_sets`` keeps one pair (U,
    need(U) = that count) per union, and only for the unions of
    overlap-connected sets: S splits into overlap components with disjoint
    unions, so S meets the sum of what its components meet, and each
    component's own pair already asks for at least its size.  No kept pair
    follows from another: for U2 strictly inside U, the slots inside U2
    are inside U but not all of them (their union is U2), so need(U2) <
    need(U).  A row with p edges meets U in at least p - width + |U|, so
    it passes (U, need) when slack = need + width - |U| <= p: a call drops
    the pairs with slack at most its rows' smallest popcount and tests the
    rest in one ``(unions × rows)`` broadcast popcount over at most
    ``DECIDE_SLICE`` rows, reduced along the unions (contiguous rows).
    """
    unions, need, slack = _hall_sets(slots, width)
    live = slack > np.bitwise_count(rows).min(initial=width)
    return (np.bitwise_count(unions[live, None] & rows) >= need[live, None]).all(axis=0)


def _find(h: Hypergraph, kind: str, endpoints=None) -> SearchResult:
    """The body of ``find_*``: the certificate of ``h``, or the first reason
    that applies for why none exists.

    A Berge cycle or path of a 2-graph is an ordinary one, so running the
    decider on the shadow 2-graph tells whether the shadow is Hamiltonian.
    """
    stats = SearchStats()
    d = BergeDecider.for_hypergraph(h)
    cert = d.certificate(d.full_chosen, kind, endpoints, stats)
    reason = None
    if cert is None and h.m < (h.n if kind == "cycle" else h.n - 1):
        reason = REASON_INSUFFICIENT_EDGES
    elif cert is None:
        shadow = BergeDecider.for_hypergraph(Hypergraph(h.n, 2, h.shadow_pairs()))
        found = shadow.certificate(shadow.full_chosen, kind, endpoints) is not None
        reason = REASON_EXHAUSTED if found else REASON_SHADOW_NOT_HAMILTONIAN
    return SearchResult(cert, reason, stats)


def find_hamiltonian_berge_cycle(h: Hypergraph) -> SearchResult:
    """Find a Hamiltonian Berge cycle or certify that none exists.

    On failure the result's ``reason`` states why the answer is negative:
    fewer edges than vertices, a non-Hamiltonian shadow graph, or plain
    exhaustion of the order/matching search.
    """
    if h.n < 3:
        raise ValueError(f"Hamiltonian Berge cycles need n >= 3, got n={h.n}")
    return _find(h, "cycle")


def find_hamiltonian_berge_path(h: Hypergraph, endpoints: tuple[int, int] | None = None) -> SearchResult:
    """Find a Hamiltonian Berge path, optionally with prescribed endpoints."""
    if h.n < 2:
        raise ValueError(f"Hamiltonian Berge paths need n >= 2, got n={h.n}")
    if endpoints is not None:
        a, b = endpoints
        if a == b:
            raise ValueError("endpoints must be distinct")
        if not (0 <= a < h.n and 0 <= b < h.n):
            raise ValueError(f"endpoints {endpoints} out of range [0, {h.n})")
    return _find(h, "path", endpoints)


def is_hamiltonian_connected(h: Hypergraph) -> bool:
    """True when a Hamiltonian Berge path joins every vertex pair."""
    if h.n < 2:
        raise ValueError(f"needs n >= 2, got n={h.n}")
    d = BergeDecider.for_hypergraph(h)
    return all(
        d.path_exists(d.full_chosen, (a, b)) for a, b in combinations(range(h.n), 2)
    )


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

Everything is deterministic: candidates are tried in ascending id, edges
in ascending universe index, so a given hypergraph always yields the
same certificate.  ``BergeDecider`` binds the expensive per-universe
tables once so that enumeration campaigns can decide millions of graphs
that share an edge universe; the public ``find_*`` functions wrap it for
a single hypergraph.

``decide`` answers one kind of question for many graphs of a universe
at once.  It searches the first undecided graph of a slice; when that
finds a vertex order, every undecided graph of the slice that passes
Hall's condition on the order's slots (each set S of slots meets at
least |S| of the graph's edges) has a Berge Hamiltonian cycle (path)
along that order, and is positive.  Negatives come only from the
exhaustive search, so answers are exact and do not depend on which
graphs share a batch.  ``search_*``, ``*_certificate`` and ``find_*``
decide one graph, so certificates and ``SearchStats`` depend on the
graph alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .hypergraph import Hypergraph, members_of

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
    seconds: float = 0.0


@dataclass(frozen=True)
class SearchResult:
    certificate: BergeCertificate | None
    reason: str | None           # set when no certificate exists
    stats: SearchStats = field(compare=False, default_factory=SearchStats)

    def __bool__(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True)
class RotationResult:
    cycle: BergeCertificate | None
    failed_case: str | None      # first inapplicable transformation, when cycle is None
    steps: tuple[str, ...] = ()  # transformations applied, in order

    def __bool__(self) -> bool:
        return self.cycle is not None


def verify_certificate(h: Hypergraph, cert: BergeCertificate) -> list[str]:
    """Check a certificate against its host; returns [] iff it is valid."""
    bad: list[str] = []
    if cert.kind not in ("path", "cycle"):
        return [f"unknown certificate kind {cert.kind!r}"]
    vs = cert.vertices
    es = cert.edges
    if len(set(vs)) != len(vs):
        bad.append("repeated vertex in vertex sequence")
    if any(not 0 <= v < h.n for v in vs):
        bad.append("vertex out of range")
    if len(set(es)) != len(es):
        bad.append("repeated edge in edge sequence")
    host = set(h.edges)
    for e in es:
        if e not in host:
            bad.append(f"edge {sorted(members_of(e))} not in the hypergraph")
    if cert.kind == "cycle":
        if len(vs) < 2:
            bad.append("cycle needs at least 2 vertices")
        if len(es) != len(vs):
            bad.append(f"cycle needs as many edges as vertices, got {len(es)} for {len(vs)}")
        elif not bad:
            l = len(vs)
            for i in range(l - 1):
                if not ((es[i] >> vs[i]) & 1 and (es[i + 1] >> vs[i]) & 1):
                    bad.append(f"vertex {vs[i]} not in both its incident cycle edges")
            if not ((es[l - 1] >> vs[l - 1]) & 1 and (es[0] >> vs[l - 1]) & 1):
                bad.append(f"vertex {vs[l - 1]} not in both its incident cycle edges")
    else:
        if len(vs) < 1:
            bad.append("path needs at least 1 vertex")
        if len(es) != len(vs) - 1:
            bad.append(f"path needs one fewer edge than vertices, got {len(es)} for {len(vs)}")
        elif not bad:
            for i in range(len(vs) - 1):
                if not ((es[i] >> vs[i]) & 1 and (es[i] >> vs[i + 1]) & 1):
                    bad.append(f"edge {i} does not contain the pair ({vs[i]}, {vs[i + 1]})")
    return bad


@lru_cache(maxsize=1 << 14)
def _edge_cover_slots(n: int, em: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """An edge's members and the ``pair_cover`` indices a*n+b and b*n+a of its member pairs."""
    members = members_of(em)
    return members, tuple(i for a, b in combinations(members, 2) for i in (a * n + b, b * n + a))


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
            members, pairs = _edge_cover_slots(n, em)
            for a in members:
                vc[a] |= bit
            for p in pairs:
                pc[p] |= bit
        # search starts (first vertex, per-depth candidate masks), see _search
        self._cycle_starts = ((0, [-1] * n),)
        self._free_path_starts = tuple((s, [-1] * (n - 1) + [-2 << s]) for s in range(n))

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
        nbr = [0] * n  # shadow graph of the chosen edges
        for a in range(n):
            base = a * n
            row = 0
            for b in range(a + 1, n):
                if pc[base + b] & chosen:
                    row |= 1 << b
                    nbr[b] |= 1 << a
            nbr[a] |= row
        if close:
            for v in range(n):
                if nbr[v].bit_count() < 2:
                    return None

        match_owner: dict[int, int] = {}
        slot_avail: list[int] = []
        trail: list[tuple[int, int]] = []
        order: list[int] = []
        nodes = 0
        augments = 0

        def augment(s: int, visited: list[int]) -> bool:
            av = slot_avail[s] & ~visited[0]
            while av:
                b = av & -av
                av ^= b
                visited[0] |= b
                e = b.bit_length() - 1
                o = match_owner.get(e, -1)
                if o == -1 or augment(o, visited):
                    trail.append((e, o))
                    match_owner[e] = s
                    return True
            return False

        def extend(last: int, depth: int, used: int) -> bool:
            nonlocal nodes, augments
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
            cands = nbr[last] & ~used & allow[depth]
            while cands:
                b = cands & -cands
                cands ^= b
                v = b.bit_length() - 1
                nodes += 1
                slot_avail.append(pc[last * n + v] & chosen)
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

    # ----- batches -------------------------------------------------------

    def decide(self, masks, kind: str) -> np.ndarray:
        """Whether each graph has a Hamiltonian Berge cycle (``kind="cycle"``)
        or path without endpoints (``kind="path"``), as a boolean array.

        ``masks`` holds chosen-universe masks.  They are decided in slices
        of at most ``DECIDE_SLICE``, each in rounds: the first undecided
        graph of the slice goes through ``search_*``, and when that finds an
        order, every undecided graph that passes ``_hall`` on the order's
        slots is positive too.  A negative answer always comes from the
        search, and a slice's answers and work depend on that slice alone.
        Universes of more than 64 edges raise ``ValueError``, since masks
        are held as ``uint64``.
        """
        if kind not in ("cycle", "path"):
            raise ValueError(f"kind must be 'cycle' or 'path', got {kind!r}")
        if len(self.universe) > 64:
            raise ValueError(f"decide needs at most 64 universe edges, got {len(self.universe)}")
        close = kind == "cycle"
        search = self.search_cycle if close else self.search_path
        masks = np.asarray(masks, dtype=np.uint64)
        out = np.zeros(len(masks), dtype=bool)
        for lo in range(0, len(masks), DECIDE_SLICE):
            part = masks[lo:lo + DECIDE_SLICE]
            rem = np.arange(len(part))  # undecided rows of the slice
            while len(rem):
                hit = search(int(part[rem[0]]))
                if hit is None:
                    rem = rem[1:]
                    continue
                order = hit[0]
                pairs = zip(order, order[1:] + order[:1] if close else order[1:])
                slots = np.array([self.pair_cover[a * self.n + b] for a, b in pairs], dtype=np.uint64)
                ok = _hall(part[rem], slots)
                out[lo + rem[ok]] = True
                rem = rem[~ok]
        return out

    # ----- certificates --------------------------------------------------

    def cycle_certificate(self, chosen: int, stats: SearchStats | None = None):
        hit = self.search_cycle(chosen, stats)
        if hit is None:
            return None
        order, slot_edges, closing = hit
        u = self.universe
        return BergeCertificate(
            kind="cycle",
            vertices=order,
            edges=(u[closing],) + tuple(u[e] for e in slot_edges),
        )

    def path_certificate(self, chosen: int, endpoints=None, stats: SearchStats | None = None):
        hit = self.search_path(chosen, endpoints, stats)
        if hit is None:
            return None
        order, slot_edges = hit
        u = self.universe
        return BergeCertificate(
            kind="path",
            vertices=order,
            edges=tuple(u[e] for e in slot_edges),
        )


def _hall(rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Which rows can give every slot a distinct edge of their own.

    ``rows`` are chosen-universe masks and ``slots[s]`` masks the universe
    edges that fit slot s.  By Hall's theorem a row can exactly when every
    non-empty set S of slots meets at least |S| of its edges.  The sets
    are walked depth-first, each with the union of its slots' masks, and a
    branch is cut once every row still standing meets so many edges that
    no set in the branch can fail it.
    """
    k = len(slots)
    ok = np.ones(len(rows), dtype=bool)
    idx = np.arange(len(rows))
    stack = [(np.uint64(0), 0, 0)]  # (union of the set's slots, set size, first slot to add)
    while stack:
        union, size, first = stack.pop()
        for s in range(first, k):
            u = union | slots[s]
            met = np.bitwise_count(rows & u)
            fail = met <= size  # the set has size + 1 slots
            if fail.any():
                ok[idx[fail]] = False
                idx, rows, met = idx[~fail], rows[~fail], met[~fail]
                if not len(idx):
                    return ok
            if met.min() < size + k - s:  # the largest set below has size + k - s slots
                stack.append((u, size + 1, s + 1))
    return ok


def _failure_reason(h: Hypergraph, kind: str, endpoints=None) -> str:
    """Why ``h`` has no Hamiltonian Berge cycle (path): the first reason that applies.

    A Berge cycle or path of a 2-graph is an ordinary one, so running the
    decider on the shadow 2-graph tells whether the shadow is Hamiltonian.
    """
    if h.m < (h.n if kind == "cycle" else h.n - 1):
        return REASON_INSUFFICIENT_EDGES
    s = BergeDecider.for_hypergraph(Hypergraph(h.n, 2, h.shadow_pairs()))
    if kind == "cycle":
        hit = s.search_cycle(s.full_chosen)
    else:
        hit = s.search_path(s.full_chosen, endpoints)
    return REASON_EXHAUSTED if hit else REASON_SHADOW_NOT_HAMILTONIAN


def find_hamiltonian_berge_cycle(h: Hypergraph) -> SearchResult:
    """Find a Hamiltonian Berge cycle or certify that none exists.

    On failure the result's ``reason`` states why the answer is negative:
    fewer edges than vertices, a non-Hamiltonian shadow graph, or plain
    exhaustion of the order/matching search.
    """
    if h.n < 3:
        raise ValueError(f"Hamiltonian Berge cycles need n >= 3, got n={h.n}")
    t0 = time.perf_counter()
    stats = SearchStats()
    d = BergeDecider.for_hypergraph(h)
    cert = d.cycle_certificate(d.full_chosen, stats)
    reason = None if cert else _failure_reason(h, "cycle")
    stats.seconds = time.perf_counter() - t0
    return SearchResult(cert, reason, stats)


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
    t0 = time.perf_counter()
    stats = SearchStats()
    d = BergeDecider.for_hypergraph(h)
    cert = d.path_certificate(d.full_chosen, endpoints, stats)
    reason = None if cert else _failure_reason(h, "path", endpoints)
    stats.seconds = time.perf_counter() - t0
    return SearchResult(cert, reason, stats)


def is_hamiltonian_connected(h: Hypergraph) -> bool:
    """True when a Hamiltonian Berge path joins every vertex pair."""
    if h.n < 2:
        raise ValueError(f"needs n >= 2, got n={h.n}")
    d = BergeDecider.for_hypergraph(h)
    return all(
        d.path_exists(d.full_chosen, (a, b)) for a, b in combinations(range(h.n), 2)
    )


# --------------------------------------------------------------------------
# Path-to-cycle rotation


def _assemble_cycle(order: list[int], slot_edges: list[int], closing: int) -> BergeCertificate:
    return BergeCertificate(kind="cycle", vertices=tuple(order), edges=(closing, *slot_edges))


def _covers(edge: int, *vertices: int) -> bool:
    for v in vertices:
        if not (edge >> v) & 1:
            return False
    return True


def rotate_path_to_cycle(h: Hypergraph, path_cert: BergeCertificate) -> RotationResult:
    """Close a Hamiltonian Berge path into a cycle by rotation transformations.

    Applies, in order: (a) re-anchoring the path so that some unused edge
    contains the first vertex (reversing, or splicing the unused edge into
    an interior slot whose edge contains the first vertex); (b) direct
    closure when that unused edge also contains the last vertex; (c) three
    cycle constructions driven by the slots containing the last vertex, by
    the consecutive pairs inside the anchored unused edge, and by a final
    double splice.  Either a verified cycle comes back, or the name of the
    first transformation whose hypothesis fails.  The transformations are
    only guaranteed to apply for (n-2)-uniform graphs on n >= 9 vertices
    with enough edges and degree slack; outside that range failures are
    reported, never improvised around.
    """
    problems = verify_certificate(h, path_cert)
    if problems:
        raise ValueError(f"input certificate rejected: {problems}")
    if path_cert.kind != "path" or len(path_cert.vertices) != h.n:
        raise ValueError("input must be a Hamiltonian Berge path of the hypergraph")

    n = h.n
    verts = list(path_cert.vertices)
    pedges = list(path_cert.edges)
    unused = sorted(set(h.edges) - set(pedges))
    steps: list[str] = []
    if not unused:
        return RotationResult(None, "no_unused_edge", tuple(steps))

    def finish(order, slot_edges, closing):
        cert = _assemble_cycle(order, slot_edges, closing)
        bad = verify_certificate(h, cert)
        if bad or len(cert.vertices) != n:
            raise RuntimeError(f"internal: rotation produced an invalid cycle: {bad}")
        return RotationResult(cert, None, tuple(steps))

    # (a) anchor an unused edge at the first vertex
    anchor = next((u for u in unused if _covers(u, verts[0])), None)
    if anchor is not None:
        steps.append("anchored_directly")
    else:
        anchor = next((u for u in unused if _covers(u, verts[-1])), None)
        if anchor is not None:
            verts.reverse()
            pedges.reverse()
            steps.append("anchored_after_reversal")
        else:
            spliced = False
            for f in unused:
                for i in range(n - 1):
                    if _covers(f, verts[i], verts[i + 1]) and _covers(pedges[i], verts[0]):
                        anchor = pedges[i]
                        pedges[i] = f
                        unused = sorted(set(unused) - {f} | {anchor})
                        steps.append("anchored_by_splice")
                        spliced = True
                        break
                if spliced:
                    break
            if not spliced:
                return RotationResult(None, "no_anchor", tuple(steps))
    ep = anchor
    v_last = verts[-1]

    # (b) direct closure
    if _covers(ep, v_last):
        steps.append("closed_directly")
        return finish(verts, pedges, ep)

    def bridge_cycle(s: int, bridge_edge: int, spliced_slot: int | None = None,
                     splice_edge: int | None = None):
        """Cycle v[0..s], v[n-1], v[n-2], .., v[s+1]; the (v[s], v[n-1])
        slot takes ``bridge_edge`` and slot ``spliced_slot`` (if any) takes
        ``splice_edge``; everything else keeps its path edge."""
        order = verts[: s + 1] + [verts[-1]] + verts[n - 2: s: -1]
        slots = []
        for t in range(s):
            slots.append(splice_edge if t == spliced_slot else pedges[t])
        slots.append(bridge_edge)
        for l in range(n - 2, s, -1):
            slots.append(splice_edge if l == spliced_slot else pedges[l])
        return order, slots

    slots_with_last = [i for i in range(n - 1) if _covers(pedges[i], v_last)]

    if slots_with_last == [n - 2]:
        # the last vertex appears in a single path slot; a second unused edge
        # through it bridges, with the anchored edge closing the cycle
        spares = [f for f in unused if f != ep and _covers(f, v_last)]
        if not spares:
            return RotationResult(None, "single_end_slot_no_spare_edge", tuple(steps))
        for f in spares:
            for s in range(n - 2):
                if _covers(ep, verts[s], verts[s + 1]) and _covers(f, verts[s], verts[s + 1]):
                    steps.append("closed_via_spare_edge")
                    order, slots = bridge_cycle(s, f)
                    return finish(order, slots, ep)
        return RotationResult(None, "no_shared_consecutive_pair", tuple(steps))

    # simple rotation: a slot that holds the last vertex and whose right
    # neighbour lies in the anchored edge
    for s in slots_with_last:
        if _covers(ep, verts[s + 1]):
            steps.append("closed_by_rotation")
            order, slots = bridge_cycle(s, pedges[s])
            return finish(order, slots, ep)

    # final double splice
    pairs_in_ep = [s for s in range(n - 1) if _covers(ep, verts[s], verts[s + 1])]
    for i in slots_with_last:
        if i == n - 2:
            continue
        usable = [
            s for s in pairs_in_ep
            if s != i and _covers(pedges[s], verts[i], verts[i + 1])
        ]
        for k in usable:
            if not _covers(pedges[i], verts[k]):
                continue
            steps.append("closed_by_double_splice")
            order, slots = bridge_cycle(k, pedges[i], spliced_slot=i, splice_edge=pedges[k])
            return finish(order, slots, ep)
    return RotationResult(None, "no_final_splice", tuple(steps))


# --------------------------------------------------------------------------
# Independent oracle


def brute_force_oracle(h: Hypergraph, kind: str) -> bool:
    """Exhaustive Hamiltonicity decision sharing nothing with the searcher.

    Tries every vertex order and, per order, backtracks over injective
    assignments of covering edges to consecutive pairs.  No degree or
    matching pruning; factorial in n, so n <= 7 only.  Exists purely to
    cross-check ``find_hamiltonian_berge_cycle`` / ``_path``.
    """
    if kind not in ("cycle", "path"):
        raise ValueError(f"kind must be 'cycle' or 'path', got {kind!r}")
    if h.n > 7:
        raise ValueError(f"oracle is factorial in n; n={h.n} > 7 rejected")
    n = h.n
    edge_sets = [frozenset(members_of(e)) for e in h.edges]

    def sdr(slots: list[frozenset], used: set, i: int) -> bool:
        if i == len(slots):
            return True
        for e in edge_sets:
            if e not in used and slots[i] <= e:
                used.add(e)
                if sdr(slots, used, i + 1):
                    return True
                used.remove(e)
        return False

    if kind == "cycle":
        if n < 3:
            raise ValueError(f"Hamiltonian Berge cycles need n >= 3, got n={h.n}")
        for perm in permutations(range(1, n)):
            order = (0,) + perm
            slots = [frozenset((order[i], order[(i + 1) % n])) for i in range(n)]
            if sdr(slots, set(), 0):
                return True
        return False
    for order in permutations(range(n)):
        slots = [frozenset((order[i], order[i + 1])) for i in range(n - 1)]
        if sdr(slots, set(), 0):
            return True
    return False

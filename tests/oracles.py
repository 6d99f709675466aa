"""Reference implementations that the tests compare the package against.

None of them runs in a campaign, the CLI or a public guarantee; each is
kept here, beside the tests that use it, as an independent second answer:

- ``brute_force_oracle`` decides Berge Hamiltonicity by trying every
  vertex order, sharing nothing with ``BergeDecider``;
- ``verify_certificate_oracle`` checks a certificate against the edge
  set of a ``Hypergraph``, rule by rule, as a second answer to
  ``berge.verify_certificate`` and to the row checker
  ``berge.verify_certificate_rows``;
- ``isomorphism`` finds an explicit vertex map by colour refinement and
  backtracking, without canonizing, and checks it edge for edge;
- ``rotate_path_to_cycle`` closes a Hamiltonian Berge path into a cycle
  by rotation transformations, or names the first one that fails;
- ``threshold_verdict`` is the verdict of ``spectral._verdicts`` for one
  estimate, on the exact integer test alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations

from bergeham import spectral
from bergeham.berge import BergeCertificate
from bergeham.canonical import _check_size
from bergeham.hypergraph import Hypergraph, mask_of, members_of
from bergeham.spectral import CERTIFIED_ABOVE, CERTIFIED_BELOW_OR_EQUAL, UNDECIDED, SpectralEstimate, _check_tol

# --------------------------------------------------------------------------
# Independent Berge oracle


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


# --------------------------------------------------------------------------
# Certificate checker over a Hypergraph


def verify_certificate_oracle(h: Hypergraph, cert: BergeCertificate) -> list[str]:
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


# --------------------------------------------------------------------------
# Isomorphism by refinement and backtracking


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


# --------------------------------------------------------------------------
# Path-to-cycle rotation


@dataclass(frozen=True)
class RotationResult:
    cycle: BergeCertificate | None
    failed_case: str | None      # first inapplicable transformation, when cycle is None
    steps: tuple[str, ...] = ()  # transformations applied, in order

    def __bool__(self) -> bool:
        return self.cycle is not None


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
    problems = verify_certificate_oracle(h, path_cert)
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
        bad = verify_certificate_oracle(h, cert)
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
# Scalar threshold verdict


def threshold_verdict(h: Hypergraph, est: SpectralEstimate, t, tol: float = 1e-9) -> str:
    """Classify lambda(h) against threshold ``t`` from a computed estimate.

    ``certified_above`` requires the exact form value at the estimate's
    vector to exceed ``t``: a sound strict inequality.
    ``certified_below_or_equal`` means the floating upper bound clears
    ``t`` within ``tol`` (exact equality cases land here).  Anything else
    is ``undecided`` and deserves exact-arithmetic follow-up.  This is
    ``_verdicts``' verdict, without the float filter in front.  It calls the
    exact test through its module, so tests can count the calls.
    """
    _check_tol(tol)
    return (CERTIFIED_ABOVE if spectral.certified_above(h, est.vector, t) else
            CERTIFIED_BELOW_OR_EQUAL if est.upper <= t + tol else UNDECIDED)

import random
from collections import Counter
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

import numpy as np
import pytest

from bergeham import berge
from bergeham.berge import (
    BergeCertificate,
    BergeDecider,
    SearchStats,
    brute_force_oracle,
    find_hamiltonian_berge_cycle,
    find_hamiltonian_berge_path,
    is_hamiltonian_connected,
    rotate_path_to_cycle,
    verify_certificate,
)
from bergeham.enumeration import LevelSpec, chosen_mask, hypergraph_at, level_masks, level_size
from bergeham.hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
    mask_of,
    universe_masks,
)
from conftest import labeled_copies, random_hypergraph


def test_verify_accepts_the_square_cycle():
    h = complete(4, 3)
    cert = BergeCertificate(
        "cycle",
        (0, 1, 2, 3),
        (mask_of({3, 0, 1}), mask_of({0, 1, 2}), mask_of({1, 2, 3}), mask_of({2, 3, 0})),
    )
    assert verify_certificate(h, cert) == []


def test_verify_flags_duplicate_edge():
    h = complete(4, 3)
    cert = BergeCertificate(
        "cycle",
        (0, 1, 2, 3),
        (mask_of({0, 1, 2}), mask_of({0, 1, 2}), mask_of({1, 2, 3}), mask_of({2, 3, 0})),
    )
    assert any("repeated edge" in v for v in verify_certificate(h, cert))


def test_verify_accepts_path_ending_at_pendant_vertex():
    h = clique_plus_pendant(6, 3)
    cert = BergeCertificate(
        "path",
        (5, 0, 1, 2, 3, 4),
        (
            mask_of({0, 1, 5}),
            mask_of({0, 1, 2}),
            mask_of({1, 2, 3}),
            mask_of({2, 3, 4}),
            mask_of({0, 3, 4}),
        ),
    )
    assert verify_certificate(h, cert) == []


def test_verify_flags_foreign_edge_and_bad_vertex():
    h = complete(4, 3)
    cert = BergeCertificate("path", (0, 1, 9), (mask_of({0, 1, 2}), mask_of({1, 2, 3})))
    problems = verify_certificate(h, cert)
    assert any("out of range" in v for v in problems)
    with pytest.raises(ValueError, match="a vertex mask is negative: -1$"):
        verify_certificate(h, BergeCertificate("path", (0, 1, 2), (-1, mask_of({1, 2, 3}))))


@pytest.mark.parametrize("r", (3, 4, 5))
def test_minimal_complete_graphs_are_hamiltonian(r):
    h = complete(r + 1, r)
    res = find_hamiltonian_berge_cycle(h)
    assert res.certificate is not None
    assert verify_certificate(h, res.certificate) == []
    assert len(res.certificate.vertices) == r + 1


def test_pendant_clique_has_no_cycle_but_a_path():
    h = clique_plus_pendant(6, 3)
    res = find_hamiltonian_berge_cycle(h)
    assert res.certificate is None and res.reason == "search_exhausted"
    pres = find_hamiltonian_berge_path(h)
    assert pres.certificate is not None
    assert verify_certificate(h, pres.certificate) == []
    assert 5 in (pres.certificate.vertices[0], pres.certificate.vertices[-1])


def test_isolated_clique_has_no_path_and_reason_is_shadow():
    h = clique_plus_isolated(6, 3)
    res = find_hamiltonian_berge_path(h)
    assert res.certificate is None and res.reason == "shadow_not_hamiltonian"
    cres = find_hamiltonian_berge_cycle(h)
    assert cres.certificate is None and cres.reason == "shadow_not_hamiltonian"


def test_too_few_edges_is_certified_without_search():
    h = Hypergraph(5, 3, [{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {0, 3, 4}])
    res = find_hamiltonian_berge_cycle(h)
    assert res.certificate is None and res.reason == "insufficient_edges"


def _oracle_path_with_endpoints(h, a, b):
    # naive: all orders from a to b, all injective covering-edge assignments
    from itertools import permutations

    edge_sets = [frozenset(v for v in range(h.n) if (e >> v) & 1) for e in h.edges]

    def sdr(slots, used, i):
        if i == len(slots):
            return True
        for e in edge_sets:
            if e not in used and slots[i] <= e:
                used.add(e)
                if sdr(slots, used, i + 1):
                    return True
                used.remove(e)
        return False

    middles = [v for v in range(h.n) if v not in (a, b)]
    for perm in permutations(middles):
        order = (a,) + perm + (b,)
        slots = [frozenset((order[i], order[i + 1])) for i in range(h.n - 1)]
        if sdr(slots, set(), 0):
            return True
    return False


def test_path_with_fixed_endpoints():
    res = find_hamiltonian_berge_path(complete(4, 3), endpoints=(0, 3))
    assert res.certificate is not None
    assert res.certificate.vertices[0] == 0 and res.certificate.vertices[-1] == 3
    assert _oracle_path_with_endpoints(complete(4, 3), 0, 3)
    with pytest.raises(ValueError):
        find_hamiltonian_berge_path(complete(4, 3), endpoints=(2, 2))
    with pytest.raises(ValueError):
        find_hamiltonian_berge_path(complete(4, 3), endpoints=(0, 4))


def test_endpoint_search_matches_naive_oracle():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(4, 6)
        r = rng.randint(3, max(3, n - 1))
        if r > n:
            continue
        h = random_hypergraph(rng, n, r)
        a, b = rng.sample(range(n), 2)
        fast = find_hamiltonian_berge_path(h, endpoints=(a, b)).certificate is not None
        assert fast == _oracle_path_with_endpoints(h, a, b)


def test_hamiltonian_connected():
    assert is_hamiltonian_connected(complete(5, 3))
    assert not is_hamiltonian_connected(clique_plus_isolated(6, 3))
    # no path joins two clique vertices: the pendant vertex must be an endpoint
    assert not is_hamiltonian_connected(clique_plus_pendant(6, 3))


def test_small_n_validation():
    with pytest.raises(ValueError):
        find_hamiltonian_berge_cycle(Hypergraph(2, 2, [{0, 1}]))
    assert find_hamiltonian_berge_path(Hypergraph(2, 2, [{0, 1}])).certificate is not None


def test_certificates_always_verify():
    rng = random.Random(5)
    found = 0
    for _ in range(200):
        n = rng.randint(4, 7)
        r = rng.randint(3, max(3, n - 1))
        if r > n:
            continue
        h = random_hypergraph(rng, n, r)
        res = find_hamiltonian_berge_cycle(h) if rng.random() < 0.5 else find_hamiltonian_berge_path(h)
        if res.certificate is not None:
            found += 1
            assert verify_certificate(h, res.certificate) == []
            assert len(res.certificate.vertices) == n
    assert found > 30


def test_monotone_under_edge_addition():
    rng = random.Random(6)
    checked = 0
    for _ in range(300):
        n = rng.randint(5, 7)
        r = rng.randint(3, n - 2)
        u = universe_masks(n, r)
        m = rng.randint(n, len(u) - 1)
        h = random_hypergraph(rng, n, r, m)
        if find_hamiltonian_berge_cycle(h).certificate is None:
            continue
        extra = rng.choice([e for e in u if e not in set(h.edges)])
        assert find_hamiltonian_berge_cycle(h.add_edge(extra)).certificate is not None
        checked += 1
    assert checked > 30


def test_oracle_matches_searcher_on_random_instances():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(5, 7)
        r = rng.randint(3, n - 2)
        h = random_hypergraph(rng, n, r)
        assert (find_hamiltonian_berge_cycle(h).certificate is not None) == brute_force_oracle(h, "cycle")
        assert (find_hamiltonian_berge_path(h).certificate is not None) == brute_force_oracle(h, "path")


def test_negative_reasons_match_the_shadow_oracle():
    # every 3-graph on 5 vertices: a negative answer blames the shadow graph
    # exactly when the shadow 2-graph has no Hamiltonian cycle (path)
    u = universe_masks(5, 3)
    seen = {"cycle": Counter(), "path": Counter()}
    for chosen in range(1 << len(u)):
        h = Hypergraph(5, 3, [e for i, e in enumerate(u) if (chosen >> i) & 1])
        shadow = Hypergraph(5, 2, h.shadow_pairs())
        for kind, find, need in (
            ("cycle", find_hamiltonian_berge_cycle, 5),
            ("path", find_hamiltonian_berge_path, 4),
        ):
            res = find(h)
            if res.certificate is not None:
                continue
            seen[kind][res.reason] += 1
            if res.reason == "insufficient_edges":
                assert h.m < need
            else:
                assert (res.reason == "shadow_not_hamiltonian") == (not brute_force_oracle(shadow, kind))
    # beyond too few edges, the only negatives are the 30 labeled pendant-clique
    # copies (cycles) and the 5 labeled isolated-vertex copies (paths)
    assert seen["cycle"] == {"insufficient_edges": 386, "search_exhausted": 30}
    assert seen["path"] == {"insufficient_edges": 176, "shadow_not_hamiltonian": 5}


def test_oracle_basics_and_validation():
    assert brute_force_oracle(complete(4, 3), "cycle")
    assert not brute_force_oracle(Hypergraph(5, 3, []), "cycle")
    with pytest.raises(ValueError):
        brute_force_oracle(complete(8, 3), "cycle")
    with pytest.raises(ValueError):
        brute_force_oracle(complete(4, 3), "tour")


def test_search_stats_populated():
    res = find_hamiltonian_berge_cycle(complete(6, 3))
    assert res.stats.nodes > 0 and res.stats.augments > 0


def test_decider_reuses_a_universe():
    u = universe_masks(5, 3)
    d = BergeDecider(5, u)
    full = (1 << len(u)) - 1
    assert d.cycle_exists(full)
    assert not d.cycle_exists(0)
    order, slots, closing = d.search_cycle(full)
    cert = BergeCertificate("cycle", order, tuple(u[e] for e in (closing, *slots)))
    assert verify_certificate(complete(5, 3), cert) == []
    assert cert == find_hamiltonian_berge_cycle(complete(5, 3)).certificate


def test_decider_tables_equal_a_direct_construction():
    rng = random.Random(11)
    universes = [(2, ()), (2, (0b11,)), (5, ())]
    for n in (2, 3, 4, 5, 6, 7, 8):
        for _ in range(6):
            u = universe_masks(n, rng.randint(2, n))
            universes.append((n, tuple(rng.sample(u, rng.randint(0, len(u))))))
    for n, universe in universes:
        d = BergeDecider(n, universe)
        assert d.vert_cover == [sum(1 << ei for ei, em in enumerate(universe) if em >> a & 1)
                                for a in range(n)]
        assert d.pair_cover == [
            sum(1 << ei for ei, em in enumerate(universe) if a != b and em >> a & 1 and em >> b & 1)
            for a in range(n) for b in range(n)
        ]


# ----- decide: Hall's condition on each found order, over a whole batch ----


@pytest.mark.parametrize("slice_size", (berge.DECIDE_SLICE, 1, 7))
def test_decide_matches_the_oracle_in_any_order(monkeypatch, slice_size):
    monkeypatch.setattr(berge, "DECIDE_SLICE", slice_size)
    u = universe_masks(5, 3)
    graphs = list(range(1 << len(u)))  # ascending masks are colex order
    shuffled = graphs[:]
    random.Random(5).shuffle(shuffled)
    d = BergeDecider(5, u)
    for kind in ("cycle", "path"):
        want = {}
        for chosen in graphs:
            h = Hypergraph(5, 3, [e for i, e in enumerate(u) if (chosen >> i) & 1])
            want[chosen] = brute_force_oracle(h, kind)
        for batch in (graphs, shuffled):
            got = d.decide(batch, kind)
            assert got.dtype == bool and got.tolist() == [want[c] for c in batch], (kind, slice_size)


def _bottleneck_6_3():
    # K_4^3 on 0..3 plus {3,4,5} and {0,4,5}: vertices 4 and 5 lie only in
    # the last two edges, so the three or four cycle slots at 4 and 5 cannot
    # take distinct edges, although min degree is 2 and the shadow has the
    # Hamiltonian cycle 0-1-2-3-4-5
    edges = [mask_of(c) for c in combinations(range(4), 3)]
    return Hypergraph(6, 3, edges + [mask_of({3, 4, 5}), mask_of({0, 4, 5})])


@pytest.mark.parametrize("n, bad", [(5, clique_plus_pendant(5, 3)), (6, _bottleneck_6_3())])
def test_an_order_passes_only_graphs_with_distinct_slot_edges(n, bad):
    # the complete graph comes first, so its order is tested on every copy
    u = universe_masks(n, 3)
    copies = labeled_copies(bad)
    assert len(copies) == (30 if n == 5 else 90)
    if n == 6:
        assert bad.min_degree() >= 2 and bad.m >= n  # past every degree pre-check
    batch = [(1 << len(u)) - 1] + [chosen_mask(n, 3, edges) for edges in copies]
    got = BergeDecider(n, u).decide(batch, "cycle")
    assert got[0] and not got[1:].any()


def test_a_verdict_does_not_depend_on_its_batch():
    # the edge-theorem levels of (6,4), where each kind has its exceptions
    d = BergeDecider(6, universe_masks(6, 4))
    rng = random.Random(3)
    for kind, m in (("cycle", 6), ("path", 5)):
        spec = LevelSpec(6, 4, m)
        masks = level_masks(spec, np.arange(level_size(spec))).tolist()
        whole = d.decide(masks, kind)
        assert 0 < whole.sum() < len(masks)
        for _ in range(20):
            idx = sorted(rng.sample(range(len(masks)), rng.randint(1, 300)))
            rng.shuffle(idx)
            assert d.decide([masks[i] for i in idx], kind).tolist() == whole[idx].tolist()
        for i in rng.sample(range(len(masks)), 50):
            assert d.decide([masks[i]], kind)[0] == whole[i]


def test_decide_rejects_wide_universes_and_unknown_kinds():
    d = BergeDecider(9, universe_masks(9, 3))  # 84 edges
    with pytest.raises(ValueError, match="at most 64 universe edges, got 84"):
        d.decide([0], "cycle")
    d = BergeDecider(5, universe_masks(5, 3))
    with pytest.raises(ValueError, match="kind must be"):
        d.decide([0], "tour")
    assert d.decide([], "path").tolist() == []


def test_the_decider_takes_numpy_masks_and_rejects_bad_ones():
    d = BergeDecider(5, universe_masks(5, 3))
    spec = LevelSpec(5, 3, 6)
    masks = level_masks(spec, np.arange(level_size(spec)))
    assert masks.dtype == np.uint64
    for m in masks[::7]:
        assert d.search_cycle(m) == d.search_cycle(int(m))
        assert d.search_path(m) == d.search_path(int(m))
        assert d.cycle_exists(m) == d.cycle_exists(int(m))
    full = (1 << 10) - 1
    assert d.decide(masks, "cycle").tolist() == d.decide(masks.tolist(), "cycle").tolist()
    assert d.decide(np.array([full], dtype=np.int64), "cycle").tolist() == [True]
    for bad, error, match in [
        (1023.9, TypeError, "not an integer: 1023.9"),
        (full | 1 << 30, ValueError, f"beyond the 10 universe edges: {full | 1 << 30}"),
        (-1, ValueError, "negative: -1"),
    ]:
        for call in (d.search_cycle, d.search_path, lambda c: d.decide([full, c], "cycle")):
            with pytest.raises(error, match=match):
                call(bad)
    # a negative row among numpy integers, and one past uint64
    with pytest.raises(ValueError, match="negative: -2"):
        d.decide(np.array([full, -2]), "path")
    with pytest.raises(ValueError, match="beyond the 10"):
        d.decide([full, 1 << 64], "path")


@pytest.mark.parametrize("n, r, m, kinds", [
    (6, 4, 5, ("cycle", "path")),
    (6, 4, 6, ("cycle", "path")),
    (7, 5, 7, ("cycle",)),
])
def test_decide_equals_the_search_on_whole_levels(n, r, m, kinds):
    spec = LevelSpec(n, r, m)
    masks = level_masks(spec, np.arange(level_size(spec))).tolist()
    d = BergeDecider(n, universe_masks(n, r))
    for kind in kinds:
        search = d.search_cycle if kind == "cycle" else d.search_path
        assert d.decide(masks, kind).tolist() == [search(c) is not None for c in masks], kind


def test_certificates_and_stats_do_not_depend_on_earlier_decisions():
    u = universe_masks(5, 3)
    graphs = list(range(1 << len(u)))
    random.Random(11).shuffle(graphs)
    fresh = BergeDecider(5, u)
    used = BergeDecider(5, u)
    for i, chosen in enumerate(graphs):
        used.decide(graphs[i:i + 7], "cycle")
        used.decide([chosen], "path")
        for kind in ("cycle", "path"):
            got, want = SearchStats(), SearchStats()
            search = getattr(used, f"search_{kind}")
            ref = getattr(fresh, f"search_{kind}")
            assert search(chosen, stats=got) == ref(chosen, stats=want), (kind, chosen)
            assert got == want, (kind, chosen)


def _certificate_cases():
    """(n, r, masks): every graph of the (5,3) levels m = 4..6, and 2,000
    seeded (6,3) and (7,5) masks with edge counts drawn uniformly."""
    yield 5, 3, [c for m in (4, 5, 6) for c in level_masks(LevelSpec(5, 3, m), np.arange(comb(10, m))).tolist()]
    rng = random.Random(17)
    for n, r in ((6, 3), (7, 5)):
        width = comb(n, r)
        yield n, r, [mask_of(rng.sample(range(width), rng.randint(0, width))) for _ in range(2000)]


@pytest.mark.parametrize("n, r, masks", _certificate_cases(), ids=["5-3-levels", "6-3", "7-5"])
def test_the_level_decider_certificate_equals_find(n, r, masks):
    # the level's decider and find_*'s decider over the graph's own edges
    # try edges in the same order, so they give the same answer and work
    d = BergeDecider(n, universe_masks(n, r))
    found = Counter()
    for chosen in masks:
        h = hypergraph_at(n, r, chosen)
        for kind, find in (("cycle", find_hamiltonian_berge_cycle), ("path", find_hamiltonian_berge_path)):
            stats = SearchStats()
            res = find(h)
            assert d.certificate(chosen, kind, stats=stats) == res.certificate, (kind, chosen)
            assert stats == res.stats, (kind, chosen)
            found[kind, res.certificate is not None] += 1
    assert min(found.values()) > 0 and len(found) == 4  # both answers of both kinds


# ----- the search's edge rule -----------------------------------------------


# The order search with the edge rule it had before a new slot took its
# lowest unowned covering edge first: each slot tries its covering edges in
# ascending index, free or owned alike, so it follows an augmenting path
# through an owned edge before it looks at a free edge above it.  Kept as
# the reference that the search must match in orders, verdicts and stats.
def reference_search(self, chosen: int, starts, close: bool, stats: SearchStats | None):
    n = self.n
    pc = self.pair_cover
    everyone = (1 << n) - 1

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


def _reference_cases():
    """(n, r, kind, masks): 1,000 seeded graphs of each of four levels that
    the campaigns sweep, then 1,000 seeded (8,2) graphs of 8 to 16 edges,
    whose negatives often pass the degree checks and exhaust the search."""
    for n, r, m, kind in ((7, 5, 8, "cycle"), (6, 3, 10, "path"), (6, 4, 11, "cycle"), (8, 6, 8, "cycle")):
        spec = LevelSpec(n, r, m)
        ranks = random.Random(n * 100 + m).sample(range(level_size(spec)), 1000)
        yield n, r, kind, level_masks(spec, np.array(ranks)).tolist()
    rng = random.Random(82)
    sparse = [mask_of(rng.sample(range(28), rng.randint(8, 16))) for _ in range(1000)]
    yield 8, 2, "cycle", sparse
    yield 8, 2, "path", sparse


@pytest.mark.parametrize("n, r, kind, masks", _reference_cases(),
                         ids=["7-5-8-cycle", "6-3-10-path", "6-4-11-cycle", "8-6-8-cycle", "8-2-cycle", "8-2-path"])
def test_the_search_tries_the_reference_orders(monkeypatch, n, r, kind, masks):
    # by Berge's lemma a new slot can be matched whichever saturating matching
    # is current, so taking a free edge first changes only the slot edges
    d = BergeDecider(n, universe_masks(n, r))
    search = getattr(d, f"search_{kind}")
    got = []
    for chosen in masks:
        stats = SearchStats()
        hit = search(chosen, stats=stats)
        cert = d.certificate(chosen, kind)
        assert (hit is None) == (cert is None), chosen
        if cert is not None:
            h = hypergraph_at(n, r, chosen)
            assert verify_certificate(h, cert) == [] and len(cert.vertices) == n, chosen
            own = BergeDecider.for_hypergraph(h)
            assert own.certificate(own.full_chosen, kind) == cert, chosen
        got.append((hit and hit[0], stats))
    monkeypatch.setattr(BergeDecider, "_search", reference_search)
    want = []
    for chosen in masks:
        stats = SearchStats()
        hit = search(chosen, stats=stats)
        want.append((hit and hit[0], stats))
    assert got == want
    if r == 2:  # negatives that the degree checks let through, decided by exhausting the search
        assert sum(order is None and stats.nodes > 0 for order, stats in got) > 50


# ----- _hall: Hall's condition on one order's slots, as a cached table ------


def _matching_exists(row: int, slots: list[int]) -> bool:
    """Whether every slot gets a distinct edge of ``row``: augmenting paths,
    slot by slot, over the edges each slot may take."""
    owner: dict[int, int] = {}  # edge -> slot

    def place(s: int, seen: set[int]) -> bool:
        for e in range(row.bit_length()):
            if (row & slots[s]) >> e & 1 and e not in seen:
                seen.add(e)
                if e not in owner or place(owner[e], seen):
                    owner[e] = s
                    return True
        return False

    return all(place(s, set()) for s in range(len(slots)))


def _slot_cases(seed: int):
    """(slots, width) of seeded cycle and path orders, 3 to 8 slots, on
    universes up to (8,3); slot masks built here from the universe."""
    rng = random.Random(seed)
    for n in range(4, 9):
        for r in range(2, n):
            u = universe_masks(n, r)
            if len(u) > 64:
                continue
            for close in (True, False):
                order = list(range(n))
                rng.shuffle(order)
                pairs = zip(order, order[1:] + order[:1] if close else order[1:])
                yield [sum(1 << i for i, e in enumerate(u) if e >> a & 1 and e >> b & 1) for a, b in pairs], len(u)


def _rows(rng: random.Random, count: int, slots: list[int], width: int) -> list[int]:
    # popcounts 0..width, and rows near the number of slots drawn mostly from the slots' edges
    near = [i for i in range(width) if any(s >> i & 1 for s in slots)]
    rows = []
    for _ in range(count):
        if rng.random() < 0.4:
            bits = rng.sample(range(width), rng.randint(0, width))
        else:
            bits = rng.sample(near, min(len(near), rng.randint(len(slots) - 2, len(slots) + 2)))
            bits += rng.sample(range(width), rng.randint(0, 2))
        rows.append(sum(1 << i for i in set(bits)))
    return rows


def test_hall_equals_an_augmenting_path_matching():
    rng = random.Random(16)
    cases = list(_slot_cases(16))
    assert {len(slots) for slots, _ in cases} == set(range(3, 9))
    assert max(width for _, width in cases) == 56
    for i, (slots, width) in enumerate(cases):
        for count in (0, 1, 40, 1300 if i % 6 == 0 else 3):  # 1300 rows cross a block edge
            rows = _rows(rng, count, slots, width)
            got = berge._hall(np.array(rows, dtype=np.uint64), tuple(slots), width)
            assert got.dtype == bool and got.shape == (count,)
            assert got.tolist() == [_matching_exists(row, slots) for row in rows], (slots, width)


def _hall_by_every_set(rows: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    """Hall's condition as stated: every non-empty set S of slots meets at
    least |S| of a row's edges, tried for all 2^len(slots) - 1 sets."""
    ok = np.ones(len(rows), dtype=bool)
    for k in range(1, len(slots) + 1):
        for chosen in combinations(slots, k):
            union = 0
            for s in chosen:
                union |= s
            ok &= np.bitwise_count(rows & np.uint64(union)) >= k
    return ok


@pytest.mark.parametrize("n, r, kind", [(6, 3, "path"), (7, 5, "cycle"), (8, 6, "cycle")])
def test_hall_equals_every_set_across_block_edges(n, r, kind):
    d = BergeDecider(n, universe_masks(n, r))
    width = len(d.universe)
    order = list(range(n))
    random.Random(n).shuffle(order)
    pairs = zip(order, order[1:] + order[:1] if kind == "cycle" else order[1:])
    slots = tuple(d.pair_cover[a * n + b] for a, b in pairs)
    _, _, slack = berge._hall_sets(slots, width)
    rng = random.Random(r)
    tight = LevelSpec(n, r, len(slots) + 1)  # rows where Hall's condition often fails
    dense = LevelSpec(n, r, int(slack.max()))  # rows that every kept union passes by popcount alone
    for spec in (tight, dense):
        for count in (1, 1023, 1024, 1025, 4096):  # around the 1,024-row blocks
            rows = level_masks(spec, np.array(rng.choices(range(level_size(spec)), k=count)))
            got = berge._hall(rows, slots, width)
            assert got.dtype == bool and got.shape == (count,)
            assert got.tolist() == _hall_by_every_set(rows, slots).tolist(), (spec, count)
        if spec is tight:
            assert 0 < got.sum() < count  # both answers at 4,096 rows
        else:
            assert (slack <= spec.m).all() and got.all()  # the call drops every union


def _overlap_components(slots) -> list[tuple[int, int]]:
    """(union, size) of each overlap component of a set of slot masks, where
    two slots overlap when their masks meet."""
    comps: list[tuple[int, int]] = []
    for s in slots:
        meet = [c for c in comps if c[0] & s]
        comps = [c for c in comps if not c[0] & s]
        comps.append((s | reduce(or_, (u for u, _ in meet), 0), 1 + sum(k for _, k in meet)))
    return comps


def test_the_hall_table_implies_every_set_and_keeps_no_redundant_pair():
    for slots, width in _slot_cases(17):
        unions, need, slack = berge._hall_sets(tuple(slots), width)
        assert not any(a.flags.writeable for a in (unions, need, slack))
        table = dict(zip(unions.tolist(), need.tolist()))
        assert len(table) == len(unions)
        assert slack.tolist() == [q + width - u.bit_count() for u, q in table.items()]
        for u, q in table.items():  # a kept union is an overlap-connected set's, asking for all slots inside it
            inner = [s for s in slots if s | u == u]
            assert _overlap_components(inner) == [(u, q)], (slots, u)
        for k in range(1, len(slots) + 1):  # each set's constraint is the sum of its components'
            for chosen in combinations(slots, k):
                assert all(table.get(u, 0) >= size for u, size in _overlap_components(chosen)), (slots, chosen)
        for u, q in table.items():  # and no kept pair follows from another
            assert not any(u2 != u and u2 & ~u == 0 and q2 >= q for u2, q2 in table.items()), (slots, u)


def test_decide_does_not_depend_on_the_hall_cache():
    # 5,000 seeded graphs of each (6,3) threshold level, and all its negatives
    u = universe_masks(6, 3)
    d = BergeDecider(6, u)
    rng = random.Random(6)
    for kind, m, exception in (("cycle", 11, clique_plus_pendant(6, 3)), ("path", 10, clique_plus_isolated(6, 3))):
        spec = LevelSpec(6, 3, m)
        negatives = [chosen_mask(6, 3, edges) for edges in labeled_copies(exception)]
        sample = level_masks(spec, np.array(rng.sample(range(level_size(spec)), 5000))).tolist()
        masks = sorted(set(sample) | set(negatives))
        rng.shuffle(masks)
        search = d.search_cycle if kind == "cycle" else d.search_path
        want = [search(c) is not None for c in masks]
        assert [c for c, ok in zip(masks, want) if not ok] == [c for c in masks if c in negatives]
        assert len(negatives) == (60 if kind == "cycle" else 6)
        d.decide(masks, kind)
        assert d.decide(masks, kind).tolist() == want  # warm
        for lo in range(0, len(masks), 2500):
            berge._hall_sets.cache_clear()
            d._last_orders.clear()
            assert d.decide(masks[lo:lo + 2500], kind).tolist() == want[lo:lo + 2500]  # cold
    info = berge._hall_sets.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


@pytest.mark.parametrize("slice_size", (berge.DECIDE_SLICE, 7, 1))
def test_remembered_orders_never_change_a_verdict(monkeypatch, slice_size):
    # a path order's n-1 slots pass copies of K_5^3 + e, which have no
    # Hamiltonian cycle, so each kind remembers only its own orders
    monkeypatch.setattr(berge, "DECIDE_SLICE", slice_size)
    u = universe_masks(6, 3)
    rng = random.Random(23)
    batches, want = {}, {}
    for kind, m, exception in (("path", 10, clique_plus_isolated(6, 3)), ("cycle", 11, clique_plus_pendant(6, 3))):
        spec = LevelSpec(6, 3, m)
        negatives = {chosen_mask(6, 3, edges) for edges in labeled_copies(exception)}
        masks = sorted(set(level_masks(spec, np.array(rng.sample(range(level_size(spec)), 400))).tolist()) | negatives)
        rng.shuffle(masks)
        search = getattr(BergeDecider(6, u), f"search_{kind}")
        batches[kind], want[kind] = masks, [search(c) is not None for c in masks]
        assert sum(want[kind]) == len(masks) - len(negatives)
    for sequence in (("path", "cycle"), ("cycle", "path")):
        d = BergeDecider(6, u)
        for kind in sequence:
            assert d.decide(batches[kind], kind).tolist() == want[kind], (sequence, kind)
            assert BergeDecider(6, u).decide(batches[kind], kind).tolist() == want[kind], kind
            assert d._last_orders[kind]
    # remembered cycle orders that pass no row: the copies of K_5^3 + e alone
    pendant = [c for c, ok in zip(batches["cycle"], want["cycle"]) if not ok]
    assert len(pendant) == 60 and d._last_orders["cycle"]
    assert not d.decide(pendant, "cycle").any()
    assert d._last_orders["cycle"] == []
    assert d.decide(batches["cycle"], "cycle").tolist() == want["cycle"]


# ----- rotation ------------------------------------------------------------


def test_rotation_closes_the_square():
    h = complete(4, 3)
    p = find_hamiltonian_berge_path(h)
    rr = rotate_path_to_cycle(h, p.certificate)
    assert rr.cycle is not None and rr.failed_case is None
    assert verify_certificate(h, rr.cycle) == []
    assert find_hamiltonian_berge_cycle(h).certificate is not None  # cross-check existence


def test_rotation_fails_on_the_pendant_exception():
    h = clique_plus_pendant(6, 3)
    p = find_hamiltonian_berge_path(h)
    rr = rotate_path_to_cycle(h, p.certificate)
    assert rr.cycle is None and rr.failed_case is not None
    assert find_hamiltonian_berge_cycle(h).certificate is None


def test_rotation_rejects_bad_input():
    h = complete(4, 3)
    junk = BergeCertificate("path", (0, 1, 2, 3), (mask_of({0, 1, 2}),) * 3)
    with pytest.raises(ValueError):
        rotate_path_to_cycle(h, junk)
    short = find_hamiltonian_berge_path(complete(5, 3)).certificate
    with pytest.raises(ValueError):
        rotate_path_to_cycle(h, short)


def _pair_span(h, u, v):
    return sum(1 for e in h.edges if (e >> u) & 1 or (e >> v) & 1)


def test_rotation_closes_hypothesis_satisfying_instances():
    # (n, n-2)-graphs, n >= 9, >= n edges, min degree >= 2, every pair spanning
    # >= n-1 edges: the transformation sequence always produces a cycle
    rng = random.Random(8)
    closed = tried = 0
    for _ in range(250):
        n = rng.choice((9, 10, 11))
        r = n - 2
        u = universe_masks(n, r)
        m = rng.randint(n, min(len(u), n + 5))
        h = Hypergraph(n, r, rng.sample(u, m))
        if h.min_degree() < 2:
            continue
        if any(_pair_span(h, a, b) < n - 1 for a, b in combinations(range(n), 2)):
            continue
        p = find_hamiltonian_berge_path(h)
        if p.certificate is None:
            continue
        tried += 1
        rr = rotate_path_to_cycle(h, p.certificate)
        if rr.cycle is not None and verify_certificate(h, rr.cycle) == []:
            closed += 1
    assert tried > 100 and closed == tried


def test_rotation_steps_are_recorded():
    h = complete(4, 3)
    rr = rotate_path_to_cycle(h, find_hamiltonian_berge_path(h).certificate)
    assert rr.steps and all(isinstance(s, str) for s in rr.steps)

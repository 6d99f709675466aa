import random
from collections import Counter
from itertools import combinations, permutations

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
from bergeham.enumeration import LevelSpec, chosen_mask, iter_level_masks
from bergeham.hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
    mask_of,
    universe_masks,
)
from conftest import random_hypergraph


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
    assert res.stats.nodes > 0 and res.stats.augments > 0 and res.stats.seconds >= 0


def test_decider_reuses_a_universe():
    u = universe_masks(5, 3)
    d = BergeDecider(5, u)
    full = (1 << len(u)) - 1
    assert d.cycle_exists(full)
    assert not d.cycle_exists(0)
    cert = d.cycle_certificate(full)
    assert verify_certificate(complete(5, 3), cert) == []


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


def _labeled_copies(h):
    return sorted({tuple(sorted(h.relabel(p).edges)) for p in permutations(range(h.n))})


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
    copies = _labeled_copies(bad)
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
        masks = [chosen for _, chosen in iter_level_masks(LevelSpec(6, 4, m))]
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


@pytest.mark.parametrize("n, r, m, kinds", [
    (6, 4, 5, ("cycle", "path")),
    (6, 4, 6, ("cycle", "path")),
    (7, 5, 7, ("cycle",)),
])
def test_decide_equals_the_search_on_whole_levels(n, r, m, kinds):
    masks = [chosen for _, chosen in iter_level_masks(LevelSpec(n, r, m))]
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
            cert = getattr(used, f"{kind}_certificate")
            ref = getattr(fresh, f"{kind}_certificate")
            assert cert(chosen, stats=got) == ref(chosen, stats=want), (kind, chosen)
            assert got == want, (kind, chosen)


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

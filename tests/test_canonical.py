import random
from itertools import combinations, permutations

import pytest

from bergeham import canonical
from bergeham.canonical import are_isomorphic, canonical_form, is_canonical, isomorphism
from bergeham.hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
    labeled_pendant_copies,
    mask_of,
)


def test_all_labeled_pendant_copies_share_one_code():
    # 5 isolated-vertex choices x C(4,2) = 6 pendant edges = 30 labeled copies
    copies = labeled_pendant_copies(5, 3)
    assert len(copies) == 30
    assert len({c.edges for c in copies}) == 30
    assert len({canonical_form(c) for c in copies}) == 1


def test_invariance_under_random_relabeling():
    rng = random.Random(7)
    for h in (clique_plus_pendant(6, 3), complete(6, 4), clique_plus_isolated(7, 4)):
        c0 = canonical_form(h)
        for _ in range(10):
            p = list(range(h.n))
            rng.shuffle(p)
            assert canonical_form(h.relabel(p)) == c0


def test_isolated_and_pendant_codes_differ():
    assert canonical_form(clique_plus_isolated(6, 3)) != canonical_form(clique_plus_pendant(6, 3))


@pytest.mark.parametrize("n", range(5, 9))
def test_separates_the_three_constructions(n):
    for r in range(3, n - 1):
        codes = {
            canonical_form(g).code
            for g in (complete(n, r), clique_plus_isolated(n, r), clique_plus_pendant(n, r))
        }
        assert len(codes) == 3


@pytest.mark.parametrize("n", (5, 6, 7))
def test_pendant_edge_choice_is_irrelevant(n):
    # brute force over every pendant-edge choice: all yield one isomorphism class
    for r in range(3, n):
        rest = range(n - 1)
        clique = [mask_of(c) for c in combinations(rest, r)]
        codes = {
            canonical_form(Hypergraph(n, r, clique + [mask_of(stem) | (1 << (n - 1))]))
            for stem in combinations(rest, r - 1)
        }
        assert len(codes) == 1, (n, r)


def test_is_canonical_picks_one_representative_per_orbit():
    h = clique_plus_pendant(5, 3)
    orbit = {tuple(h.relabel(p).edges) for p in permutations(range(5))}
    reps = [
        e for e in orbit if is_canonical(Hypergraph._from_sorted_masks(5, 3, e))
    ]
    assert len(reps) == 1
    assert reps[0] == canonical_form(h).code


def _brute_code(h):
    """The min-lex code straight from its definition: the least sorted edge list
    over all n! relabelings."""
    return min(tuple(h.relabel(p).edges) for p in permutations(range(h.n)))


def _check_against_brute_force(h, rng, labelings):
    code = _brute_code(h)
    assert canonical_form(h).code == code, h.edges
    assert is_canonical(Hypergraph._from_sorted_masks(h.n, h.r, code)), h.edges
    for _ in range(labelings):
        p = list(range(h.n))
        rng.shuffle(p)
        g = h.relabel(p)
        assert is_canonical(g) == (g.edges == code), g.edges


# every 2 <= r <= n-1 for n <= 7: both label directions, and their tie 2r = n
@pytest.mark.parametrize("n, r", [(n, r) for n in range(3, 8) for r in range(2, n)])
def test_codes_match_the_brute_force_minimum(n, r):
    rng = random.Random(100 * n + r)
    u = [mask_of(c) for c in combinations(range(n), r)]
    graphs = [clique_plus_isolated(n, r), clique_plus_pendant(n, r)]
    graphs += [Hypergraph(n, r, rng.sample(u, rng.randint(0, len(u)))) for _ in range(4)]
    for h in graphs:
        _check_against_brute_force(h, rng, labelings=3)


def test_codes_match_the_brute_force_minimum_at_8_6():
    # the size of the benchmark's canonical workload, where an edge misses only two vertices
    rng = random.Random(86)
    u = [mask_of(c) for c in combinations(range(8), 6)]
    for m in (8, 9):
        _check_against_brute_force(Hypergraph(8, 6, rng.sample(u, m)), rng, labelings=2)


@pytest.mark.parametrize("n, r", [(9, 2), (9, 7)])
def test_label_direction_keeps_the_search_small(n, r, monkeypatch):
    # The search sorts one bound vector per node it visits.  These three graphs
    # take about 5,000 nodes; labeling in the other direction takes over 250,000.
    nodes = []
    monkeypatch.setattr(canonical, "sorted", lambda x: nodes.append(1) or sorted(x), raising=False)
    rng = random.Random(10 * n + r)
    u = [mask_of(c) for c in combinations(range(n), r)]
    for _ in range(3):
        canonical_form(Hypergraph(n, r, rng.sample(u, 14 if r == 2 else 10)))
    assert len(nodes) < 20_000


def test_are_isomorphic():
    a = clique_plus_pendant(6, 3)
    b = a.relabel([5, 4, 3, 2, 1, 0])
    assert are_isomorphic(a, b)
    assert not are_isomorphic(a, clique_plus_isolated(6, 3))


def test_large_n_rejected():
    big = Hypergraph(11, 3, [])
    for check in (canonical_form, is_canonical, lambda h: isomorphism(h, h), lambda h: are_isomorphic(h, h)):
        with pytest.raises(ValueError, match="n <= 10"):
            check(big)


def test_isomorphism_agrees_with_canonical_codes():
    # half the pairs are relabeled copies, whose codes are equal by the invariance
    # test above; the other half are independent draws of the same (n, r, m)
    rng = random.Random(11)
    found = 0
    for i in range(2000):
        n = rng.randint(4, 7)
        r = rng.randint(2, min(4, n))
        u = [mask_of(c) for c in combinations(range(n), r)]
        m = rng.randint(0, len(u))
        a = Hypergraph(n, r, rng.sample(u, m))
        if i % 2:
            p = list(range(n))
            rng.shuffle(p)
            b = a.relabel(p)
        else:
            b = Hypergraph(n, r, rng.sample(u, m))
        sigma = isomorphism(a, b)
        same = bool(i % 2) or canonical_form(a) == canonical_form(b)
        assert (sigma is not None) == same, (a.edges, b.edges)
        if sigma is not None:
            assert a.relabel(sigma) == b
            found += 1
    assert 1000 < found < 2000


def test_isomorphism_maps_every_labeled_pendant_copy():
    copies = labeled_pendant_copies(6, 3)
    for c in copies:
        sigma = isomorphism(c, copies[0])
        assert sigma is not None and c.relabel(sigma) == copies[0]


def test_isomorphism_backtracks_where_refinement_cannot_split():
    # every vertex of both graphs looks alike to colour refinement
    hexagon = Hypergraph(6, 2, [(i, (i + 1) % 6) for i in range(6)])
    triangles = Hypergraph(6, 2, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert isomorphism(hexagon, triangles) is None
    assert not are_isomorphic(hexagon, triangles)

    def lift(h):  # to 3-uniform, through one extra vertex in every edge
        return Hypergraph(7, 3, [e | 1 << 6 for e in h.edges])

    assert isomorphism(lift(hexagon), lift(triangles)) is None
    shifted = hexagon.relabel([2, 3, 4, 5, 0, 1])
    assert hexagon.relabel(isomorphism(hexagon, shifted)) == shifted


def test_empty_graphs_are_isomorphic_regardless_of_labels():
    assert canonical_form(Hypergraph(5, 3, [])) == canonical_form(Hypergraph(5, 3, []))
    assert canonical_form(Hypergraph(5, 3, [])).code == ()

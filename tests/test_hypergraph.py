import pickle
import random
from itertools import combinations
from math import comb

import pytest

from bergeham.hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
    labeled_isolated_copies,
    labeled_pendant_copies,
    mask_of,
    members_of,
    universe_masks,
)
from conftest import random_hypergraph


def test_construction_complete_k43():
    h = Hypergraph(4, 3, list(combinations(range(4), 3)))
    assert h.m == 4 and h.n == 4 and h.r == 3


def test_duplicate_edges_collapse():
    h = Hypergraph(5, 3, [{0, 1, 2}, {0, 1, 2}])
    assert h.m == 1


def test_out_of_range_vertex_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Hypergraph(5, 3, [{0, 1, 5}])


def test_wrong_edge_size_rejected():
    with pytest.raises(ValueError, match="vertices, expected"):
        Hypergraph(5, 3, [{0, 1}])


def test_r_larger_than_n_rejected():
    with pytest.raises(ValueError):
        Hypergraph(3, 4, [])
    with pytest.raises(ValueError):
        complete(3, 4)


def test_vertex_limit_rejected():
    with pytest.raises(ValueError, match="64"):
        Hypergraph(65, 3, [])


@pytest.mark.parametrize("n,r,m", [(5, 3, 10), (4, 4, 1), (6, 4, 15)])
def test_complete_edge_counts(n, r, m):
    assert complete(n, r).m == m == comb(n, r)


def test_clique_plus_isolated():
    h = clique_plus_isolated(6, 3)
    assert h.m == 10 and h.degree(5) == 0 and h.min_degree() == 0
    assert clique_plus_isolated(5, 3).m == 4
    with pytest.raises(ValueError):
        clique_plus_isolated(5, 5)


def test_clique_plus_pendant():
    h = clique_plus_pendant(6, 3)
    assert h.m == 11
    h5 = clique_plus_pendant(5, 3)
    assert h5.m == 5 and h5.degree(4) == 1 and h5.min_degree() == 1
    assert h5.has_edge({0, 1, 4})
    with pytest.raises(ValueError):
        clique_plus_pendant(5, 5)


def test_degrees_on_complete():
    h = complete(5, 3)
    assert all(h.degree(v) == comb(4, 2) == 6 for v in range(5))


def test_remove_vertex_complete():
    h2, mapping = complete(5, 3).remove_vertex(0)
    assert h2 == complete(4, 3)
    assert mapping == (None, 0, 1, 2, 3)


def test_remove_pendant_vertex_gives_clique():
    h = clique_plus_pendant(6, 3)
    h2, mapping = h.remove_vertex(5)
    assert h2 == complete(5, 3)
    assert mapping[:5] == (0, 1, 2, 3, 4) and mapping[5] is None


def test_remove_vertex_edge_count_identity():
    rng = random.Random(1)
    for _ in range(50):
        h = random_hypergraph(rng, rng.randint(4, 8), 3)
        v = rng.randrange(h.n)
        h2, _ = h.remove_vertex(v)
        assert h2.m == h.m - h.degree(v)
        assert h2.r == h.r and h2.n == h.n - 1


def test_handshake_identity():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(4, 9)
        r = rng.randint(2, n)
        h = random_hypergraph(rng, n, r)
        assert sum(h.degrees()) == h.r * h.m


def test_relabel_requires_permutation():
    h = complete(4, 3)
    with pytest.raises(ValueError):
        h.relabel([0, 1, 2, 2])
    assert h.relabel([3, 2, 1, 0]) == h


def test_pickle_round_trip():
    # process-pool workers receive hypergraphs inside their chunk tasks
    h = clique_plus_pendant(6, 4)
    back = pickle.loads(pickle.dumps(h))
    assert back == h and back.edges == h.edges
    with pytest.raises(AttributeError, match="immutable"):
        back.n = 5


def test_mask_round_trip():
    for vs in [(0, 1, 2), (3, 5, 7), (0, 63)]:
        assert members_of(mask_of(vs)) == vs


def test_universe_is_sorted_and_complete():
    u = universe_masks(6, 3)
    assert len(u) == 20 and list(u) == sorted(u)
    assert len(set(u)) == 20


def test_labeled_copy_counts():
    assert len(labeled_isolated_copies(6, 3)) == 6
    copies = labeled_pendant_copies(6, 3)
    assert len(copies) == 6 * comb(5, 2) == 60
    assert len({c.edges for c in copies}) == 60  # all distinct as edge sets
    assert all(c.m == 11 for c in copies)


def test_shadow_pairs_of_single_edge():
    h = Hypergraph(5, 3, [{0, 1, 2}])
    assert h.shadow_pairs() == {(0, 1), (0, 2), (1, 2)}
    assert h.isolated_vertices() == [3, 4]

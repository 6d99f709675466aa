import pickle
import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from bergeham.hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
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
    # a negative id gets the same message as an id of n or more
    with pytest.raises(ValueError, match=r"^edge \[0, 1, 7\] has a vertex out of range \[0, 5\)$"):
        Hypergraph(5, 3, [(0, 1, 7)])
    with pytest.raises(ValueError, match=r"^edge \[-1, 0, 1\] has a vertex out of range \[0, 5\)$"):
        Hypergraph(5, 3, [(0, 1, -1)])
    with pytest.raises(ValueError, match=r"^edge \[-2, 0, 1\] has a vertex out of range \[0, 5\)$"):
        Hypergraph(5, 3, [[0, 1, 2], {0, 1, -2}])


def test_negative_edge_mask_rejected():
    with pytest.raises(ValueError, match="a vertex mask is negative: -1$"):
        Hypergraph(5, 3, [-1])
    with pytest.raises(ValueError, match="a vertex mask is negative: -3$"):
        Hypergraph(5, 3, [0b111, np.int64(-3)])
    with pytest.raises(ValueError, match="a vertex mask is negative: -2$"):
        members_of(-2)


def test_adding_a_negative_edge_mask_rejected():
    h = Hypergraph(5, 3, [0b111])
    with pytest.raises(ValueError, match="a vertex mask is negative: -8$"):
        h.add_edge(-8)
    assert h.edges == (0b111,)


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


def test_shadow_pairs_of_single_edge():
    h = Hypergraph(5, 3, [{0, 1, 2}])
    assert h.shadow_pairs() == {(0, 1), (0, 2), (1, 2)}
    assert h.isolated_vertices() == [3, 4]

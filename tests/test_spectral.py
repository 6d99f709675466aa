import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest

from bergeham import spectral
from bergeham.bounds import bai_lu_bound, threshold
from bergeham.enumeration import LevelSpec, hypergraph_at, iter_level_masks
from bergeham.hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
    universe_masks,
)
from bergeham.spectral import (
    CERTIFIED_ABOVE,
    CERTIFIED_BELOW_OR_EQUAL,
    UNDECIDED,
    SpectralEstimate,
    certified_above,
    evaluate_form,
    exact_form_ratio,
    exceeds_threshold,
    gradient_form,
    spectral_radii,
    spectral_radius,
    threshold_verdict,
)
from conftest import random_hypergraph


def test_form_on_uniform_vector_of_k43():
    h = complete(4, 3)
    x = np.full(4, 4 ** (-1 / 3))
    assert abs(evaluate_form(h, x) - 3.0) < 1e-12  # = lambda of K_4^3


def test_form_zero_vector_and_single_edge():
    h = Hypergraph(5, 3, [{0, 1, 2}])
    assert evaluate_form(h, np.zeros(5)) == 0.0
    x = np.zeros(5)
    x[:3] = 3 ** (-1 / 3)
    assert abs(evaluate_form(h, x) - 1.0) < 1e-12


def test_form_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate_form(complete(4, 3), np.ones(5))
    with pytest.raises(ValueError):
        gradient_form(complete(4, 3), np.ones(5))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(15):
        n = int(rng.integers(4, 9))
        r = int(rng.integers(3, n)) if n > 3 else 3
        u = universe_masks(n, r)
        m = int(rng.integers(1, len(u) + 1))
        hh = Hypergraph(n, r, [int(e) for e in rng.choice(u, size=m, replace=False)])
        x = rng.uniform(0.2, 1.5, size=n)
        g = gradient_form(hh, x)
        fd = np.zeros(n)
        for i in range(n):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (evaluate_form(hh, xp) - evaluate_form(hh, xm)) / (2 * h)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_gradient_isolated_vertex_is_zero():
    h = Hypergraph(5, 3, [{0, 1, 2}])
    g = gradient_form(h, np.ones(5))
    assert g[3] == 0.0 and g[4] == 0.0 and g[0] == 3.0


def test_euler_identity():
    rng = np.random.default_rng(2)
    h = complete(6, 3)
    for _ in range(10):
        x = rng.uniform(0.1, 2.0, size=6)
        lhs = float(x @ gradient_form(h, x))
        rhs = h.r * evaluate_form(h, x)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("k,r", [(4, 3), (5, 3), (6, 3), (6, 4), (7, 5)])
def test_complete_graph_spectral_radius(k, r):
    est = spectral_radius(complete(k, r), tol=1e-10)
    target = comb(k - 1, r - 1)
    assert est.converged
    assert est.lower <= target + 1e-8 and target - 1e-8 <= est.upper
    assert est.upper - est.lower <= 1e-8


def test_isolated_vertex_is_irrelevant():
    est = spectral_radius(clique_plus_isolated(6, 3), tol=1e-10)
    assert abs(est.lower - 6) <= 1e-8 and abs(est.upper - 6) <= 1e-8
    assert est.vector[5] == 0.0


def test_single_edge_lambda_is_one():
    est = spectral_radius(Hypergraph(5, 3, [{0, 1, 2}]), tol=1e-10)
    assert abs(est.lower - 1.0) <= 1e-9 and abs(est.upper - 1.0) <= 1e-9


def test_empty_graph():
    est = spectral_radius(Hypergraph(5, 3, []), tol=1e-9)
    assert est.lower == est.upper == 0.0 and est.converged


def test_lower_is_exactly_the_form_at_the_vector():
    rng = random.Random(3)
    for _ in range(30):
        h = random_hypergraph(rng, rng.randint(5, 8), 3)
        est = spectral_radius(h, tol=1e-9, max_iter=5000)
        assert est.lower == evaluate_form(h, est.vector)
        assert est.upper >= est.lower


def test_unconverged_bracket_is_still_valid():
    h = clique_plus_pendant(7, 3)
    est = spectral_radius(h, tol=1e-12, max_iter=2)
    assert not est.converged
    tight = spectral_radius(h, tol=1e-11)
    assert est.lower <= tight.lower <= tight.upper <= est.upper


def test_exceeds_threshold_trio():
    assert exceeds_threshold(clique_plus_pendant(6, 3), 6) == CERTIFIED_ABOVE
    assert exceeds_threshold(clique_plus_isolated(6, 3), 6) == CERTIFIED_BELOW_OR_EQUAL
    assert exceeds_threshold(complete(6, 3), comb(4, 2)) == CERTIFIED_ABOVE


def test_exact_equality_case_is_decided_exactly():
    # lambda(K_5^3) = 6 exactly; the exact rational lower bound at the uniform
    # iterate equals 6, so any threshold below 6 is certified strictly exceeded
    h = complete(5, 3)
    est = spectral_radius(h, tol=1e-10)
    assert exact_form_ratio(h, est.vector) == Fraction(6)
    assert threshold_verdict(h, est, 6 - 1e-9, tol=1e-12) == CERTIFIED_ABOVE
    assert threshold_verdict(h, est, 6, tol=1e-9) == CERTIFIED_BELOW_OR_EQUAL


def test_wide_bracket_is_undecided():
    h = clique_plus_pendant(7, 3)
    est = spectral_radius(h, tol=1e-12, max_iter=1)
    mid = (est.lower + est.upper) / 2
    if est.upper - est.lower > 1e-6:
        assert threshold_verdict(h, est, mid, tol=1e-9) == UNDECIDED


def test_bai_lu_bound_holds_on_random_graphs():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(5, 8)
        r = rng.randint(3, n - 2)
        h = random_hypergraph(rng, n, r)
        est = spectral_radius(h, tol=1e-10, max_iter=20000)
        assert est.upper <= bai_lu_bound(r, h.m) + 1e-9


def test_adding_an_edge_never_lowers_the_old_bound():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(5, 7)
        r = rng.randint(3, n - 2)
        u = universe_masks(n, r)
        m = rng.randint(1, len(u) - 1)
        h = Hypergraph(n, r, rng.sample(u, m))
        est = spectral_radius(h, tol=1e-9)
        extra = rng.choice([e for e in u if e not in set(h.edges)])
        assert evaluate_form(h.add_edge(extra), est.vector) >= est.lower - 1e-12


def test_estimate_is_a_dataclass_with_vector():
    est = spectral_radius(complete(4, 3))
    assert isinstance(est, SpectralEstimate)
    assert est.vector.shape == (4,)
    assert abs(float((est.vector ** 3).sum()) - 1.0) < 1e-9


# --------------------------------------------------------------------------
# the batched kernel and the dyadic-integer verdict


def _random_masks(rng, n, r, count):
    """Chosen-universe masks of random graphs, the edgeless one first."""
    size = len(universe_masks(n, r))
    masks = [0]
    for _ in range(count - 1):
        masks.append(sum(1 << i for i in rng.sample(range(size), rng.randint(0, size))))
    return masks


def _batched(n, r, masks, **kw):
    """(graph, batched estimate) for each mask."""
    spec = LevelSpec(n, r, 0)
    for mask, est in zip(masks, spectral_radii(n, r, masks, **kw)):
        yield hypergraph_at(spec, mask), est


def _fraction_ratio(h, x):
    """form(x) / ||x||_r^r over Fractions, independent of the library's integers."""
    xs = [Fraction(float(v)) for v in x]
    form = h.r * sum(prod(xs[v] for v in e) for e in h.edge_sets())
    return form / sum(v ** h.r for v in xs)


def _split(h):
    """The shadow components of h (union-find), each a sorted vertex list."""
    parent = list(range(h.n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in h.edge_sets():
        first, *rest = sorted(e)
        for v in rest:
            parent[find(v)] = find(first)
    comps = {}
    for v in range(h.n):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def _componentwise(h, **kw):
    """The estimate of h rebuilt from one ``spectral_radius`` call per component.

    Each component with an edge runs as its own k-vertex graph; the bracket
    takes the largest upper bound, the iterations add up, and the vector of
    the first component (by lowest vertex) of largest lower bound is
    embedded, with ``lower`` the form of h at it.
    """
    best, uppers, iterations, converged = None, [0.0], 0, True
    for comp in _split(h):
        local = {v: i for i, v in enumerate(comp)}
        edges = [[local[v] for v in e] for e in h.edge_sets() if min(e) in local]
        if not edges:
            continue
        est = spectral_radius(Hypergraph(len(comp), h.r, edges), **kw)
        uppers.append(est.upper)
        iterations += est.iterations
        converged = converged and est.converged
        if best is None or est.lower > best[0]:
            best = (est.lower, comp, est.vector)
    vector = np.full(h.n, h.n ** (-1.0 / h.r))
    if best is not None:
        vector = np.zeros(h.n)
        vector[best[1]] = best[2]
    lower = evaluate_form(h, vector)
    return SpectralEstimate(lower, max(*uppers, lower), vector, iterations, converged)


@pytest.mark.parametrize("m", [4, 5])
def test_batched_brackets_equal_per_graph_brackets_on_the_5_3_levels(m):
    spec = LevelSpec(5, 3, m)
    masks = [chosen for _, chosen in iter_level_masks(spec)]
    t = threshold("spectral_cycle", 5, 3).value
    for h, est in _batched(5, 3, masks, tol=1e-9, max_iter=50_000):
        one = _componentwise(h, tol=1e-9, max_iter=50_000)
        assert threshold_verdict(h, est, t) == threshold_verdict(h, one, t)
        assert (est.converged, est.iterations, est.lower, est.upper) == (
            one.converged, one.iterations, one.lower, one.upper)
        assert est.vector.tobytes() == one.vector.tobytes()
        assert est.lower == evaluate_form(h, est.vector)


@pytest.mark.parametrize("max_iter", [3, 50_000])
@pytest.mark.parametrize("n,r", [(6, 3), (6, 4), (7, 3)])
def test_batched_brackets_equal_componentwise_brackets(n, r, max_iter):
    masks = _random_masks(random.Random(11), n, r, 300)
    split = 0
    for h, est in _batched(n, r, masks, tol=1e-9, max_iter=max_iter):
        one = _componentwise(h, tol=1e-9, max_iter=max_iter)
        split += len(_split(h)) > 1
        assert (est.lower, est.upper, est.iterations, est.converged) == (
            one.lower, one.upper, one.iterations, one.converged)
        assert est.vector.tobytes() == one.vector.tobytes()
    # the edgeless graph and many sparse ones split into several components
    assert split > 30


def test_vector_comes_from_the_component_of_largest_lower_bound():
    # after one step the component on 0..4 brackets [2.52, 4] and K_4^3 on
    # 5..8 brackets [3, 3]: the upper bound is the first's, the vector the second's
    h = Hypergraph(9, 3, [(1, 3, 4), (1, 2, 4), (0, 1, 3), (0, 1, 2), *combinations(range(5, 9), 3)])
    est = spectral_radius(h, max_iter=1)
    assert (est.upper, est.iterations, est.converged) == (4.0, 2, False)
    assert not est.vector[:5].any() and np.all(est.vector[5:] == 4 ** (-1 / 3))
    assert abs(est.lower - 3) < 1e-12


@pytest.mark.parametrize("n,r", [(5, 3), (6, 4)])
def test_estimates_do_not_depend_on_the_batch(n, r):
    masks = _random_masks(random.Random(13), n, r, 60)
    together = spectral_radii(n, r, masks, tol=1e-9)
    reversed_ = spectral_radii(n, r, masks[::-1], tol=1e-9)[::-1]
    alone = [spectral_radii(n, r, [mask], tol=1e-9)[0] for mask in masks]
    single = [spectral_radius(h, tol=1e-9) for h in map(partial(hypergraph_at, LevelSpec(n, r, 0)), masks)]
    for est, *others in zip(together, reversed_, alone, single):
        for other in others:
            assert (est.lower, est.upper, est.iterations, est.converged) == (
                other.lower, other.upper, other.iterations, other.converged)
            assert est.vector.tobytes() == other.vector.tobytes()


def test_one_graph_never_builds_the_edge_universe(monkeypatch):
    def refuse(*args):
        raise AssertionError("built the (64, 5) edge universe")

    monkeypatch.setattr(spectral, "_universe_members", refuse)
    monkeypatch.setattr(spectral, "universe_masks", refuse)
    rng = random.Random(14)
    h = Hypergraph(64, 5, [rng.sample(range(64), 5) for _ in range(40)])
    est = spectral_radius(h, tol=1e-9)
    assert est.converged and est.lower == evaluate_form(h, est.vector)
    assert 1 <= est.lower <= est.upper <= est.lower + 1e-9


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="finite tol > 0"):
        spectral_radius(complete(5, 3), tol=tol)
    with pytest.raises(ValueError, match="finite tol > 0"):
        spectral_radii(5, 3, [0b111], tol=tol)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
def test_threshold_verdict_checks_its_own_tol(tol):
    # a one-step bracket of lambda ~ 10.106 is about [10.08, 11.0]; at a
    # threshold below lambda an infinite tol would certify "below or equal"
    h = clique_plus_pendant(7, 3)
    est = spectral_radius(h, max_iter=1)
    assert est.lower < 10.094 < est.upper
    assert threshold_verdict(h, est, 10.094) == UNDECIDED
    with pytest.raises(ValueError, match="finite tol > 0"):
        threshold_verdict(h, est, 10.094, tol=tol)
    with pytest.raises(ValueError, match="finite tol > 0"):
        exceeds_threshold(h, 10.094, tol=tol, max_iter=1)


def test_negative_chosen_mask_is_rejected():
    with pytest.raises(ValueError, match="negative"):
        spectral_radii(5, 3, [-1])


@pytest.mark.parametrize("n,r", [(6, 3), (6, 4)])
def test_integer_certificate_agrees_with_fractions(n, r):
    masks = _random_masks(random.Random(12), n, r, 300)
    t_spec = threshold("spectral_cycle", n, r).value
    for h, est in _batched(n, r, masks[1:], tol=1e-9):
        ratio = _fraction_ratio(h, est.vector)
        assert exact_form_ratio(h, est.vector) == ratio
        for t in (t_spec, ratio, ratio - Fraction(1, 10 ** 30), ratio + Fraction(1, 10 ** 30), float(ratio)):
            assert certified_above(h, est.vector, t) == (ratio > Fraction(t))


def test_integer_certificate_on_the_isolated_vertex_equality_case():
    # lambda(K_5^3 + v) = C(4, 2) = 6 is the spectral threshold at (6, 3);
    # the uniform iterate on the clique gives the ratio 6 exactly
    h = clique_plus_isolated(6, 3)
    est = spectral_radius(h, tol=1e-10)
    assert _fraction_ratio(h, est.vector) == exact_form_ratio(h, est.vector) == 6
    assert not certified_above(h, est.vector, 6)
    assert certified_above(h, est.vector, Fraction(6) - Fraction(1, 2 ** 60))
    assert threshold_verdict(h, est, 6) == CERTIFIED_BELOW_OR_EQUAL


def test_integer_certificate_handles_spread_exponents_and_zeros():
    h = Hypergraph(4, 2, [{0, 1}, {1, 2}, {2, 3}])
    x = [2.0 ** -600, 3.5, 0.0, 2.0 ** 40 + 1]
    ratio = _fraction_ratio(h, x)
    assert exact_form_ratio(h, x) == ratio
    assert certified_above(h, x, ratio - Fraction(1, 2 ** 2000))
    assert not certified_above(h, x, ratio)
    with pytest.raises(ValueError):
        exact_form_ratio(h, [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        exact_form_ratio(h, [1.0, -1.0, 0.0, 0.0])


def test_batched_run_out_of_iterations_still_brackets():
    spec = LevelSpec(6, 3, 11)
    masks = [chosen for _, chosen in iter_level_masks(spec, 0, 200)]
    short = spectral_radii(6, 3, masks, tol=1e-12, max_iter=2)
    tight = spectral_radii(6, 3, masks, tol=1e-11)
    assert not any(est.converged for est in short)
    assert {est.iterations for est in short} == {2}
    for mask, est, good in zip(masks, short, tight):
        assert good.converged
        assert est.lower <= good.upper and good.lower <= est.upper
        assert est.lower == evaluate_form(hypergraph_at(spec, mask), est.vector)

import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest

from bergeham import spectral
from bergeham.bounds import bai_lu_bound, threshold
from bergeham.enumeration import LevelSpec, hypergraph_at, isolated_copies, level_masks, level_size
from bergeham.hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
    mask_of,
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
    threshold_verdicts,
)
from conftest import random_hypergraph
from oracles import threshold_verdict


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


@pytest.mark.parametrize("k,r", [(4, 3), (5, 3), (6, 3), (6, 4), (7, 5), (9, 3)])
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
    # settled against t = 6 it is the same bracket, and exceeds_threshold agrees
    full = spectral_radius(h)
    assert _settled(h, 6, full).iterations == full.iterations == 1
    assert exceeds_threshold(h, 6) == threshold_verdict(h, full, 6) == CERTIFIED_BELOW_OR_EQUAL


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
    for mask, est in zip(masks, spectral_radii(n, r, masks, **kw)):
        yield hypergraph_at(n, r, mask), est


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
    masks = level_masks(spec, np.arange(level_size(spec))).tolist()
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
    single = [spectral_radius(h, tol=1e-9) for h in map(partial(hypergraph_at, n, r), masks)]
    for est, *others in zip(together, reversed_, alone, single):
        for other in others:
            assert (est.lower, est.upper, est.iterations, est.converged) == (
                other.lower, other.upper, other.iterations, other.converged)
            assert est.vector.tobytes() == other.vector.tobytes()


def _whole_row_cases(n, r):
    """Chosen-universe masks of whole graphs and of every other kind, shuffled:
    random graphs (the edgeless one among them), the copies of K_{n-1}^r + v,
    a tight path, graphs complete on a first block of vertices with the rest
    isolated, and graphs complete on two disjoint blocks, contiguous or
    interleaved."""
    u = universe_masks(n, r)

    def inside(*blocks):
        return sum(1 << i for i, e in enumerate(u) if any(e & ~mask_of(block) == 0 for block in blocks))

    masks = _random_masks(random.Random(10 * n + r), n, r, 120) + sorted(isolated_copies(n, r))
    masks.append(inside(*(range(i, i + r) for i in range(n - r + 1))))
    masks += [inside(range(a)) for a in range(r, n)]
    masks += [inside(range(a), range(a, n)) for a in range(r, n - r + 1)]
    if n // 2 >= r:
        masks.append(inside(range(0, n, 2), range(1, n, 2)))
    random.Random(n * r).shuffle(masks)
    return masks


def _whole_of(n, r, masks):
    return spectral._whole_rows(n, spectral._universe_members(n, r), spectral._picked_edges(n, r, masks))


@pytest.mark.parametrize("n,r", [(5, 3), (6, 3), (6, 4), (7, 3), (5, 2)])
def test_whole_rows_are_the_graphs_shadow_connected_on_all_vertices(n, r):
    masks = _whole_row_cases(n, r)
    assert _whole_of(n, r, masks).tolist() == [len(_split(hypergraph_at(n, r, mask))) == 1 for mask in masks]
    # the components that _bracket runs one at a time: every one with an edge
    for mask in masks:
        h = hypergraph_at(n, r, mask)
        assert spectral._shadow_components(spectral._edge_index_array(h)) == [c for c in _split(h) if len(c) > 1]


@pytest.mark.parametrize("max_iter", [3, 50_000])
@pytest.mark.parametrize("n,r", [(5, 3), (6, 3), (6, 4), (7, 3), (5, 2)])
def test_whole_rows_bracket_as_the_split_does_bit_for_bit(monkeypatch, n, r, max_iter):
    masks = _whole_row_cases(n, r)
    whole = _whole_of(n, r, masks)
    assert 0 < whole.sum() < len(masks)
    batches = [masks, [m for m, w in zip(masks, whole) if w], [m for m, w in zip(masks, whole) if not w], [0, 0]]

    def brackets():
        return [spectral._bracket(n, r, spectral._universe_members(n, r), spectral._picked_edges(n, r, batch),
                                  1e-9, max_iter) for batch in batches]

    found = brackets()
    # every row through the split
    monkeypatch.setattr(spectral, "_whole_rows", lambda n, members, picked: np.zeros(len(picked), dtype=bool))
    for arrays, split in zip(found, brackets()):
        for got, want in zip(arrays, split):       # lower, upper, vectors, iterations, converged
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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
    with pytest.raises(ValueError, match="finite tol > 0"):
        threshold_verdicts(5, 3, [], 3, tol=tol)


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
        exceeds_threshold(h, 10.094, tol=tol)


@pytest.mark.parametrize("r", [0, 1, 4])
def test_uniformity_must_lie_between_2_and_n(r):
    with pytest.raises(ValueError, match=f"need 2 <= r <= n, got r={r}, n=3"):
        spectral_radii(3, r, [3])
    with pytest.raises(ValueError, match=f"need 2 <= r <= n, got r={r}, n=3"):
        threshold_verdicts(3, r, [3], 1)


def test_vertex_count_is_capped_as_in_hypergraph():
    with pytest.raises(ValueError, match="vertex count 65 exceeds the 64-vertex limit"):
        spectral_radii(65, 64, [1])
    with pytest.raises(ValueError, match="vertex count 65 exceeds the 64-vertex limit"):
        threshold_verdicts(65, 64, [1], 1)


def test_max_iter_must_be_nonnegative():
    with pytest.raises(ValueError, match="need max_iter >= 0, got -1"):
        spectral_radius(complete(5, 3), max_iter=-1)
    with pytest.raises(ValueError, match="need max_iter >= 0, got -1"):
        spectral_radii(5, 3, [0b111], max_iter=-1)
    est = spectral_radius(complete(5, 3), max_iter=0)       # no step: the bracket is [form, inf]
    assert (est.iterations, est.converged, est.upper) == (0, False, np.inf)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("inf")])
def test_threshold_must_be_finite(t):
    with pytest.raises(ValueError, match="need a finite threshold t, got"):
        threshold_verdicts(5, 3, [0b111], t)
    with pytest.raises(ValueError, match="need a finite threshold t, got"):
        threshold_verdicts(5, 3, [], t)
    with pytest.raises(ValueError, match="need a finite threshold t, got"):
        exceeds_threshold(complete(5, 3), t)


@pytest.mark.parametrize("t,want", [(5, CERTIFIED_ABOVE), (Fraction(59, 10), CERTIFIED_ABOVE), (np.float32(5.5), CERTIFIED_ABOVE),
                                    (6, CERTIFIED_BELOW_OR_EQUAL), (Fraction(61, 10), CERTIFIED_BELOW_OR_EQUAL)])
def test_finite_thresholds_are_decided(t, want):
    # lambda(K_5^3) = 6 exactly
    assert exceeds_threshold(complete(5, 3), t) == want
    assert threshold_verdicts(5, 3, [(1 << 10) - 1], t)[0] == [want]


@pytest.mark.parametrize("t,want", [(np.float32(6.0), CERTIFIED_BELOW_OR_EQUAL), (np.float16(6.0), CERTIFIED_BELOW_OR_EQUAL),
                                    (10 ** 400, CERTIFIED_BELOW_OR_EQUAL), (-10 ** 400, CERTIFIED_ABOVE)],
                         ids=["float32-6", "float16-6", "10^400", "-10^400"])
def test_numpy_float_and_out_of_range_thresholds_are_decided(t, want):
    # lambda(K_5^3) = 6 exactly: the narrow floats reach the exact test, and
    # a threshold past the float range is compared exactly
    assert exceeds_threshold(complete(5, 3), t) == want
    assert threshold_verdicts(5, 3, [(1 << 10) - 1], t)[0] == [want]


def test_graph_objects_keep_any_width_and_masks_need_at_most_64_universe_edges():
    # K_9^3 has 84 edges: its own edges go through the kernel, its masks do not fit a uint64
    h = complete(9, 3)
    assert exceeds_threshold(h, 27) == CERTIFIED_ABOVE
    assert exceeds_threshold(h, 29) == CERTIFIED_BELOW_OR_EQUAL
    full = (1 << 84) - 1
    with pytest.raises(ValueError, match="batches need at most 64 universe edges, got 84"):
        spectral_radii(9, 3, [full])
    with pytest.raises(ValueError, match="batches need at most 64 universe edges, got 84"):
        threshold_verdicts(9, 3, [full], 28)


def test_negative_chosen_mask_is_rejected():
    with pytest.raises(ValueError, match="negative"):
        spectral_radii(5, 3, [-1])


@pytest.mark.parametrize("n,r", [(5, 3), (6, 4), (8, 3), (8, 4)])
def test_picked_edges_unpacks_every_mask_bit(n, r):
    # 10, 15 and 56 universe edges go through the uint64 bytes; 70 are rejected
    width = comb(n, r)
    rng = random.Random(width)
    masks = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(30)]
    if width > 64:
        for call in (spectral._picked_edges, spectral_radii):
            with pytest.raises(ValueError, match=f"batches need at most 64 universe edges, got {width}"):
                call(n, r, masks)
        with pytest.raises(ValueError, match=f"batches need at most 64 universe edges, got {width}"):
            threshold_verdicts(n, r, masks, comb(n - 2, r - 1))
        return
    expected = np.array([[mask >> i & 1 for i in range(width)] for mask in masks], dtype=np.uint8)
    for form in (masks, np.array(masks, dtype=object), np.array(masks, dtype=np.uint64)):
        assert np.array_equal(spectral._picked_edges(n, r, form), expected)
    assert spectral._picked_edges(n, r, []).shape == (0, width)
    with pytest.raises(ValueError, match="negative: -1"):
        spectral._picked_edges(n, r, masks + [-1])
    with pytest.raises(ValueError, match=f"beyond the {width} universe edges"):
        spectral._picked_edges(n, r, masks + [1 << width])
    with pytest.raises(TypeError, match="not an integer"):
        spectral._picked_edges(n, r, masks + [2.0])


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
    masks = level_masks(spec, np.arange(200)).tolist()
    short = spectral_radii(6, 3, masks, tol=1e-12, max_iter=2)
    tight = spectral_radii(6, 3, masks, tol=1e-11)
    assert not any(est.converged for est in short)
    assert {est.iterations for est in short} == {2}
    for mask, est, good in zip(masks, short, tight):
        assert good.converged
        assert est.lower <= good.upper and good.lower <= est.upper
        assert est.lower == evaluate_form(hypergraph_at(6, 3, mask), est.vector)


def _verdicts_of(n, r, masks, ests, t, tol=1e-9):
    """``spectral._verdicts`` of graphs given as chosen-universe masks, each
    at its own estimate: the exact verdicts behind the float filter."""
    vectors = np.reshape([est.vector for est in ests], (len(ests), n))
    return spectral._verdicts(n, r, spectral._universe_members(n, r), spectral._picked_edges(n, r, masks), vectors,
                              [est.upper for est in ests], t, tol)


def _exact_verdict(h, est, t, tol=1e-9):
    """threshold_verdict spelled out on the exact integer test alone."""
    if certified_above(h, est.vector, t):
        return CERTIFIED_ABOVE
    return CERTIFIED_BELOW_OR_EQUAL if est.upper <= t + tol else UNDECIDED


def _audit_level_masks(n, r, sample=None):
    """Masks of the spectral audit's two levels at (n, r), or a seeded sample of each."""
    masks = []
    for m in (comb(n - 1, r) + 1, comb(n - 1, r)):
        spec = LevelSpec(n, r, m)
        size = level_size(spec)
        ranks = range(size) if sample is None else sorted(random.Random(m).sample(range(size), sample))
        masks += level_masks(spec, np.array(ranks)).tolist()
    return masks


# the audit's two whole levels at (5,3) and (6,4), 1,500 sampled ranks of
# each (6,3) level, and 300 seeded random graphs at three sizes
_VERDICT_SETS = pytest.mark.parametrize("n,r,masks", [
    (5, 3, _audit_level_masks(5, 3)),
    (6, 4, _audit_level_masks(6, 4)),
    (6, 3, _audit_level_masks(6, 3, sample=1500)),
    (6, 3, _random_masks(random.Random(21), 6, 3, 300)),
    (6, 4, _random_masks(random.Random(22), 6, 4, 300)),
    (7, 3, _random_masks(random.Random(23), 7, 3, 300)),
], ids=["levels-5-3", "levels-6-4", "levels-6-3", "random-6-3", "random-6-4", "random-7-3"])


@_VERDICT_SETS
def test_batched_verdicts_equal_the_exact_integer_test(n, r, masks):
    t_spec = threshold("spectral_cycle", n, r).value
    graphs = [hypergraph_at(n, r, mask) for mask in masks]
    ests = spectral_radii(n, r, masks, tol=1e-9, max_iter=50_000)
    for t in (t_spec, t_spec - 1e-9, t_spec + 1e-9, 1.5 * t_spec):
        want = [_exact_verdict(h, est, t) for h, est in zip(graphs, ests)]
        assert _verdicts_of(n, r, masks, ests, t) == want
        if t == t_spec:
            assert [threshold_verdict(h, est, t) for h, est in zip(graphs, ests)] == want


def test_one_row_verdicts_go_straight_to_the_exact_test(monkeypatch):
    # each graph of the (5,3) audit levels: one certified_above call, and the
    # verdict its batch gives it
    masks = _audit_level_masks(5, 3)
    t = threshold("spectral_cycle", 5, 3).value
    ests = spectral_radii(5, 3, masks, tol=1e-9, max_iter=50_000)
    batched = _verdicts_of(5, 3, masks, ests, t)
    assert set(batched) == {CERTIFIED_ABOVE, CERTIFIED_BELOW_OR_EQUAL}
    calls = []
    original = spectral.certified_above
    monkeypatch.setattr(spectral, "certified_above", lambda h, x, t: calls.append(h) or original(h, x, t))
    for mask, est, want in zip(masks, ests, batched):
        h = hypergraph_at(5, 3, mask)
        calls.clear()
        assert threshold_verdict(h, est, t) == want
        assert calls == [h]


def _audit_verdicts(n, r, masks, t, settle, tol=1e-9):
    """The spectral audit's final verdicts, as ``campaigns._audit`` reaches
    them: one call at ``tol``, the undecided graphs again at ``tol/1000``,
    each settled against ``t`` if ``settle``; with the first call's
    estimates and each graph's unconverged flag."""
    kw = {"t": t} if settle else {}
    ests = spectral_radii(n, r, masks, tol, max_iter=50_000, **kw)
    verdicts = _verdicts_of(n, r, masks, ests, t, tol)
    unconverged = [not est.converged for est in ests]
    if retry := [i for i, verdict in enumerate(verdicts) if verdict == UNDECIDED]:
        again = [masks[i] for i in retry]
        more = spectral_radii(n, r, again, tol / 1000, max_iter=500_000, **kw)
        for i, verdict, est in zip(retry, _verdicts_of(n, r, again, more, t, tol), more):
            verdicts[i] = verdict
            unconverged[i] |= not est.converged
    return verdicts, ests, unconverged


@_VERDICT_SETS
def test_settled_audit_verdicts_equal_converged_verdicts(n, r, masks):
    t_spec = threshold("spectral_cycle", n, r).value
    for t in (t_spec, t_spec - 1e-3, t_spec + 1e-3):
        want, full, _ = _audit_verdicts(n, r, masks, t, settle=False)
        got, settled, unconverged = _audit_verdicts(n, r, masks, t, settle=True)
        assert got == want
        assert not any(unconverged)  # a settled graph counts as converged
        assert all(a.iterations <= b.iterations for a, b in zip(settled, full))
        assert sum(a.iterations for a in settled) < sum(b.iterations for b in full)


@_VERDICT_SETS
def test_threshold_verdicts_equal_the_audit_mirror(n, r, masks):
    t_spec = threshold("spectral_cycle", n, r).value
    for t in (t_spec, t_spec - 1e-3, t_spec + 1e-3):
        want, _, unconverged = _audit_verdicts(n, r, masks, t, settle=True)
        verdicts, converged = threshold_verdicts(n, r, masks, t)
        assert verdicts == want
        assert converged.dtype == bool and converged.tolist() == [not u for u in unconverged]


@pytest.mark.parametrize("n,r,masks", [
    (5, 3, _audit_level_masks(5, 3)),
    (6, 3, _random_masks(random.Random(21), 6, 3, 300)),
], ids=["levels-5-3", "random-6-3"])
def test_threshold_verdicts_do_not_depend_on_slices_or_order(monkeypatch, n, r, masks):
    t = threshold("spectral_cycle", n, r).value
    verdicts, converged = threshold_verdicts(n, r, masks, t)
    for size in (1, 5, 512):
        monkeypatch.setattr(spectral, "SPECTRAL_SLICE", size)
        got, done = threshold_verdicts(n, r, masks, t)
        assert got == verdicts and np.array_equal(done, converged)
        got, done = threshold_verdicts(n, r, masks[::-1], t)
        assert got[::-1] == verdicts and np.array_equal(done[::-1], converged)
    alone = [threshold_verdicts(n, r, [mask], t) for mask in masks]
    assert [v for (v,), _ in alone] == verdicts
    assert [bool(c) for _, (c,) in alone] == converged.tolist()


def test_undecided_verdicts_are_retried_at_a_thousandth_of_the_tolerance(monkeypatch):
    # of the 462 graphs on the (5,3) audit levels, the 315 of maximum degree
    # above t reach the bracket; force the first verdict of every 25th of them
    # to undecided, in slices of 100; the undecided graphs of a slice, and only
    # they, are re-bracketed together at tol/1000, each as spectral_radius
    # brackets it alone, and decided as the first pass would have decided them
    tol = 1e-9
    t = threshold("spectral_cycle", 5, 3).value
    masks = _audit_level_masks(5, 3)
    tight = [i for i, mask in enumerate(masks) if max(hypergraph_at(5, 3, mask).degrees()) > t]
    slices = [[i for i in tight if lo <= i < lo + 100] for lo in range(0, 462, 100)]
    targets = tight[::25]
    assert [len(rows) for rows in slices] == [96, 94, 73, 28, 24]
    assert [sum(i in targets for i in rows) for rows in slices] == [4, 4, 3, 1, 1]
    monkeypatch.setattr(spectral, "SPECTRAL_SLICE", 100)
    brackets, first, short = [], [], []
    original_bracket, original_verdicts = spectral._bracket, spectral._verdicts

    def bracket(n, r, members, picked, at, cap, t):
        # with ``short`` set, a retry stops after one step
        run = original_bracket(n, r, members, picked, at, 1 if short and at < tol else cap, t)
        brackets.append((picked, at, cap, run))
        return run

    def force(n, r, members, picked, vectors, uppers, t, at):
        verdicts = original_verdicts(n, r, members, picked, vectors, uppers, t, at)
        if brackets[-1][1] < tol:  # the retry
            return verdicts
        lo = len(first)
        first.extend(verdicts)
        return [UNDECIDED if tight[lo + i] in targets else verdict for i, verdict in enumerate(verdicts)]

    monkeypatch.setattr(spectral, "_bracket", bracket)
    want, converged = threshold_verdicts(5, 3, masks, t, tol)
    # no undecided verdict, no retry
    assert [(len(picked), at, cap) for picked, at, cap, _ in brackets] == [
        (96, tol, 50_000), (94, tol, 50_000), (73, tol, 50_000), (28, tol, 50_000), (24, tol, 50_000)]
    assert {want[i] for i in targets} == {CERTIFIED_ABOVE, CERTIFIED_BELOW_OR_EQUAL} and converged.all()

    brackets.clear()
    monkeypatch.setattr(spectral, "_verdicts", force)
    got, done = threshold_verdicts(5, 3, masks, t, tol)
    assert got == want and np.array_equal(done, converged)
    assert [(len(picked), at, cap) for picked, at, cap, _ in brackets] == [
        (96, tol, 50_000), (4, tol / 1000, 500_000), (94, tol, 50_000), (4, tol / 1000, 500_000),
        (73, tol, 50_000), (3, tol / 1000, 500_000), (28, tol, 50_000), (1, tol / 1000, 500_000),
        (24, tol, 50_000), (1, tol / 1000, 500_000)]
    for k, rows in enumerate(slices):
        (picked, *_), (again, _, _, run) = brackets[2 * k:2 * k + 2]
        retried = [i for i in rows if i in targets]
        assert np.array_equal(again, picked[[rows.index(i) for i in retried]])
        for i, lower, upper, vector, iterations, settled in zip(retried, *run):
            alone = spectral_radius(hypergraph_at(5, 3, masks[i]), tol / 1000, max_iter=500_000, t=t)
            assert (lower, upper, iterations, settled) == (alone.lower, alone.upper, alone.iterations, alone.converged)
            assert vector.tobytes() == alone.vector.tobytes()

    # a retry that does not converge leaves its graph unconverged, and its
    # verdict is the one its retry's estimate gives
    first.clear()
    short.append(True)
    got, done = threshold_verdicts(5, 3, masks, t, tol)
    for i, mask in enumerate(masks):
        if i in targets:
            h = hypergraph_at(5, 3, mask)
            est = spectral_radius(h, tol / 1000, max_iter=1, t=t)
            assert (got[i], done[i]) == (threshold_verdict(h, est, t, tol), est.converged)
        else:
            assert (got[i], done[i]) == (want[i], True)
    assert not done.all()


def _settled(h, t, full, tol=1e-9):
    """The estimate of ``h`` settled against ``t``, checked against its
    ``full`` one without ``t``: it stops no later, and either stopped
    early, with its bracket clear of t by ``tol`` (for a connected ``h``,
    whose bracket is its one component's), or is ``full`` bit for bit."""
    est = spectral_radius(h, tol, t=t)
    assert est.converged and est.iterations <= full.iterations
    if est.iterations == full.iterations:
        assert (est.lower, est.upper, est.converged) == (full.lower, full.upper, full.converged)
        assert est.vector.tobytes() == full.vector.tobytes()
    elif len(_split(h)) == 1:
        assert est.upper < t - tol or est.lower > t + tol
    return est


@pytest.mark.parametrize("n,r,seed", [(6, 3, 21), (6, 4, 22), (7, 3, 23)])
def test_thresholds_next_to_lambda_keep_the_converged_verdict(n, r, seed):
    # each graph at t = lambda +- {0.5, 2} tol and lambda +- 1e-3, lambda from
    # a bracket 1e-12 wide: the settled bracket gives the converged one's
    # verdict, which is exceeds_threshold's and, on the graph's own edges as
    # on the universe, threshold_verdicts' (both called on 20 graphs)
    tol = 1e-9
    early = 0
    for i, mask in enumerate(_random_masks(random.Random(seed), n, r, 300)[1:]):
        h = hypergraph_at(n, r, mask)
        lam = spectral_radius(h, 1e-12, max_iter=500_000).lower
        full = spectral_radius(h, tol)
        for t in (lam - 1e-3, lam - 2 * tol, lam - tol / 2, lam + tol / 2, lam + 2 * tol, lam + 1e-3):
            est = _settled(h, t, full, tol)
            want = threshold_verdict(h, full, t, tol)
            assert threshold_verdict(h, est, t, tol) == want
            if i < 20:
                assert exceeds_threshold(h, t, tol) == want == threshold_verdicts(n, r, [mask], t, tol)[0][0]
            early += est.iterations < full.iterations
    assert early > 0


@pytest.mark.parametrize("n,r", [(5, 3), (6, 3), (6, 4), (7, 5)])
def test_exact_equality_graphs_settle_below_or_equal(n, r):
    # lambda(K_{n-1}^r + v) = t exactly, wherever the isolated vertex sits
    t = threshold("spectral_cycle", n, r).value
    masks = sorted(isolated_copies(n, r))
    want, full, _ = _audit_verdicts(n, r, masks, t, settle=False)
    got, settled, _ = _audit_verdicts(n, r, masks, t, settle=True)
    assert got == want == [CERTIFIED_BELOW_OR_EQUAL] * n
    for a, b in zip(settled, full):
        assert (a.lower, a.upper, a.iterations, a.converged) == (b.lower, b.upper, b.iterations, b.converged)


def _spy_brackets(monkeypatch):
    """The rows of every ``spectral._bracket`` call from here on, one list of
    masks (bit i picks edge i of the call's ``members``) per call."""
    calls = []
    original = spectral._bracket

    def bracket(n, r, members, picked, *args):
        calls.append([sum(1 << i for i in np.flatnonzero(row).tolist()) for row in picked])
        return original(n, r, members, picked, *args)

    monkeypatch.setattr(spectral, "_bracket", bracket)
    return calls


@pytest.mark.parametrize("n,r,masks", [
    (5, 3, _audit_level_masks(5, 3)),
    (6, 4, _audit_level_masks(6, 4)),
    (6, 3, _random_masks(random.Random(21), 6, 3, 300)),
], ids=["levels-5-3", "levels-6-4", "random-6-3"])
def test_graphs_of_maximum_degree_at_most_t_settle_before_any_bracket(monkeypatch, n, r, masks):
    # lambda <= Delta: a graph with Delta <= t is certified below or equal and
    # converged without a bracket, and the audit mirror, which brackets every
    # graph, agrees; every other graph keeps the mirror's verdict and flag
    t_spec = threshold("spectral_cycle", n, r).value
    degrees = [max(hypergraph_at(n, r, mask).degrees()) for mask in masks]
    calls = _spy_brackets(monkeypatch)
    for t in (t_spec, t_spec - 1e-3, t_spec + 1e-3, Fraction(t_spec), np.float32(t_spec)):
        calls.clear()
        verdicts, converged = threshold_verdicts(n, r, masks, t)
        bracketed = {mask for call in calls for mask in call}
        want, _, unconverged = _audit_verdicts(n, r, masks, t, settle=True)
        settled = set()
        for mask, delta, verdict, done, mirror, late in zip(masks, degrees, verdicts, converged.tolist(), want,
                                                            unconverged):
            if delta <= t:
                assert (verdict, done) == (CERTIFIED_BELOW_OR_EQUAL, True) and mirror == verdict
                assert mask not in bracketed
                settled.add(mask)
            else:
                assert (verdict, done) == (mirror, not late)
        if n - r == 2 and t >= t_spec:  # the level sets hold the n copies of K_{n-1}^r + v, of Delta = t
            assert set(isolated_copies(n, r)) <= settled
        assert settled or t < t_spec


@pytest.mark.parametrize("n,r,masks", [
    (5, 3, _audit_level_masks(5, 3)),
    (6, 4, _audit_level_masks(6, 4)),
    (6, 3, _random_masks(random.Random(21), 6, 3, 300)),
    (7, 3, _random_masks(random.Random(23), 7, 3, 300)),
    (5, 2, _random_masks(random.Random(24), 5, 2, 300)),
], ids=["levels-5-3", "levels-6-4", "random-6-3", "random-7-3", "random-5-2"])
def test_only_whole_graphs_reach_the_bracket_at_the_spectral_threshold(monkeypatch, n, r, masks):
    # a graph that is not whole has every vertex in a component of at most
    # n - 1 vertices, so Delta <= C(n-2, r-1) = t and it settles before any
    # bracket: the audit never runs _bracket's per-component loop.  One
    # below t, the copies of K_{n-1}^r + v (Delta = t) reach the loop.
    masks = masks + sorted(isolated_copies(n, r)) + _whole_row_cases(n, r)
    t = threshold("spectral_cycle", n, r).value
    calls = _spy_brackets(monkeypatch)
    for at, split in ((t, False), (t - 1, True)):
        calls.clear()
        threshold_verdicts(n, r, masks, at)
        rows = [mask for call in calls for mask in call]
        assert rows and (not _whole_of(n, r, rows).all()) == split


def test_maximum_degree_settles_huge_thresholds_and_edgeless_graphs_but_no_negative_threshold(monkeypatch):
    masks = [0, *_audit_level_masks(5, 3)]
    calls = _spy_brackets(monkeypatch)
    # past the int64 range every graph settles
    verdicts, converged = threshold_verdicts(5, 3, masks, 10 ** 400)
    assert verdicts == [CERTIFIED_BELOW_OR_EQUAL] * len(masks) and converged.all()
    assert exceeds_threshold(complete(5, 3), 10 ** 400) == CERTIFIED_BELOW_OR_EQUAL
    # an edgeless graph has Delta = 0
    verdicts, converged = threshold_verdicts(5, 3, [0], 0)
    assert (verdicts, converged.tolist()) == ([CERTIFIED_BELOW_OR_EQUAL], [True])
    assert exceeds_threshold(Hypergraph(5, 3, []), 0) == CERTIFIED_BELOW_OR_EQUAL
    # lambda(K_5^3 + v) = Delta = 6
    assert exceeds_threshold(clique_plus_isolated(6, 3), 6) == CERTIFIED_BELOW_OR_EQUAL
    assert calls == []
    # below 0 every graph is bracketed, the edgeless one included, and above t
    for t in (-0.5, -1, -10 ** 400):
        calls.clear()
        verdicts, converged = threshold_verdicts(5, 3, masks, t)
        assert sorted(mask for call in calls for mask in call) == sorted(masks)
        assert verdicts == [CERTIFIED_ABOVE] * len(masks) and converged.all()


def test_equality_case_stays_below_or_equal_inside_a_batch():
    # lambda(K_5^3) = 6, and its float lower bound lands above 6
    masks = [(1 << 10) - 1, *level_masks(LevelSpec(5, 3, 5), np.arange(40)).tolist()]
    ests = spectral_radii(5, 3, masks, tol=1e-9)
    assert ests[0].lower == 6.000000000000002
    assert exact_form_ratio(complete(5, 3), ests[0].vector) == 6
    assert _verdicts_of(5, 3, masks, ests, 6)[0] == CERTIFIED_BELOW_OR_EQUAL
    assert _verdicts_of(5, 3, masks, ests, 6 - 2.0 ** -48)[0] == CERTIFIED_ABOVE


@pytest.mark.parametrize("n,r", [(5, 3), (6, 4), (7, 3)])
def test_filter_margin_covers_thresholds_next_to_the_exact_ratio(n, r):
    # at the floats next to an exact form ratio, rounding decides the float
    # comparison about one time in ten; the margin must send those rows on
    rng = np.random.default_rng(n * r)
    width = comb(n, r)
    masks, ests, cases = [], [], []
    for _ in range(60):
        mask = int(rng.integers(1, 2 ** width))
        x = rng.random(n) + 0.5
        ratio = exact_form_ratio(hypergraph_at(n, r, mask), x)
        masks.append(mask)
        ests.append(SpectralEstimate(float(ratio), float(ratio), x, 1, True))
        cases.append(ratio)
    for shift in (-1, 0, 1):
        for i, ratio in enumerate(cases):
            t = float(np.nextafter(float(ratio), np.inf * shift)) if shift else float(ratio)
            want = CERTIFIED_ABOVE if ratio > t else CERTIFIED_BELOW_OR_EQUAL
            assert _verdicts_of(n, r, masks[i:i + 1], ests[i:i + 1], t) == [want]


def test_rows_outside_the_filter_go_to_the_exact_test(monkeypatch):
    calls = []
    original = spectral.certified_above
    monkeypatch.setattr(spectral, "certified_above", lambda h, x, t: calls.append(h) or original(h, x, t))
    masks = level_masks(LevelSpec(5, 3, 5), np.arange(30)).tolist()
    ests = spectral_radii(5, 3, masks, tol=1e-9)
    graphs = [hypergraph_at(5, 3, mask) for mask in masks]

    def run(ests, t):
        calls.clear()
        got = _verdicts_of(5, 3, masks, ests, t)
        assert got == [_exact_verdict(h, est, t) for h, est in zip(graphs, ests)]
        return len(calls)

    assert run(ests, 4.5) == 0
    assert run(ests, Fraction(9, 2)) == 0                # exactly the float 4.5
    assert run(ests, Fraction(10, 3)) == len(masks)      # not a float
    assert run(ests, 0) == len(masks)                    # not positive
    for scale, unsettled in ((2.0 ** -100, 0), (2.0 ** 100, 0), (2.0 ** -400, len(masks)), (2.0 ** 400, len(masks))):
        scaled = [SpectralEstimate(e.lower, e.upper, e.vector * scale, e.iterations, e.converged) for e in ests]
        assert run(scaled, 4.5) == unsettled


def test_malformed_vectors_are_rejected():
    h = complete(5, 3)
    for x, match in (([1.0] * 6, "shape"), ([1.0] * 4, "shape"), ([1.0, 1.0, float("inf"), 1.0, 1.0], "finite"),
                     ([1.0, float("nan"), 1.0, 1.0, 1.0], "finite"), ([1.0, -1.0, 1.0, 1.0, 1.0], "nonnegative"),
                     ([0.0] * 5, "nonzero")):
        with pytest.raises(ValueError, match=match):
            exact_form_ratio(h, x)
        with pytest.raises(ValueError, match=match):
            certified_above(h, x, 6)
        est = SpectralEstimate(6.0, 6.0, np.array(x), 1, True)
        with pytest.raises(ValueError, match=match):
            threshold_verdict(h, est, 6)


def test_numpy_integer_masks_are_accepted():
    masks = level_masks(LevelSpec(5, 3, 5), np.arange(3))
    ests = spectral_radii(5, 3, masks)
    for est, other in zip(ests, spectral_radii(5, 3, masks.tolist())):
        assert (est.lower, est.upper) == (other.lower, other.upper)
        assert est.vector.tobytes() == other.vector.tobytes()
    (verdicts, converged), (listed, also) = threshold_verdicts(5, 3, masks, 6), threshold_verdicts(5, 3, masks.tolist(), 6)
    assert verdicts == listed and np.array_equal(converged, also)
    with pytest.raises(TypeError, match="not an integer: 7.0"):
        spectral_radii(5, 3, [7.0])
    with pytest.raises(ValueError, match="beyond the 10"):
        spectral_radii(5, 3, [np.uint64(1 << 10)])

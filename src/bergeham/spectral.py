"""Polynomial form evaluation and spectral radius brackets.

The polynomial form of an r-graph is ``r * sum over edges of the product
of the edge's coordinates``; its maximum over nonnegative unit vectors in
the l_r norm is the spectral radius.  That maximum is computed with the
shifted nonnegative power iteration of Ng, Qi & Zhou (shift 1 on the
eigenvalue identity, which Liu, Zhou & Ibrahim show always converges for
the weakly irreducible systems that shadow-connected graphs produce),
bracketed on each step by Collatz-Wielandt ratios:

    lower = form value at the current feasible iterate  <=  lambda
    upper = max_i (A x^{r-1})_i / x_i^{r-1}             >=  lambda

so the returned bracket holds whether or not the iteration hit the
requested tolerance, but only up to floating-point rounding: both ends are
float sums, and either can land a few ulps on the wrong side of lambda
(``complete(6, 4)`` has lambda = 10 and an ``upper`` of
9.999999999999998; ``complete(5, 3)`` has lambda = 6 and a ``lower`` of
6.000000000000002).  The exact guarantees are ``exact_form_ratio``,
``certified_above`` and lambda <= Delta, below; other ``certified_below_or_equal``
verdicts rely on ``tol`` being much larger than that rounding.

One kernel, ``_power_iterate``, runs that iteration on a batch of graphs
at once, each over its own edges: a row lists a graph's edges in ascending
mask order, padded up to the batch's largest edge count (a level window
has no pads), leave-one-out products and a ``np.bincount`` scatter over
those edges build ``A x^{r-1}`` for every row, and a row leaves the batch
on the step it converges.  Each vertex sums its edges' terms in the order
of a run on its graph alone, and every pad's term lands past all rows, so
every row's iterates are that run's, bit for bit.  Without a threshold,
converged means a bracket at most ``tol`` wide.  A caller that decides a
threshold ``t`` (``threshold_verdicts``, ``exceeds_threshold``) passes it,
and a row is then also done once its bracket is settled, clear of t by
``tol``: ``upper < t - tol`` or ``lower > t + tol``.  A settled estimate
counts as converged; its bracket may be wide, but it gives the verdict
that its ``tol``-wide bracket would (``_power_iterate`` proves this, and
states what it assumes about ``tol``).

The form splits over shadow components, and each component is a whole
graph on its own vertices, weakly irreducible (Friedland, Gaubert & Han,
LAA 438, 2013).  One path, ``_bracket``, builds every estimate.  Most
graphs are whole, their shadow connected on all n vertices (``_whole_rows``),
and run together as rows of one kernel call.  Every other graph (an
isolated vertex, a split shadow, no edge) runs one component at a time,
each alone on its vertices in local labels, and its estimate is rebuilt
from its components.  None of these reaches the spectral audit's
brackets: a split shadow puts every vertex in a component of at most
n - 1 vertices, so Delta <= C(n-2, r-1), the audit's threshold, and
``_decide`` settles it before any bracket.  An estimate does not depend on
which graphs share its batch.  ``spectral_radii`` feeds it graphs as
chosen-universe masks, ``chosen_array``'s ``uint64`` rows, so it and
``threshold_verdicts`` take universes of at most 64 edges;
``spectral_radius`` feeds it one graph's own edges, so it never builds the
``(n, r)`` edge universe and takes any width.  Both wrap its arrays in
estimates; ``threshold_verdicts`` decides from them as they are.

Strict threshold decisions re-derive the lower bound exactly at the returned
vector.  Its float coordinates are dyadic rationals; scaled to a common
power of two they become integers ``X_i``, and ``lambda > t`` is certified
by the integer test ``r * den(t) * sum_e prod X_i > num(t) * sum_i X_i^r``,
so campaign verdicts never hinge on floating-point rounding.  A verdict is
``certified_above`` when that test holds, ``certified_below_or_equal`` when
it fails and the float upper bound is at most ``t + tol`` (exact equality
lands here), and ``undecided`` otherwise.  One per-slice loop, ``_decide``,
reaches every verdict, from one degree count per slice.  A graph of maximum
degree Delta <= t is ``certified_below_or_equal`` exactly, before any
bracket (lambda <= Delta, Collatz-Wielandt at the all-ones vector).  A
graph whose form ratio at its degree vector x_i = (d_i + 1)^{1/(r-1)}, the
kernel's second iterate, provably exceeds t is ``certified_above``
exactly, before any bracket (any nonnegative x bounds lambda from below).
It brackets the rest settled against t, decides them, and retries its
undecided graphs once at ``tol/1000``.  ``threshold_verdicts``, the audit's
threshold decision, runs it over slices of masks; ``exceeds_threshold``
runs it on one graph's own edges.  One float filter, ``_float_filter``,
serves the degree-vector test and ``_verdicts``: it settles a row when ``r
* T`` and ``t * D``, computed in floats, differ by more than a margin proven
to exceed their rounding error, so its answer is the exact test's.  At the
degree vector, a row it does not prove above goes on to the bracket; in
``_verdicts``, rows inside the margin, rows whose vector the bound does not
cover, and every row of a threshold that is not exactly a float go to
``certified_above``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import repeat
from math import comb, floor, frexp, isfinite

import numpy as np

from .hypergraph import MAX_VERTICES, Hypergraph, chosen_array, mask_of, members_of, universe_masks

CERTIFIED_ABOVE = "certified_above"
CERTIFIED_BELOW_OR_EQUAL = "certified_below_or_equal"
UNDECIDED = "undecided"

_TINY = 1e-300  # clamp for x**(r-1) denominators
_MANTISSA = 2.0 ** 53  # frexp fraction * _MANTISSA is an exact integer
_UNIT = 2.0 ** -53  # unit roundoff of float64
_NORMAL = float(np.finfo(np.float64).tiny)  # smallest positive normal float, 2^-1022
SPECTRAL_SLICE = 512  # graphs bracketed per batched kernel call in threshold_verdicts


@dataclass(frozen=True)
class SpectralEstimate:
    """Two-sided bracket on the spectral radius.

    ``lower`` is the form value at ``vector`` (an l_r-normalized
    nonnegative vector) summed in floats; ``upper`` dominates every
    component's Collatz-Wielandt upper ratio.  Both bound the spectral
    radius up to floating-point rounding only; ``exact_form_ratio`` and
    ``certified_above`` give the exact lower bound at ``vector``.
    ``converged`` says every component's bracket got ``tol`` wide, or
    settled against the threshold the call was given, within ``max_iter``.
    """

    lower: float
    upper: float
    vector: np.ndarray
    iterations: int
    converged: bool


_edge_members = lru_cache(maxsize=1 << 16)(members_of)  # edge mask -> vertex tuple


def _edge_index_array(h: Hypergraph) -> np.ndarray:
    if h.m == 0:
        return np.zeros((0, h.r), dtype=np.intp)
    return np.array([_edge_members(e) for e in h.edges], dtype=np.intp)


def _vector(x, n: int) -> np.ndarray:
    """``x`` as a float array, which must have shape (n,)."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({n},)")
    return v


def evaluate_form(h: Hypergraph, x) -> float:
    """The form r * sum_e prod_{i in e} x_i at a vector of length n."""
    v = _vector(x, h.n)
    if h.m == 0:
        return 0.0
    e = _edge_index_array(h)
    return float(h.r * np.prod(v[e], axis=1).sum())


def gradient_form(h: Hypergraph, x) -> np.ndarray:
    """Gradient of the form: component i is r * sum_{e holding i} prod_{j in e, j != i} x_j.

    Computed with leave-one-out products rather than division, so zero
    entries (isolated vertices included) come out exact.
    """
    v = _vector(x, h.n)
    grad = np.zeros(h.n)
    if h.m == 0:
        return grad
    e = _edge_index_array(h)
    np.add.at(grad, e, _leave_one_out([v[e[:, j]] for j in range(h.r)]))
    return h.r * grad


def _leave_one_out(cols: list[np.ndarray]) -> np.ndarray:
    """Leave-one-out products of r same-shape arrays, stacked on a new last axis.

    Entry j is (cols[0] * ... * cols[j-1]) * (cols[r-1] * ... * cols[j+1]),
    each running product taken in that order.
    """
    r = len(cols)
    pref = [cols[0]]                 # pref[j] = cols[0] * ... * cols[j]
    for c in cols[1:-1]:
        pref.append(pref[-1] * c)
    suff = [cols[-1]]                # suff[j] = cols[r-1] * ... * cols[r-1-j]
    for c in cols[-2:0:-1]:
        suff.append(suff[-1] * c)
    parts = [suff[-1], *(pref[j - 1] * suff[r - 2 - j] for j in range(1, r - 1)), pref[-1]]
    return np.concatenate([part[..., None] for part in parts], axis=-1)


def _power_iterate(verts: np.ndarray, k: int, r: int, tol: float, max_iter: int, t: float):
    """Power-iterate B graphs on k vertices at once, each over its own edges.

    Row b of the (B, M, r) ``verts`` lists graph b's edges, vertex indices
    in [0, k), in ascending mask order, then pads of vertex B * k or more,
    whose terms land past ``A x^{r-1}``.  Every graph needs an edge and a
    shadow connected on all k vertices.  Returns per-row arrays (lower, upper,
    vectors, iterations, converged): ``lower`` and ``upper`` bracket the
    last step taken, and each vector is l_r-normalized and positive.

    A row is done, and ``converged`` at that step, when its bracket is
    ``tol`` wide, ``upper - lower <= tol``, or, given the threshold ``t``
    that the caller decides, when it is settled: clear of t by ``tol``,
    ``upper < t - tol`` or ``lower > t + tol``.  A NaN ``t`` settles
    nothing, so the steps are exactly those of a run without a threshold.
    Rows never interact, so every other row runs as it would anyway.

    Claim.  Let ``_verdicts`` decide at a bound t + T with T >= ``tol``,
    assume 4 delta < ``tol`` (delta below), and assume the run without
    ``t``, the converged run, converges within ``max_iter``.  Then a
    graph's verdict from its settled estimate is its verdict from the
    converged one, unless a component's spectral radius lies within 3
    delta of t + ``tol``.  So ``threshold_verdicts`` (T = ``tol`` on its first
    call, and a retry of its undecided graphs at ``tol/1000``) gives every
    graph the same final verdict either way, unless a component's
    spectral radius lies within 3 delta of t + T or of t + T/1000; this
    needs 4 delta < T/1000.

    Proof.  Let delta bound the absolute error of every float ``lower``
    and ``upper``, here and in ``_bracket``, and of the floats ``t -+
    tol``, against the exact form ratio at the iterate, the exact
    Collatz-Wielandt ratio ``max_i G_i / x_i^{r-1}`` (the two bracket the
    component's lambda; Chang, Pearson & Zhang, Commun. Math. Sci. 6,
    2008) and the exact ``t -+ tol``.  delta is about lambda (r + M + k)
    2^-53, under 1e-13 at the audited sizes.  A converged bracket is at
    most tol' = tol (1 + 2^-52) wide.  Take a graph with a settled
    component; its unsettled components run identically in both runs.
    All settled below, ``upper < t - tol``: each such c has lambda_c < t -
    tol + 2 delta, so in both runs c's ``lower`` is below t - tol + 3
    delta and its ``upper`` below t + 4 delta <= t + T.  If an unsettled
    component's ``lower`` is at least t - tol + 3 delta, both runs take
    the graph's vector from the same unsettled component, so
    ``certified_above`` answers alike; otherwise every vector's exact
    ratio is below t - tol + 4 delta < t, and neither run is above.  No
    settled ``upper`` decides whether the graph's ``upper`` exceeds t + T,
    so the verdicts agree.
    One settled above, ``lower > t + tol``, call it c: the vector of
    largest ``lower`` has an exact ratio above t + tol - 2 delta > t, so
    the settled verdict is ``certified_above``.  lambda_c > t + tol - 2
    delta, and the converged c ends with a ``lower`` of at least lambda_c
    - delta - tol', so the converged vector's exact ratio is above t when
    lambda_c > t + tol' + 2 delta.  Only lambda_c within 3 delta of t +
    tol escapes both bounds, and there the settled run certifies lambda >
    t exactly.  []
    """
    b = len(verts)
    exp = r - 1
    lower = np.zeros(b)
    upper = np.full(b, np.inf)
    vectors = np.empty((b, k))
    iterations = np.zeros(b, dtype=np.intp)
    converged = np.zeros(b, dtype=bool)
    rows = np.arange(b)                         # graphs still iterating
    lo, up = lower.copy(), upper.copy()
    x = np.full((b, k), k ** (-1.0 / r))
    flat = verts + (rows * k)[:, None, None]    # flat positions b*k + v of (row, edge, member), pads past x
    step = 0
    while rows.size and step < max_iter:
        step += 1
        loo = _leave_one_out([x.take(flat[..., j], mode="clip") for j in range(r)])
        g = np.bincount(flat.ravel(), weights=loo.ravel(), minlength=x.size)[:x.size].reshape(x.shape)
        lo = (x[:, None, :] @ g[:, :, None])[:, 0, 0]   # form value at each unit iterate
        xp = np.maximum(x, _TINY) ** exp
        up = reduce(np.maximum, (g / xp).T)             # Collatz-Wielandt ratio, column by column
        done = (up - lo <= tol) | (up < t - tol) | (lo > t + tol)
        if done.any():
            fin = rows[done]
            lower[fin], upper[fin], vectors[fin] = lo[done], up[done], x[done]
            iterations[fin] = step
            converged[fin] = True
            keep = ~done
            rows, x, g, xp, lo, up = rows[keep], x[keep], g[keep], xp[keep], lo[keep], up[keep]
            if not rows.size:
                break
            flat = verts.take(rows, axis=0) + (np.arange(rows.size) * k)[:, None, None]
        y = g + xp                              # shifted iteration keeps x positive
        x = y ** (1.0 / exp)
        # each row's norm root is a scalar (libm) pow: numpy's array pow
        # can round the last bit differently
        norms = map(pow, (x ** r).sum(axis=1).tolist(), repeat(1.0 / r))
        x /= np.fromiter(norms, np.float64, count=len(x))[:, None]
    lower[rows], upper[rows], vectors[rows] = lo, up, x
    iterations[rows] = step
    return lower, upper, vectors, iterations, converged


def _degrees(n: int, members: np.ndarray, own: np.ndarray) -> np.ndarray:
    """The (n, B) vertex degrees of the graphs of ``own`` (as in ``_bracket``),
    column b graph b's, from one ``bincount`` over their members,
    vertex-major; pads count at a vertex n past the graph's."""
    b = len(own)
    ends = np.concatenate((members, np.full((1, members.shape[1]), n)))
    flat = (ends * b).take(own, axis=0) + np.arange(b)[:, None, None]
    return np.bincount(flat.ravel(), minlength=(n + 1) * b).reshape(n + 1, b)[:n]


def _whole_rows(n: int, r: int, members: np.ndarray, own: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Bool per row of ``own`` (as in ``_bracket``), of maximum degree
    ``delta``: whether the graph's shadow is connected on all n vertices.

    A split shadow puts every vertex in a component of at most n - 1
    vertices, of degree at most C(n-2, r-1), so a graph of larger maximum
    degree is whole.  Any other row's vertex mask grows from vertex 0 by
    each own edge that meets it, one round of ``uint64`` ORs at a time,
    until it reaches every vertex (whole) or stops growing.
    """
    whole = delta > comb(n - 2, r - 1)
    rows = np.flatnonzero(~whole)              # rows still growing
    if not rows.size:
        return whole
    bits = np.left_shift(np.uint64(1), members.astype(np.uint64)).sum(axis=1, dtype=np.uint64)
    full, zero = np.uint64((1 << n) - 1), np.uint64(0)
    edges = np.append(bits, zero).take(own[rows]).T  # (M, rows) vertex masks of their own edges, pads 0
    reach = np.ones(len(rows), dtype=np.uint64)
    while rows.size:
        grown = np.bitwise_or.reduce(np.where(edges & reach != zero, edges, zero), axis=0) | reach
        whole[rows[grown == full]] = True
        keep = (grown != reach) & (grown != full)
        rows, reach, edges = rows[keep], grown[keep], edges[:, keep]
    return whole


def _shadow_components(edges: np.ndarray) -> list[list[int]]:
    """The sorted vertex lists of the shadow components that hold an edge
    of the (E, r) member array ``edges``, in order of their lowest vertex."""
    comps: list[int] = []                      # disjoint vertex masks
    for e in map(mask_of, edges.tolist()):
        for c in [c for c in comps if c & e]:
            comps.remove(c)
            e |= c
        comps.append(e)
    return sorted(list(members_of(c)) for c in comps)


def _edge_products(xt: np.ndarray, members: np.ndarray, own: np.ndarray) -> np.ndarray:
    """(B, M) products prod_{i in e} x_i at column b of the (n, B) ``xt`` over
    the edges of row b of ``own`` (as in ``_bracket``), each in np.prod's
    order; a pad's is over the last row of ``members``.  It multiplies out
    every row of ``members`` at every column, from r gathers of whole rows
    of ``xt`` (cheaper than a (B, M, r) gather of the own edges'
    coordinates), then picks each graph's own."""
    every = reduce(np.multiply, [xt[col] for col in members.T])   # (E, B)
    return every.take(own * len(own) + np.arange(len(own))[:, None])


def _as_float(t) -> float:
    """``t`` as a float, or NaN when it has none."""
    try:
        return float(t)
    except (TypeError, ValueError, OverflowError):
        return np.nan


def _check_tol(tol: float) -> None:
    if not 0 < tol < np.inf:
        raise ValueError(f"need a finite tol > 0, got {tol}")


def _check_args(n: int, r: int, tol: float, max_iter: int = 0) -> None:
    """Raise ``ValueError`` unless 2 <= r <= n <= ``MAX_VERTICES`` (worded as
    ``Hypergraph`` words it), ``tol`` is finite and positive and ``max_iter`` >= 0."""
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the {MAX_VERTICES}-vertex limit")
    _check_tol(tol)
    if not max_iter >= 0:
        raise ValueError(f"need max_iter >= 0, got {max_iter}")


def _check_threshold(t) -> None:
    """Raise ``ValueError`` when the threshold ``t`` is NaN or infinite; an
    exact number past the float range is finite."""
    try:
        finite = isfinite(t)
    except OverflowError:
        finite = True
    if not finite:
        raise ValueError(f"need a finite threshold t, got {t!r}")


def _bracket(n: int, r: int, members: np.ndarray, own: np.ndarray, tol: float,
             max_iter: int, t=None, delta=None):
    """The arrays (lower, upper, (B, n) vectors, iterations, converged) of the
    estimates of B graphs, each shadow component run until converged or
    settled against the threshold ``t`` (see ``_power_iterate``); a ``t``
    that is None, or has no float, settles nothing.  Row b of the (B, M)
    ``own`` lists graph b's edges as ascending row numbers of the (E, r)
    ``members``, given in ascending mask order, then -1 up to M.  ``delta``
    holds the graphs' maximum degrees, computed here when None.

    Whole graphs (``_whole_rows``) are each their own single component and
    run together in one kernel call, each over its own edges, pads past
    them.  Every other graph runs one component at a time, on its k
    vertices in local labels, and takes the largest upper bound, the summed
    iterations, all converged, and the vector of its first component (by
    lowest vertex) of largest lower bound; an edgeless graph takes the
    uniform vector.
    """
    _check_args(n, r, tol, max_iter)
    b = len(own)
    t = _as_float(t)
    upper, vectors = np.zeros(b), np.full((b, n), n ** (-1.0 / r))
    iterations, converged = np.zeros(b, dtype=np.intp), np.ones(b, dtype=bool)
    if delta is None:
        delta = _degrees(n, members, own).max(axis=0)
    whole = _whole_rows(n, r, members, own, delta)
    rows = np.flatnonzero(whole)
    if rows.size:                              # a pad (-1) takes vertex b * n, past every row's
        ends = np.concatenate((members, np.full((1, r), b * n)))
        _, upper[rows], vectors[rows], iterations[rows], converged[rows] = _power_iterate(
            ends.take(own[rows], axis=0), n, r, tol, max_iter, t)
    for i in np.flatnonzero(~whole).tolist():
        edges = members[own[i, own[i] >= 0]]
        best = -np.inf
        for verts in _shadow_components(edges):
            local = np.full(n, -1)
            local[verts] = range(len(verts))
            mine = local[edges]
            mine = mine[mine[:, 0] >= 0]                    # the component's edges, in local labels
            (lo,), (up,), (vec,), (its,), (conv,) = _power_iterate(
                mine[None], len(verts), r, tol, max_iter, t)
            upper[i] = max(upper[i], up)
            iterations[i] += its
            converged[i] &= conv
            if lo > best:
                best = lo
                vectors[i] = 0.0
                vectors[i, verts] = vec
    # the form at each vector, summed over the graph's own edges exactly as
    # evaluate_form sums them; graphs are grouped by edge count
    prods = _edge_products(vectors.T, members, own)
    sizes = (own >= 0).sum(axis=1)
    lower = np.empty(b)
    for m in set(sizes.tolist()):
        sel = sizes == m
        lower[sel] = r * prods[sel, :m].sum(axis=1)
    return lower, np.maximum(upper, lower), vectors, iterations, converged


def _estimates(lower, upper, vectors, iterations, converged) -> list[SpectralEstimate]:
    """The ``SpectralEstimate`` of each row of ``_bracket``'s arrays."""
    return list(map(SpectralEstimate, lower.tolist(), upper.tolist(), vectors, iterations.tolist(),
                    converged.tolist()))


def spectral_radius(h: Hypergraph, tol: float = 1e-9, max_iter: int = 10 ** 6, *,
                    t=None) -> SpectralEstimate:
    """Bracket on the spectral radius of ``h``, valid up to floating-point rounding.

    The form decomposes over shadow components (isolated vertices
    contribute zero), so each component is iterated on its own vertices;
    the estimate takes the largest upper bound over components and embeds
    the iterate of the component with the largest lower bound as the
    returned vector.  Non-convergence within ``max_iter`` still returns a
    bracket (just a wider one), flagged via ``converged=False``.  For an
    exact lower bound, evaluate the returned vector with
    ``exact_form_ratio`` or ``certified_above``.  Given the threshold
    ``t`` a caller decides, each component stops once its bracket is
    settled, clear of t by ``tol``, and counts as converged there.
    """
    return _estimates(*_bracket(h.n, h.r, _edge_index_array(h), np.arange(h.m)[None], tol, max_iter, t))[0]


@cache
def _universe_members(n: int, r: int) -> np.ndarray:
    """The (C(n, r), r) member array of ``universe_masks(n, r)``, in order."""
    arr = np.array([members_of(e) for e in universe_masks(n, r)], dtype=np.intp)
    arr.flags.writeable = False
    return arr


def _own_edges(n: int, r: int, chosen) -> np.ndarray:
    """Chosen-universe masks as ``_bracket``'s rows: the set bits of each of
    ``chosen_array``'s rows, unpacked from its little-endian bytes."""
    width = len(universe_masks(n, r))
    masks = chosen_array(chosen, width)
    bits = np.unpackbits(masks.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, count=width, bitorder="little")
    sizes = np.bitwise_count(masks).astype(np.intp)
    own = np.full((len(masks), sizes.max(initial=0)), -1, dtype=np.intp)
    own[np.arange(own.shape[1]) < sizes[:, None]] = np.flatnonzero(bits) - np.repeat(np.arange(len(own)) * width, sizes)
    return own


def spectral_radii(n: int, r: int, chosen, tol: float = 1e-9, max_iter: int = 10 ** 6, *,
                   t=None) -> list[SpectralEstimate]:
    """``spectral_radius`` of many graphs given as chosen-universe masks.

    Bit i of a mask selects edge ``universe_masks(n, r)[i]``.  Each
    estimate equals ``spectral_radius`` of the same graph, with the same
    ``t``, whichever graphs share its call.
    """
    _check_args(n, r, tol, max_iter)
    return _estimates(*_bracket(n, r, _universe_members(n, r), _own_edges(n, r, chosen), tol, max_iter, t))


def _dyadic_sums(h: Hypergraph, x) -> tuple[int, int]:
    """(sum_e prod_{i in e} X_i, sum_i X_i^r) over integers X_i = x_i * 2^-s.

    ``s`` is the smallest binary exponent among x's nonzero coordinates,
    so every X_i is an integer and both sums are exact; they share the
    factor 2^{r s}, which cancels in the form ratio.
    """
    v = _vector(x, h.n)
    if not np.isfinite(v).all():
        raise ValueError("need a finite vector")
    parts = [frexp(c) for c in v.tolist()]
    if any(f < 0 for f, _ in parts):
        raise ValueError("need a nonnegative vector")
    exps = [e for f, e in parts if f]
    if not exps:
        raise ValueError("need a nonzero vector")
    low = min(exps)
    xs = [int(f * _MANTISSA) << (e - low) if f else 0 for f, e in parts]
    total = 0
    for e in h.edges:
        prod = 1
        for v in _edge_members(e):
            prod *= xs[v]
        total += prod
    return total, sum(v ** h.r for v in xs)


def exact_form_ratio(h: Hypergraph, x) -> Fraction:
    """form(x) / ||x||_r^r in exact rational arithmetic.

    Any nonnegative nonzero ``x`` gives a true lower bound on the
    spectral radius; evaluating the ratio exactly (in dyadic integers)
    makes the bound immune to rounding, which is what strict threshold
    decisions need.
    """
    total, denom = _dyadic_sums(h, x)
    return Fraction(h.r * total, denom)


def certified_above(h: Hypergraph, x, t) -> bool:
    """True when the form ratio at ``x`` exceeds ``t`` exactly.

    The integer test ``r * den(t) * sum_e prod X_i > num(t) * sum_i X_i^r``
    over the dyadic integers of ``_dyadic_sums``: no rounding, no
    ``Fraction`` arithmetic.  A numpy float, which ``Fraction`` does not
    take, gives its own exact ratio.
    """
    total, denom = _dyadic_sums(h, x)
    num, den = (t if isinstance(t, np.floating) else Fraction(t)).as_integer_ratio()
    return h.r * den * total > num * denom


def _margin(k: int) -> float:
    """4 * gamma_k, the float filter's relative margin for k roundings."""
    return 4 * k * _UNIT / (1 - k * _UNIT)


def _float_filter(n: int, r: int, members: np.ndarray, own: np.ndarray, x: np.ndarray, t):
    """(above, settled), bool per graph of ``own`` (as in ``_bracket``) at
    its column of the (n, B) float array ``x``: ``settled`` when the float
    sums prove whether the exact form ratio at the column exceeds ``t``,
    and then ``above`` says whether it does.  It may zero a column it
    cannot settle in place.

    Per column, the float sums ``T = sum_e prod_{i in e} x_i`` and ``D =
    sum_i x_i^r`` are computed from the vector, each product and power by
    repeated multiplication and each sum in order (T weights a pad's
    product 0), and with ``c = t * D`` the column is above when ``r * T > c
    * (1 + eps)`` and not above when ``r * T < c * (1 - eps)``, with ``eps =
    _margin(k)`` for ``k = r + m + n``, m the graph's edge count.  So
    neither the answer nor the floats behind it depend on the other graphs
    of the batch or on its width.

    Proof.  Let u = 2^-53 and gamma_j = j u / (1 - j u).  When no operation
    overflows or lands below the normal range, a product of j roundings
    (1 + delta_i), |delta_i| <= u, is 1 + theta with |theta| <= gamma_j
    (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.1).
    Every term is nonnegative, and a sum puts each of its m edge terms
    through at most m - 1 roundings (a pad adds an exact zero, which
    rounds nothing), so
    the computed ``r * T`` is ``r T (1 + alpha)`` after at most (r - 1) +
    (m - 1) + 1 roundings and the computed ``c`` is ``t D (1 + beta)``
    after at most (r - 1) + (n - 1) + 1, with |alpha|, |beta| <= gamma =
    gamma_k.  The factor ``1 + eps`` and the product ``c * (1 + eps)``
    round twice more.  So the "above" test implies r T / (t D) >= (1 + 4
    gamma)(1 - gamma)(1 - u)^2 / (1 + gamma), and the "not above" test
    implies r T / (t D) <= (1 - 4 gamma)(1 + gamma)(1 + u)^2 / (1 -
    gamma).  Since k >= 4 gives gamma >= 4u, and k < 2^50 gives gamma <=
    1/4, the first bound exceeds 1 and the second is below 1: the filter's
    answer is the exact one, strict on both sides.  The proof takes the
    float vector as it is, however it was computed.

    The bound needs its premises, so a column is not settled: every column
    when ``t`` is not exactly a positive finite float; a column with a
    non-finite or negative coordinate, or none nonzero; a column whose
    smallest nonzero coordinate, raised to the r, could leave the normal
    range, or whose ``c * (1 +- eps)`` overflows or falls to the normal
    range's edge; and a column inside the margin.
    """
    tf = _as_float(t)
    settle = np.full(x.shape[1], tf == t and 0 < tf < np.inf)
    settle &= np.isfinite(x).all(axis=0)
    x[:, ~settle] = 0.0
    settle &= (x >= 0).all(axis=0) & x.any(axis=0)
    # every nonzero coordinate is at least 2^(e - 1), e its smallest frexp exponent
    low = np.frexp(np.where(x > 0, x, 1.0).min(axis=0))[1] - 1
    settle &= r * low >= -1022
    with np.errstate(over="ignore", invalid="ignore"):   # overflow leaves a row unsettled
        powers = x
        for _ in range(r - 1):
            powers = powers * x
        edge = own >= 0
        # each sum in order, as numpy's pairwise sum is not: a pad adds an exact 0
        form = r * reduce(np.add, (_edge_products(x, members, own) * edge).T, np.zeros(len(own)))
        c = tf * reduce(np.add, powers)
        eps = _margin(r + edge.sum(axis=1) + n)
        c_hi, c_lo = c * (1 + eps), c * (1 - eps)
    settle &= (form < np.inf) & (c_hi < np.inf) & (c_lo > _NORMAL)
    above = form > c_hi
    settle &= above | (form < c_lo)
    return above, settle


def _verdicts(n: int, r: int, members: np.ndarray, own: np.ndarray, vectors: np.ndarray, uppers,
              t, tol: float) -> list[str]:
    """The verdict on lambda against ``t`` of each graph of ``own`` (as in
    ``_bracket``), at its row of the
    (B, n) array ``vectors`` and its upper bound: ``certified_above`` when
    the exact form ratio at the vector exceeds t, else
    ``certified_below_or_equal`` when the upper bound is at most ``t +
    tol`` (in floats, or exactly when t is past the float range), else
    ``undecided``; ``_decide`` settles the graphs it can before it.

    ``_float_filter`` answers the exact question from the vector
    (``est.lower`` is not trusted), and a row it cannot settle goes to
    ``certified_above``, the exact integer test, with its errors for a
    malformed vector.
    """
    x = np.array(vectors, dtype=np.float64).T.copy()   # (n, B): a row's reductions run down a column
    above, settle = _float_filter(n, r, members, own, x, t)
    tf = _as_float(t)
    for i in np.flatnonzero(~settle).tolist():
        graph = Hypergraph(n, r, members[own[i, own[i] >= 0]].tolist())
        above[i] = certified_above(graph, vectors[i], t)
    bound = tf + tol if tf == tf else Fraction(t) + Fraction(tol)
    return [CERTIFIED_ABOVE if yes else CERTIFIED_BELOW_OR_EQUAL if upper <= bound else UNDECIDED
            for yes, upper in zip(above.tolist(), np.asarray(uppers).tolist())]


def _above_at_degrees(n: int, r: int, members: np.ndarray, own: np.ndarray, degrees: np.ndarray,
                      t) -> np.ndarray:
    """Bool per graph of ``own`` (as in ``_bracket``): whether
    ``_float_filter`` proves that the form ratio exceeds ``t`` at x_i = (d_i
    + 1)^{1/(r-1)}, d the graph's column of the (n, B) ``degrees``.  That
    x is the kernel's second iterate from the uniform vector (Ng, Qi & Zhou,
    SIAM J. Matrix Anal. Appl. 31, 2009), and any nonnegative x bounds
    lambda >= r T(x) / D(x) (Chang, Pearson & Zhang), so True is exact.

    x comes from a table of (k + 1)^{1/(r-1)}, k up to the largest degree.
    By AM-GM, r T(x) <= sum_i d_i x_i^r, so a graph whose float ``sum_i (d_i
    - t) x_i^r`` is not positive cannot be above and skips the edge
    products, as does every graph of Delta <= t.  The gate only saves time:
    a graph it skips, by rounding or not, is False here and is bracketed.
    """
    root = np.arange(1, degrees.max(initial=0) + 2) ** (1.0 / (r - 1))
    gate = ((np.arange(len(root)) - _as_float(t)) * root ** r)[degrees].sum(axis=0) > 0
    above = np.zeros(len(own), dtype=bool)
    rows = np.flatnonzero(gate)
    if rows.size:
        hit, settled = _float_filter(n, r, members, own[rows], root[degrees[:, rows]], t)
        above[rows] = hit & settled
    return above


def _decide(n: int, r: int, members: np.ndarray, own: np.ndarray, t, tol: float):
    """(verdicts, converged) of the graphs of ``own`` (as in ``_bracket``),
    each settled by the first of these steps that settles it.

    - A graph of maximum degree Delta <= t is ``certified_below_or_equal``
      and converged, exactly: lambda <= Delta (Collatz-Wielandt at the
      all-ones vector) <= t.  Its bracket would give that verdict too,
      and a False flag only at Delta = t, neither converged nor settled
      within 50,000 steps.
    - A graph that ``_above_at_degrees`` certifies above t at its degree
      vector is ``certified_above`` and converged, exactly.  Its bracket
      would give that verdict and flag too, unless lambda lies within
      about ``tol`` of t (where a ``certified_below_or_equal`` would be
      the tolerance's answer, not the exact one) or the bracket neither
      converges nor settles within its steps.  The test only takes a
      threshold that is exactly a positive finite float; a graph it does
      not settle goes on.
    - The others get one ``_bracket`` call settled against t (at most
      50,000 steps) and one ``_verdicts`` call; the undecided ones are
      re-bracketed together at ``tol/1000`` (500,000 steps) and decided
      again.

    One ``bincount`` gives the degrees, and so Delta, for every step.
    """
    _check_tol(tol)
    degrees = _degrees(n, members, own)
    delta = degrees.max(axis=0)
    # Delta <= floor(t), with floor(t) clamped to [-1, E] so that it fits int64
    below = delta <= min(max(floor(t), -1), len(members))
    above = _above_at_degrees(n, r, members, own, degrees, t)
    found, done = np.full(len(own), CERTIFIED_BELOW_OR_EQUAL, dtype=object), np.ones(len(own), dtype=bool)
    found[above] = CERTIFIED_ABOVE
    rows = np.flatnonzero(~(below | above))
    for at, steps in ((tol, 50_000), (tol / 1000, 500_000)):
        if rows.size:
            part = own[rows]
            _, upper, vectors, _, settled = _bracket(n, r, members, part, at, steps, t, delta[rows])
            done[rows] &= settled
            found[rows] = _verdicts(n, r, members, part, vectors, upper, t, tol)
            rows = rows[found[rows] == UNDECIDED]
    return found.tolist(), done


def threshold_verdicts(n: int, r: int, chosen, t, tol: float = 1e-9) -> tuple[list[str], np.ndarray]:
    """(verdicts, converged) of graphs given as chosen-universe masks: each
    graph's exact verdict on lambda against ``t`` (``certified_below_or_equal``
    at once when its maximum degree Delta <= t, ``certified_above`` at once
    when its degree vector proves lambda > t, else as ``_verdicts`` defines
    it), and a bool array of whether its brackets converged or settled, True
    for a graph settled before any bracket (see ``_decide``).  ``_decide``
    runs on each ``SPECTRAL_SLICE`` graphs.  An estimate does not depend on
    its batch, so no answer depends on the slices, the order or the other
    graphs of the call.
    """
    _check_args(n, r, tol)
    _check_threshold(t)
    members = _universe_members(n, r)
    own = _own_edges(n, r, chosen)
    verdicts: list[str] = []
    converged = np.ones(len(own), dtype=bool)
    for lo in range(0, len(own), SPECTRAL_SLICE):
        part = own[lo:lo + SPECTRAL_SLICE]
        found, converged[lo:lo + len(part)] = _decide(n, r, members, part, t, tol)
        verdicts += found
    return verdicts, converged


def exceeds_threshold(h: Hypergraph, t, tol: float = 1e-9) -> str:
    """The verdict of ``threshold_verdicts`` on lambda(h) against ``t``,
    from one ``_decide`` row over ``h``'s own edges, so a call costs what
    ``h`` costs and never builds the ``(n, r)`` edge universe."""
    _check_threshold(t)
    return _decide(h.n, h.r, _edge_index_array(h), np.arange(h.m)[None], t, tol)[0][0]

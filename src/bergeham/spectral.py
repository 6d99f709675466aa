"""Polynomial form evaluation and certified spectral radius brackets.

The polynomial form of an r-graph is ``r * sum over edges of the product
of the edge's coordinates``; its maximum over nonnegative unit vectors in
the l_r norm is the spectral radius.  That maximum is computed with the
shifted nonnegative power iteration of Ng, Qi & Zhou (shift 1 on the
eigenvalue identity, which Liu, Zhou & Ibrahim show always converges for
the weakly irreducible systems that shadow-connected graphs produce),
bracketed on each step by Collatz-Wielandt ratios:

    lower = form value at the current feasible iterate  <=  lambda
    upper = max_i (A x^{r-1})_i / x_i^{r-1}             >=  lambda

so the returned bracket is certified whether or not the iteration hit the
requested tolerance.

One kernel, ``_power_iterate``, runs that iteration on a batch of graphs
at once: a ``(B, E)`` 0/1 weight array picks each graph's edges out of a
shared edge list, leave-one-out products and a ``np.bincount`` scatter
build ``A x^{r-1}`` for every row, and a row leaves the batch on the step
it converges.  Absent edges add exact zeros in the same order as the
single-graph scatter, so every row's iterates are those of a run on its
graph alone.  ``spectral_radius`` calls the kernel on each shadow
component of one graph (B = 1).  ``spectral_radii`` brackets many graphs
over the edge universe of ``(n, r)`` with one kernel call, provided a
graph's shadow is connected on all n vertices; there the whole vertex set
is the only component, so the batch run is the per-graph run.  Every
other graph goes through ``spectral_radius``.

Strict threshold decisions re-derive the lower bound exactly at the
returned vector.  Its float coordinates are dyadic rationals; scaled to a
common power of two they become integers ``X_i``, and ``lambda > t`` is
certified by the integer test ``r * den(t) * sum_e prod X_i > num(t) *
sum_i X_i^r``, so campaign verdicts never hinge on floating-point
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import repeat
from math import frexp

import numpy as np

from .hypergraph import Hypergraph, members_of, universe_masks

CERTIFIED_ABOVE = "certified_above"
CERTIFIED_BELOW_OR_EQUAL = "certified_below_or_equal"
UNDECIDED = "undecided"

_TINY = 1e-300  # clamp for x**(r-1) denominators
_MANTISSA = 2.0 ** 53  # frexp fraction * _MANTISSA is an exact integer


@dataclass(frozen=True)
class SpectralEstimate:
    """Two-sided bracket on the spectral radius.

    ``lower`` is exactly the form value at ``vector`` (an l_r-normalized
    nonnegative vector), hence a true lower bound; ``upper`` dominates
    every component's Collatz-Wielandt upper ratio.
    """

    lower: float
    upper: float
    vector: np.ndarray
    iterations: int
    converged: bool


def _edge_index_array(h: Hypergraph) -> np.ndarray:
    if h.m == 0:
        return np.zeros((0, h.r), dtype=np.intp)
    return np.array([members_of(e) for e in h.edges], dtype=np.intp)


def evaluate_form(h: Hypergraph, x) -> float:
    """The form r * sum_e prod_{i in e} x_i at a vector of length n."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (h.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({h.n},)")
    if h.m == 0:
        return 0.0
    e = _edge_index_array(h)
    return float(h.r * np.prod(v[e], axis=1).sum())


def gradient_form(h: Hypergraph, x) -> np.ndarray:
    """Gradient of the form: component i is r * sum_{e holding i} prod_{j in e, j != i} x_j.

    Computed with leave-one-out products rather than division, so zero
    entries (isolated vertices included) come out exact.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (h.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({h.n},)")
    grad = np.zeros(h.n)
    if h.m == 0:
        return grad
    e = _edge_index_array(h)
    np.add.at(grad, e, _leave_one_out([v[e[:, j]] for j in range(h.r)]))
    return h.r * grad


def _leave_one_out(cols: list[np.ndarray], weights: np.ndarray | None = None) -> np.ndarray:
    """Leave-one-out products of r same-shape arrays, stacked on a new last axis.

    Entry j is (cols[0] * ... * cols[j-1]) * (cols[r-1] * ... * cols[j+1]),
    each running product taken in that order, then times ``weights`` if given.
    """
    r = len(cols)
    pref = [cols[0]]                 # pref[j] = cols[0] * ... * cols[j]
    for c in cols[1:-1]:
        pref.append(pref[-1] * c)
    suff = [cols[-1]]                # suff[j] = cols[r-1] * ... * cols[r-1-j]
    for c in cols[-2:0:-1]:
        suff.append(suff[-1] * c)
    parts = [suff[-1], *(pref[j - 1] * suff[r - 2 - j] for j in range(1, r - 1)), pref[-1]]
    out = np.empty(cols[0].shape + (r,))
    for j, part in enumerate(parts):
        out[..., j] = part if weights is None else part * weights
    return out


def _shadow_components(h: Hypergraph) -> list[list[int]]:
    parent = list(range(h.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in h.edges:
        mem = members_of(e)
        root = find(mem[0])
        for v in mem[1:]:
            parent[find(v)] = root
    groups: dict[int, list[int]] = {}
    for v in range(h.n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def _power_iterate(edges: np.ndarray, weights: np.ndarray | None, k: int, r: int, tol: float,
                   max_iter: int):
    """Power-iterate B graphs on k vertices at once over one shared edge list.

    ``edges`` is an (E, r) array of vertex indices in [0, k) and row b of
    the (B, E) 0/1 array ``weights`` selects graph b's edges; ``None``
    stands for one graph with every edge.  Every graph needs at least one
    edge and a shadow connected on all k vertices.  Returns per-row arrays
    (lower, upper, vectors, iterations, converged): ``lower`` and ``upper``
    bracket the last step taken, and each vector is l_r-normalized and
    strictly positive.
    """
    b = 1 if weights is None else len(weights)
    exp = r - 1
    lower = np.zeros(b)
    upper = np.full(b, np.inf)
    vectors = np.empty((b, k))
    iterations = np.zeros(b, dtype=np.intp)
    converged = np.zeros(b, dtype=bool)
    rows = np.arange(b)                         # graphs still iterating
    lo, up = lower.copy(), upper.copy()
    x = np.full((b, k), k ** (-1.0 / r))
    # flat positions b*k + v of (row, edge, member), and of each member
    # column; a prefix of either serves any fewer rows
    flat = (rows[:, None, None] * k + edges).ravel()
    columns = flat.reshape(-1, r).T.copy()
    step = 0
    while rows.size and step < max_iter:
        step += 1
        size = rows.size * len(edges)
        cols = [x.ravel()[col[:size]].reshape(rows.size, -1) for col in columns]
        loo = _leave_one_out(cols, weights)
        g = np.bincount(flat[:loo.size], weights=loo.ravel(), minlength=x.size).reshape(x.shape)
        lo = (x[:, None, :] @ g[:, :, None])[:, 0, 0]   # form value at each unit iterate
        xp = np.maximum(x, _TINY) ** exp
        up = (g / xp).max(axis=1)                        # Collatz-Wielandt ratio
        done = up - lo <= tol
        if done.any():
            fin = rows[done]
            lower[fin], upper[fin], vectors[fin] = lo[done], up[done], x[done]
            iterations[fin] = step
            converged[fin] = True
            keep = ~done
            rows, x, g, xp, lo, up = rows[keep], x[keep], g[keep], xp[keep], lo[keep], up[keep]
            if weights is not None:
                weights = weights[keep]
        y = g + xp                              # shifted iteration keeps x positive
        x = y ** (1.0 / exp)
        # each row's norm root is a scalar (libm) pow: numpy's array pow
        # can round the last bit differently
        norms = map(pow, (x ** r).sum(axis=1).tolist(), repeat(1.0 / r))
        x /= np.fromiter(norms, np.float64, count=len(x))[:, None]
    lower[rows], upper[rows], vectors[rows] = lo, up, x
    iterations[rows] = step
    return lower, upper, vectors, iterations, converged


def spectral_radius(h: Hypergraph, tol: float = 1e-9, max_iter: int = 10 ** 6) -> SpectralEstimate:
    """Certified bracket on the spectral radius of ``h``.

    Each shadow-connected component is iterated separately (the form
    decomposes over components and isolated vertices contribute zero);
    the estimate is the maximum over components, with the best
    component's iterate embedded as the returned vector.  Non-convergence
    within ``max_iter`` still returns a valid bracket, flagged via
    ``converged=False``.
    """
    if tol <= 0:
        raise ValueError(f"need tol > 0, got {tol}")
    comps = _shadow_components(h)
    edge_members = [members_of(e) for e in h.edges]
    best_lower = 0.0
    best_vec: np.ndarray | None = None
    overall_upper = 0.0
    total_iter = 0
    all_converged = True
    for comp in comps:
        local = {v: i for i, v in enumerate(comp)}
        comp_edges = [e for e in edge_members if e[0] in local]
        if not comp_edges:
            continue
        arr = np.array([[local[v] for v in e] for e in comp_edges], dtype=np.intp)
        lo, up, vec, iters, conv = _power_iterate(arr, None, len(comp), h.r, tol, max_iter)
        total_iter += int(iters[0])
        all_converged = all_converged and bool(conv[0])
        overall_upper = max(overall_upper, float(up[0]))
        if lo[0] > best_lower or best_vec is None:
            best_lower = float(lo[0])
            best_vec = np.zeros(h.n)
            best_vec[comp] = vec[0]
    if best_vec is None:  # no edges at all
        best_vec = np.full(h.n, h.n ** (-1.0 / h.r))
    lower = evaluate_form(h, best_vec)
    return SpectralEstimate(
        lower=lower,
        upper=max(overall_upper, lower),
        vector=best_vec,
        iterations=total_iter,
        converged=all_converged,
    )


@cache
def _universe_members(n: int, r: int) -> np.ndarray:
    """The (C(n, r), r) member array of ``universe_masks(n, r)``, in order."""
    arr = np.array([members_of(e) for e in universe_masks(n, r)], dtype=np.intp)
    arr.flags.writeable = False
    return arr


def _picked_edges(n: int, r: int, chosen) -> np.ndarray:
    """(B, C(n, r)) 0/1 array: entry [b, i] is bit i of the b-th chosen-universe mask."""
    width = len(universe_masks(n, r))
    nbytes = (width + 7) // 8
    chosen = list(chosen)
    if any(mask >> width for mask in chosen):
        raise ValueError(f"a chosen mask selects an edge beyond the {width} of the ({n}, {r}) universe")
    raw = np.frombuffer(b"".join(mask.to_bytes(nbytes, "little") for mask in chosen), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(chosen), nbytes), axis=1, count=width, bitorder="little")


def _spans_connected(members: np.ndarray, picked: np.ndarray, n: int) -> np.ndarray:
    """Per row of ``picked``: is the shadow connected and covering all n vertices?"""
    incidence = np.zeros((len(members), n), dtype=bool)
    incidence[np.arange(len(members))[:, None], members] = True
    shared = (picked[:, :, None].astype(bool) & incidence).transpose(0, 2, 1) @ incidence   # (B, n, n)
    reach = shared | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):      # paths of up to 2^k edges
        reach = reach @ reach
    return reach[:, 0].all(axis=1)


def spectral_radii(n: int, r: int, chosen, tol: float = 1e-9,
                   max_iter: int = 10 ** 6) -> list[SpectralEstimate]:
    """``spectral_radius`` of many graphs given as chosen-universe masks.

    Bit i of a mask selects edge ``universe_masks(n, r)[i]``.  Graphs
    whose shadow is connected on all n vertices run through one batched
    kernel call; the others go through ``spectral_radius`` one by one.
    Each estimate equals ``spectral_radius`` of the same graph.
    """
    if tol <= 0:
        raise ValueError(f"need tol > 0, got {tol}")
    u = universe_masks(n, r)
    members = _universe_members(n, r)
    picked = _picked_edges(n, r, chosen)
    spans = _spans_connected(members, picked, n)
    out: list[SpectralEstimate | None] = [None] * len(picked)
    for i in np.flatnonzero(~spans).tolist():
        edges = tuple(u[j] for j in np.flatnonzero(picked[i]).tolist())
        out[i] = spectral_radius(Hypergraph._from_sorted_masks(n, r, edges), tol, max_iter)
    rows = np.flatnonzero(spans)
    if not rows.size:
        return out
    picked = picked[rows]
    _, cw_upper, vectors, iterations, converged = _power_iterate(
        members, picked.astype(np.float64), n, r, tol, max_iter)
    # the form at each vector, summed over the graph's own edges exactly as
    # evaluate_form sums them; rows are grouped by edge count
    lower = np.empty(len(rows))
    sizes = picked.sum(axis=1)
    for m in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == m)
        e = members[np.nonzero(picked[sel])[1].reshape(len(sel), m)]      # (rows, m, r)
        lower[sel] = r * np.prod(vectors[sel[:, None, None], e], axis=2).sum(axis=1)
    upper = np.maximum(cw_upper, lower)
    for i, lo, up, vec, iters, conv in zip(rows.tolist(), lower.tolist(), upper.tolist(), vectors,
                                          iterations.tolist(), converged.tolist()):
        out[i] = SpectralEstimate(lower=lo, upper=up, vector=vec, iterations=iters, converged=conv)
    return out


_edge_members = lru_cache(maxsize=1 << 16)(members_of)  # edge mask -> vertex tuple


def _dyadic_sums(h: Hypergraph, x) -> tuple[int, int]:
    """(sum_e prod_{i in e} X_i, sum_i X_i^r) over integers X_i = x_i * 2^-s.

    ``s`` is the smallest binary exponent among x's nonzero coordinates,
    so every X_i is an integer and both sums are exact; they share the
    factor 2^{r s}, which cancels in the form ratio.
    """
    parts = [frexp(v) for v in np.asarray(x, dtype=np.float64).tolist()]
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
    ``Fraction`` arithmetic.
    """
    total, denom = _dyadic_sums(h, x)
    num, den = Fraction(t).as_integer_ratio()
    return h.r * den * total > num * denom


def threshold_verdict(h: Hypergraph, est: SpectralEstimate, t, tol: float = 1e-9) -> str:
    """Classify lambda(h) against threshold ``t`` from a computed estimate.

    ``certified_above`` requires the exact form value at the estimate's
    vector to exceed ``t``: a sound strict inequality.
    ``certified_below_or_equal`` means the floating upper bound clears
    ``t`` within ``tol`` (exact equality cases land here).  Anything else
    is ``undecided`` and deserves exact-arithmetic follow-up.
    """
    if certified_above(h, est.vector, t):
        return CERTIFIED_ABOVE
    if est.upper <= t + tol:
        return CERTIFIED_BELOW_OR_EQUAL
    return UNDECIDED


def exceeds_threshold(h: Hypergraph, t, tol: float = 1e-9, max_iter: int = 10 ** 6) -> str:
    """Decide lambda(h) vs t; see ``threshold_verdict`` for the semantics."""
    if tol <= 0:
        raise ValueError(f"need tol > 0, got {tol}")
    est = spectral_radius(h, tol, max_iter)
    return threshold_verdict(h, est, t, tol)

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
graph alone.

The form splits over shadow components, so there is one path, ``_bracket``:
it splits every graph of a batch into components, runs the components with
k vertices as rows of one kernel call in local labels, and reassembles each
graph's estimate from its own components.  An estimate therefore does not
depend on which graphs share its batch.  ``spectral_radii`` feeds it graphs
as chosen-universe masks; ``spectral_radius`` feeds it one graph's own
edges, so it never builds the ``(n, r)`` edge universe.

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


def _power_iterate(edges: np.ndarray, weights: np.ndarray, k: int, r: int, tol: float, max_iter: int):
    """Power-iterate B graphs on k vertices at once over one shared edge list.

    ``edges`` is an (E, r) array of vertex indices in [0, k) and row b of
    the (B, E) 0/1 array ``weights`` selects graph b's edges.  Every graph
    needs at least one edge and a shadow connected on all k vertices.
    Returns per-row arrays (lower, upper, vectors, iterations, converged):
    ``lower`` and ``upper`` bracket the last step taken, and each vector is
    l_r-normalized and strictly positive.
    """
    b = len(weights)
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


def _components(n: int, r: int, members: np.ndarray, picked: np.ndarray):
    """Shadow components of B graphs, grouped by vertex count for the kernel.

    Row b of the (B, E) 0/1 ``picked`` selects graph b's edges from the
    (E, r) ``members``, given in ascending mask order.  A component is
    named ``b * n + its lowest vertex``.  Returns each vertex's component
    name and rank in it (its local label), both (B, n), and per vertex
    count k the tuple (k, names, edges, weights): the components with k
    vertices and an edge, the union of their edges in local labels and
    ascending mask order, and the (components, edges) 0/1 selection.
    """
    b, width = picked.shape
    graph, edge = np.divmod(np.flatnonzero(picked), width)
    at = members[edge] + (graph * n)[:, None]      # each picked edge's members, as b * n + v
    # each edge joins its lowest member to the others; reach[b, v, w] says
    # whether v and w share a shadow component of graph b
    reach = np.zeros((b, n, n), dtype=bool)
    reach.ravel()[(at[:, :1] * n + members[edge]).ravel()] = True
    reach |= reach.transpose(0, 2, 1) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):      # paths of up to 2^k edges
        reach = reach @ reach
    name = reach.argmax(axis=2) + np.arange(b)[:, None] * n
    local = np.einsum("bvw,vw->bv", reach.view(np.uint8), np.tri(n, k=-1, dtype=np.uint8))
    size = np.einsum("bvw->bv", reach.view(np.uint8)).ravel()
    comps = np.flatnonzero((name.ravel() == np.arange(b * n)) & (size > 1))
    # each picked edge's component and local mask
    edge_comp = name.ravel()[at[:, 0]]
    keys = np.left_shift(np.uint64(1), local.astype(np.uint64)).ravel()[at].sum(axis=1, dtype=np.uint64)
    row = np.zeros(b * n, dtype=np.intp)     # a component's row in its group
    groups = []
    for k in set(size[comps].tolist()):
        rows = comps[size[comps] == k]
        row[rows] = np.arange(len(rows))
        sel = np.flatnonzero(size[edge_comp] == k)
        masks = np.sort(keys[sel])
        masks = masks[np.append(True, masks[1:] != masks[:-1])]
        column = np.searchsorted(masks, keys[sel])
        some = np.empty(len(masks), dtype=np.intp)
        some[column] = sel                     # edges of one mask share their local labels
        weights = np.zeros((len(rows), len(masks)))
        weights[row[edge_comp[sel]], column] = 1.0
        groups.append((k, rows, local.ravel()[at[some]].astype(np.intp), weights))
    return name, local, groups


def _check_tol(tol: float) -> None:
    if not 0 < tol < np.inf:
        raise ValueError(f"need a finite tol > 0, got {tol}")


def _bracket(n: int, r: int, members: np.ndarray, picked: np.ndarray, tol: float,
             max_iter: int) -> list[SpectralEstimate]:
    """One estimate per graph that ``picked`` selects from ``members`` (as in
    ``_components``), reassembled from the kernel rows of its components.
    """
    _check_tol(tol)
    b, width = picked.shape
    name, local, groups = _components(n, r, members, picked)
    runs = [(k, rows, _power_iterate(edges, weights, k, r, tol, max_iter))
            for k, rows, edges, weights in groups]
    # per component name, filled where a component ran (allocated after the
    # kernel runs, which keeps them off the memory peak)
    comp_lower, comp_upper = np.full(b * n, -np.inf), np.zeros(b * n)
    comp_iter, comp_conv = np.zeros(b * n, dtype=np.intp), np.ones(b * n, dtype=bool)
    comp_vec = np.zeros((b * n, n))
    for k, rows, run in runs:
        comp_lower[rows], comp_upper[rows], comp_vec[rows, :k], comp_iter[rows], comp_conv[rows] = run
    # each graph: the largest upper bound, the summed iterations, all
    # converged, and the vector of its lowest-named component of largest lower
    upper = comp_upper.reshape(b, n).max(axis=1)
    iterations = comp_iter.reshape(b, n).sum(axis=1)
    converged = comp_conv.reshape(b, n).all(axis=1)
    best = comp_lower.reshape(b, n).argmax(axis=1) + np.arange(b) * n
    vectors = np.where(name == best[:, None], comp_vec[best[:, None], local], 0.0)
    vectors[~picked.any(axis=1)] = n ** (-1.0 / r)      # edgeless graphs: the uniform vector
    # the form at each vector, summed over the graph's own edges exactly as
    # evaluate_form sums them; graphs are grouped by edge count
    graph, edge = np.divmod(np.flatnonzero(picked), width)
    coords = vectors.ravel()[members[edge] + (graph * n)[:, None]]
    prods = coords[:, 0]
    for j in range(1, r):                      # np.prod's order, column by column
        prods = prods * coords[:, j]
    sizes = np.bincount(graph, minlength=b)
    starts = np.cumsum(sizes) - sizes
    lower = np.empty(b)
    for m in set(sizes.tolist()):
        sel = np.flatnonzero(sizes == m)
        lower[sel] = r * prods[starts[sel, None] + np.arange(m)].sum(axis=1)
    upper = np.maximum(upper, lower)
    return list(map(SpectralEstimate, lower.tolist(), upper.tolist(), vectors, iterations.tolist(),
                    converged.tolist()))


def spectral_radius(h: Hypergraph, tol: float = 1e-9, max_iter: int = 10 ** 6) -> SpectralEstimate:
    """Certified bracket on the spectral radius of ``h``.

    The form decomposes over shadow components (isolated vertices
    contribute zero), so each component is iterated on its own vertices;
    the estimate takes the largest upper bound over components and embeds
    the iterate of the component with the largest lower bound as the
    returned vector.  Non-convergence within ``max_iter`` still returns a
    valid bracket, flagged via ``converged=False``.
    """
    return _bracket(h.n, h.r, _edge_index_array(h), np.ones((1, h.m), dtype=np.uint8), tol, max_iter)[0]


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
    if any(mask < 0 for mask in chosen):
        raise ValueError("a chosen mask is negative")
    if any(mask >> width for mask in chosen):
        raise ValueError(f"a chosen mask selects an edge beyond the {width} of the ({n}, {r}) universe")
    raw = np.frombuffer(b"".join(mask.to_bytes(nbytes, "little") for mask in chosen), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(chosen), nbytes), axis=1, count=width, bitorder="little")


def spectral_radii(n: int, r: int, chosen, tol: float = 1e-9,
                   max_iter: int = 10 ** 6) -> list[SpectralEstimate]:
    """``spectral_radius`` of many graphs given as chosen-universe masks.

    Bit i of a mask selects edge ``universe_masks(n, r)[i]``.  Each
    estimate equals ``spectral_radius`` of the same graph, whichever
    graphs share its call.
    """
    return _bracket(n, r, _universe_members(n, r), _picked_edges(n, r, chosen), tol, max_iter)


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
    _check_tol(tol)
    if certified_above(h, est.vector, t):
        return CERTIFIED_ABOVE
    if est.upper <= t + tol:
        return CERTIFIED_BELOW_OR_EQUAL
    return UNDECIDED


def exceeds_threshold(h: Hypergraph, t, tol: float = 1e-9, max_iter: int = 10 ** 6) -> str:
    """Decide lambda(h) vs t; see ``threshold_verdict`` for the semantics."""
    est = spectral_radius(h, tol, max_iter)
    return threshold_verdict(h, est, t, tol)

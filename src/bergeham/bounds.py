"""Exact binomial arithmetic, the binomial polynomial and its inverse,
the Bai-Lu edge/spectral bound, and the threshold formulas used by the
verification campaigns.

All threshold comparisons that decide a campaign are exact integer
arithmetic; floating point appears only inside the monotone root-finding
of ``binom_poly_inverse`` and in ``bai_lu_bound`` values derived from it.
Each is one array body: a scalar runs as a one-element array and comes
back as a float, a numpy array comes back as float64 in its own shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import comb, factorial

import numpy as np

#: Thresholds implemented by :func:`threshold`.
THRESHOLD_NAMES = (
    "edge_cycle",      # |H| >  C(n-1, r)  forces a Hamiltonian Berge cycle (unless K_{n-1}^r + e)
    "edge_path",       # |H| >= C(n-1, r)  forces a Hamiltonian Berge path  (unless K_{n-1}^r + v)
    "spectral_cycle",  # lambda >  C(n-2, r-1), same exception
    "spectral_path",   # lambda >= C(n-2, r-1), same exception
    "klm_1i",          # min degree >= C(floor((n-1)/2), r-1) + 1 forces a Hamiltonian Berge cycle
    "klm_1ii",         # min degree >= r, for n-1 >= r >= n/2
    "klm_2i",          # min degree >= C(floor(n/2), r-1) + 1 forces Hamiltonian-connectedness
    "klm_2ii",         # min degree >= r - 1, for n-1 >= r > n/2 >= 3
)


@dataclass(frozen=True)
class Threshold:
    name: str
    value: int


def binom(a: int, b: int) -> int:
    """Exact binomial coefficient; 0 when b > a, error on negative input."""
    if a < 0 or b < 0:
        raise ValueError(f"binom needs nonnegative arguments, got ({a}, {b})")
    return comb(a, b)


def binom_poly(r: int, x):
    """The degree-r polynomial x(x-1)..(x-r+1)/r! extending binom(x, r).

    Exact (int) for integer ``x``, float otherwise; numpy arrays take the
    float path and are evaluated elementwise in float64.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    exact = isinstance(x, (int, np.integer))
    acc = 1 if exact else 1.0
    for i in range(r):
        acc *= x - i
    return acc // factorial(r) if exact else acc / factorial(r)


def _checked(name: str, v) -> np.ndarray:
    # v as a flat float64 array, every element finite and nonnegative
    try:
        a = np.asarray(v, dtype=np.float64).reshape(-1)
    except OverflowError:
        raise ValueError(f"{name}={v} is too large for a float") from None
    for bad, need in ((~np.isfinite(a), f"a finite {name}"), (a < 0, f"{name} >= 0")):
        if bad.any():
            raise ValueError(f"need {need}, got {name}={a[bad][0]}")
    return a


def binom_poly_inverse(r: int, y):
    """The unique x >= r-1 with binom_poly(r, x) = y, for y >= 0.

    Bracketed bisection to adjacent floats followed by a Newton polish;
    results land exactly on integers whenever y is an exact binomial value
    (checked in integer arithmetic, not floating point).  One array body
    runs every element at once, scalars as one-element arrays.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    ys = _checked("y", y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (hi - r + 1)^r >= y * r! guarantees binom_poly(r, hi) >= y; the root is
        # libm's pow, as numpy's array pow can round the last bit differently
        roots = map(pow, (ys * factorial(r)).tolist(), repeat(1.0 / r))
        lo, hi = np.full(ys.shape, float(r - 1)), np.fromiter(roots, np.float64, count=ys.size) + r
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            moving = (mid != lo) & (mid != hi)
            if not moving.any():
                break
            below = binom_poly(r, mid) < ys
            np.copyto(lo, mid, where=moving & below)
            np.copyto(hi, mid, where=moving & ~below)
        x = 0.5 * (lo + hi)
        live = np.ones(ys.shape, dtype=bool)  # stops at its first px <= 0 or deriv <= 0
        for _ in range(2):
            px = binom_poly(r, x)
            deriv = px * sum(1.0 / (x - i) for i in range(r))
            live &= ~((px <= 0.0) | (deriv <= 0.0))
            step = x - (px - ys) / deriv
            step = np.where(lo > step, lo, step)  # min(max(step, lo), hi), as lo < hi throughout
            x = np.where(live, np.where(hi < step, hi, step), x)
    if not np.isfinite(x).all():
        raise ValueError(f"cannot invert binom_poly({r}, x) = {ys[~np.isfinite(x)][0]}: "
                         "the polynomial overflows a float first")
    cand = np.rint(x)
    for i in np.flatnonzero((ys == np.floor(ys)) & (cand >= r - 1)).tolist():
        if comb(int(cand[i]), r) == int(ys[i]):
            x[i] = cand[i]
    x[ys == 0.0] = r - 1
    return x.reshape(y.shape) if isinstance(y, np.ndarray) else x.item()


def bai_lu_bound(r: int, m):
    """Upper bound on the spectral radius of any r-graph with m edges.

    This is the Bai-Lu function f_r(m) = binom_poly(r-1, binom_poly_inverse(r, m) - 1);
    it is tight exactly for complete r-graphs plus isolated vertices, and
    for r = 2 it reduces to Stanley's classic bound (sqrt(1+8m)-1)/2.
    Exact at integer x; one array body, as in :func:`binom_poly_inverse`.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    x = binom_poly_inverse(r, _checked("m", m))
    f = binom_poly(r - 1, x - 1.0)  # x - 1 itself at r = 2
    for i in np.flatnonzero(x == np.floor(x)).tolist():
        f[i] = float(comb(int(x[i]) - 1, r - 1))
    return f.reshape(m.shape) if isinstance(m, np.ndarray) else f.item()


def threshold(name: str, n: int, r: int) -> Threshold:
    """Exact integer threshold for the named sufficient condition at (n, r).

    Raises ValueError when the named variant does not apply at (n, r).
    """
    if name not in THRESHOLD_NAMES:
        raise ValueError(f"unknown threshold {name!r}; expected one of {THRESHOLD_NAMES}")
    if name in ("edge_cycle", "edge_path", "spectral_cycle", "spectral_path"):
        if not (r >= 3 and n >= r + 2):
            raise ValueError(f"{name} needs n >= r+2 and r >= 3, got (n={n}, r={r})")
        if name.startswith("edge"):
            return Threshold(name, comb(n - 1, r))
        return Threshold(name, comb(n - 2, r - 1))
    if not n > r >= 3:
        raise ValueError(f"{name} needs n > r >= 3, got (n={n}, r={r})")
    if name == "klm_1i":
        if 2 * r > n - 1:
            raise ValueError(f"klm_1i needs r <= (n-1)/2, got (n={n}, r={r})")
        return Threshold(name, comb((n - 1) // 2, r - 1) + 1)
    if name == "klm_1ii":
        if not (n - 1 >= r and 2 * r >= n):
            raise ValueError(f"klm_1ii needs n-1 >= r >= n/2, got (n={n}, r={r})")
        return Threshold(name, r)
    if name == "klm_2i":
        if 2 * r > n:
            raise ValueError(f"klm_2i needs r <= n/2, got (n={n}, r={r})")
        return Threshold(name, comb(n // 2, r - 1) + 1)
    # klm_2ii
    if not (n - 1 >= r and 2 * r > n and n >= 6):
        raise ValueError(f"klm_2ii needs n-1 >= r > n/2 >= 3, got (n={n}, r={r})")
    return Threshold(name, r - 1)


def convexity_chain_lines(n: int, r: int) -> list[dict]:
    """The edge-count convexity chain at (n, r), line by line, in exact ints.

    For n >= 2r+1 the chain bounds C(n-2,r) + 2*C(floor((n-1)/2), r-1) by
    C(n-1, r) through the convexity middle step; for r+3 <= n <= 2r the
    degree bounds are r-1 and r-2 instead and the chain is a single
    inequality.  Each returned line carries its own verdict so a caller
    can report exactly which step fails (none do, on the supported range).
    """
    if r < 3:
        raise ValueError(f"need r >= 3, got r={r}")
    if n < r + 3:
        raise ValueError(f"need n >= r+3, got (n={n}, r={r})")
    if n <= 2 * r:
        lhs = comb(n - 2, r) + (r - 1) + (r - 2)
        rhs = comb(n - 1, r)
        return [
            {
                "line": "C(n-2,r) + (r-1) + (r-2) <= C(n-1,r)",
                "lhs": lhs,
                "rhs": rhs,
                "holds": lhs <= rhs,
            }
        ]
    half_hi = (n - 1) // 2
    half_lo = (n - 2) // 2
    a = comb(n - 2, r) + 2 * comb(half_hi, r - 1)
    b = comb(n - 2, r) + comb(half_hi + half_lo, r - 1) + comb(half_hi - half_lo, r - 1)
    c = comb(n - 2, r) + comb(n - 2, r - 1)
    d = comb(n - 1, r)
    return [
        {"line": "two equal degree terms <= spread pair (convexity)", "lhs": a, "rhs": b, "holds": a <= b},
        {"line": "spread pair = C(n-2,r) + C(n-2,r-1)", "lhs": b, "rhs": c, "holds": b == c},
        {"line": "Pascal: C(n-2,r) + C(n-2,r-1) = C(n-1,r)", "lhs": c, "rhs": d, "holds": c == d},
    ]


def check_convexity_chain(n: int, r: int) -> bool:
    """True when every line of the convexity chain holds at (n, r)."""
    return all(line["holds"] for line in convexity_chain_lines(n, r))

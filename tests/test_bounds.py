import random
from math import comb, factorial, sqrt

import numpy as np
import pytest

from bergeham.bounds import (
    THRESHOLD_NAMES,
    bai_lu_bound,
    binom,
    binom_poly,
    binom_poly_inverse,
    check_convexity_chain,
    convexity_chain_lines,
    threshold,
)


def test_binom_values():
    assert binom(5, 3) == 10
    assert binom(20, 10) == 184756
    assert binom(4, 6) == 0
    with pytest.raises(ValueError):
        binom(-1, 2)
    with pytest.raises(ValueError):
        binom(3, -1)


def test_binom_poly_values():
    assert binom_poly(3, 5) == 10
    assert binom_poly(3, 4) == 4
    assert binom_poly(2, 5.0) == 10.0
    assert isinstance(binom_poly(3, 5), int)
    assert isinstance(binom_poly(2, 5.0), float)
    # agrees with binom at integers
    for r in range(1, 6):
        for x in range(r, 15):
            assert binom_poly(r, x) == comb(x, r)


def test_binom_poly_inverse_values():
    assert binom_poly_inverse(3, 10) == 5.0
    assert binom_poly_inverse(3, 4) == 4.0
    assert binom_poly_inverse(3, 0) == 2.0
    assert binom_poly_inverse(4, 0) == 3.0
    with pytest.raises(ValueError):
        binom_poly_inverse(3, -1)


def test_inverse_round_trip_up_to_1e12():
    rng = random.Random(0)
    for _ in range(400):
        r = rng.randint(1, 8)
        y = rng.random() * 10 ** rng.randint(0, 12)
        x = binom_poly_inverse(r, y)
        assert x >= r - 1
        assert abs(binom_poly(r, x) - y) <= 1e-10 * max(1.0, y), (r, y)


def test_inverse_is_monotone():
    rng = random.Random(1)
    ys = sorted(rng.random() * 1e8 for _ in range(200))
    xs = [binom_poly_inverse(5, y) for y in ys]
    assert all(a <= b for a, b in zip(xs, xs[1:]))
    strict = [(a, b) for (a, b), (ya, yb) in zip(zip(xs, xs[1:]), zip(ys, ys[1:])) if ya < yb]
    assert all(a < b for a, b in strict)


def test_bai_lu_values():
    assert bai_lu_bound(3, 10) == 6.0
    stanley = (sqrt(1 + 8 * 10) - 1) / 2
    assert abs(bai_lu_bound(2, 10) - stanley) < 1e-10
    assert abs(bai_lu_bound(2, 10) - 4.0) < 1e-9
    for k, r in [(5, 3), (6, 3), (6, 4), (7, 5)]:
        assert bai_lu_bound(r, comb(k, r)) == float(comb(k - 1, r - 1))


def test_bai_lu_matches_stanley_closed_form():
    rng = random.Random(2)
    ms = [0, 1, 2, 3, 10, 45, 100, 12345] + [rng.randint(1, 10 ** 9) for _ in range(50)]
    for m in ms:
        closed = (sqrt(1 + 8 * m) - 1) / 2
        assert abs(bai_lu_bound(2, m) - closed) <= 1e-10 * max(1.0, closed), m


def test_bai_lu_vectorized_matches_scalar():
    ms = np.arange(0, 500, dtype=np.float64)
    va = bai_lu_bound(4, ms)
    for i in (0, 1, 5, 70, 499):
        assert va[i] == bai_lu_bound(4, int(ms[i]))
    assert va[comb(8, 4)] == float(comb(7, 3))


def test_array_arguments_give_exactly_the_scalar_values():
    rng = np.random.default_rng(5)
    ys = np.concatenate([np.arange(0, 300, dtype=np.float64), rng.random(200) * 1e9])
    for r in range(1, 7):
        xs = binom_poly_inverse(r, ys.reshape(20, 25))
        assert xs.shape == (20, 25) and xs.dtype == np.float64
        assert xs.ravel().tolist() == [binom_poly_inverse(r, float(y)) for y in ys]
        assert binom_poly(r, xs).ravel().tolist() == [binom_poly(r, float(x)) for x in xs.flat]
        if r >= 2:
            assert bai_lu_bound(r, ys).tolist() == [bai_lu_bound(r, float(y)) for y in ys]
    with pytest.raises(ValueError, match="need y >= 0"):
        binom_poly_inverse(3, np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="need m >= 0"):
        bai_lu_bound(3, np.array([1.0, -1.0]))


# The scalar bisection that binom_poly_inverse and bai_lu_bound ran on
# every element before they became one array body, with binom_poly's
# float path, kept as the reference that body must match bit for bit.
# One line is spelled out: the derivative's sum adds left to right, as
# Python's sum() did for floats before 3.12 (3.12 compensates, which can
# move the last bit).
def oracle_poly(r: int, x: float) -> float:
    acc = 1.0
    for i in range(r):
        acc *= x - i
    return acc / factorial(r)


def _grow_upper_bracket(r: int, y: float) -> float:
    # (hi - r + 1)^r >= y * r!  guarantees binom_poly(r, hi) >= y.
    return (y * factorial(r)) ** (1.0 / r) + r


def oracle_inverse(r: int, y):
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    y = float(y)
    if y < 0:
        raise ValueError(f"need y >= 0, got y={y}")
    if y == 0.0:
        return float(r - 1)
    lo, hi = float(r - 1), _grow_upper_bracket(r, y)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if oracle_poly(r, mid) < y:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(2):
        px = oracle_poly(r, x)
        if px <= 0.0:
            break
        total = 0
        for i in range(r):
            total += 1.0 / (x - i)
        deriv = px * total
        if deriv <= 0.0:
            break
        x -= (px - y) / deriv
        x = min(max(x, lo), hi) if lo < hi else x
    cand = round(x)
    if cand >= r - 1 and float(cand).is_integer() and y.is_integer():
        if comb(int(cand), r) == int(y):
            return float(cand)
    return x


def oracle_bai_lu(r: int, m):
    if r < 2:
        raise ValueError(f"need r >= 2, got r={r}")
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    x = oracle_inverse(r, float(m))
    if r - 1 == 1:
        return x - 1.0
    if float(x).is_integer():
        return float(comb(int(x) - 1, r - 1))
    return oracle_poly(r - 1, x - 1.0)


def assert_same_bits(r, ys):
    """Both functions on the float64 array ``ys`` equal the oracle, as int64 views."""
    ys = np.asarray(ys, dtype=np.float64)
    pairs = [(binom_poly_inverse, oracle_inverse)] + ([(bai_lu_bound, oracle_bai_lu)] if r >= 2 else [])
    for new, oracle in pairs:
        got = new(r, ys).view(np.int64)
        want = np.array([oracle(r, y) for y in ys.tolist()], dtype=np.float64).view(np.int64)
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, (new.__name__, r, ys[bad[:5]].tolist())


def test_the_array_body_equals_the_scalar_oracle_on_binomials_and_their_neighbours():
    for r in range(1, 9):
        values = {comb(k, r) + d for k in range(201) for d in (-1, 0, 1)}
        assert_same_bits(r, sorted(v for v in values if v >= 0))


def test_the_array_body_equals_the_scalar_oracle_on_a_criterion_5_sample():
    # the (r, n, m) triples of acceptance criterion 5: r = 3..8, n = r+2..20, every m
    blocks = [(r, comb(n, r) + 1) for r in range(3, 9) for n in range(r + 2, 21)]
    rs = np.concatenate([np.full(size, r) for r, size in blocks])
    ms = np.concatenate([np.arange(size) for _, size in blocks])
    assert rs.size == 694_334
    pick = np.random.default_rng(20_000).choice(rs.size, 20_000, replace=False)
    for r in range(3, 9):
        sample = ms[pick[rs[pick] == r]]
        got = bai_lu_bound(r, sample.astype(np.float64)).view(np.int64)
        want = np.array([oracle_bai_lu(r, m) for m in sample.tolist()], dtype=np.float64).view(np.int64)
        assert np.array_equal(got, want), r


def test_the_array_body_equals_the_scalar_oracle_on_random_values():
    rng = np.random.default_rng(15)
    for r in range(1, 9):
        ys = np.concatenate([[0.0, 1e-300, 0.5, 1.0], 10.0 ** rng.uniform(-6, 15, 1_000)])
        assert_same_bits(r, ys)
        # near the top of the float range, where the "+ r" of the upper
        # bracket is lost in rounding and the bracket's top can evaluate below y
        top = np.log10(np.finfo(np.float64).max / factorial(r)) - 1
        assert_same_bits(r, 10.0 ** rng.uniform(top - 30, top, 100))


def test_scalars_come_back_as_floats_and_arrays_keep_their_shape():
    for f, r in ((binom_poly_inverse, 3), (bai_lu_bound, 3), (bai_lu_bound, 2)):
        for v in (10, 10.0, np.float64(10.0), np.int64(10)):
            assert type(f(r, v)) is float
        for shape in ((), (4,), (2, 3), (0,), (3, 0)):
            ys = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
            out = f(r, ys)
            assert type(out) is np.ndarray and out.shape == shape and out.dtype == np.float64
            assert out.ravel().tolist() == [f(r, int(y)) for y in ys.flat]


@pytest.mark.parametrize("bad, match", [
    (float("nan"), "need a finite {v}, got {v}=nan"),
    (float("inf"), "need a finite {v}, got {v}=inf"),
    (np.array([1.0, np.nan]), "need a finite {v}, got {v}=nan"),
    (10 ** 400, "{v}=1000+ is too large for a float"),
    (1e305, r"cannot invert binom_poly\(8, x\) = 1e\+305"),  # 1e305 * 8! overflows
    (-1, "need {v} >= 0, got {v}=-1.0"),
], ids=["nan", "inf", "nan-in-array", "int-past-floats", "times-8!-overflows", "negative"])
def test_the_bounds_name_a_value_they_cannot_take(bad, match):
    with pytest.raises(ValueError, match=match.format(v="y")):
        binom_poly_inverse(8, bad)
    with pytest.raises(ValueError, match=match.format(v="m")):
        bai_lu_bound(8, bad)


def test_threshold_values():
    assert threshold("edge_cycle", 6, 3).value == 10
    assert threshold("edge_path", 6, 3).value == 10
    assert threshold("spectral_cycle", 6, 3).value == 6
    assert threshold("spectral_path", 6, 3).value == 6
    assert threshold("klm_1i", 11, 3).value == comb(5, 2) + 1 == 11
    assert threshold("klm_1ii", 6, 4).value == 4
    assert threshold("klm_2i", 10, 3).value == comb(5, 2) + 1
    assert threshold("klm_2ii", 7, 4).value == 3


def test_threshold_applicability_errors():
    with pytest.raises(ValueError):
        threshold("edge_cycle", 4, 3)  # needs n >= r+2
    with pytest.raises(ValueError):
        threshold("klm_1i", 6, 3)  # needs r <= (n-1)/2
    with pytest.raises(ValueError):
        threshold("klm_1ii", 12, 3)  # needs r >= n/2
    with pytest.raises(ValueError):
        threshold("klm_2ii", 5, 3)  # needs n/2 >= 3
    with pytest.raises(ValueError):
        threshold("nope", 6, 3)


def test_all_threshold_names_covered():
    n, r = 14, 4
    usable = 0
    for name in THRESHOLD_NAMES:
        try:
            threshold(name, n, r)
            usable += 1
        except ValueError:
            pass
    assert usable >= 6


def test_convexity_chain_examples():
    assert check_convexity_chain(7, 3)
    assert check_convexity_chain(9, 4)
    assert check_convexity_chain(6, 3)  # small range: n <= 2r
    lines = convexity_chain_lines(7, 3)
    assert all(ln["holds"] for ln in lines)
    assert lines[-1]["rhs"] == comb(6, 3)
    with pytest.raises(ValueError):
        check_convexity_chain(5, 3)  # needs n >= r+3


def test_convexity_chain_small_sweep():
    for r in range(3, 8):
        for n in range(r + 3, 25):
            assert check_convexity_chain(n, r), (n, r)


def test_bound_implication_round_trip_small():
    # bai_lu_bound(r, m) >= C(n-2, r-1) forces m >= C(n-1, r)
    for r in range(3, 6):
        for n in range(r + 2, 12):
            t_spec = comb(n - 2, r - 1)
            t_edge = comb(n - 1, r)
            for m in range(comb(n, r) + 1):
                if bai_lu_bound(r, m) >= t_spec:
                    assert m >= t_edge, (n, r, m)

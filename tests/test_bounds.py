import random
from math import comb, sqrt

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

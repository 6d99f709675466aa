"""Acceptance suite: every campaign-level guarantee, at its stated tolerance.

Each test prints one PASS/FAIL line so a plain ``pytest -v -s
tests/test_acceptance.py`` doubles as the acceptance report.  The heavy
sweeps use every available core (capped at 8).
"""

import os
import random
import time
from collections import defaultdict
from itertools import combinations
from math import comb

import numpy as np

from bergeham.berge import BergeDecider
from bergeham.bounds import bai_lu_bound, check_convexity_chain
from bergeham.campaigns import verify_edge_theorem, verify_lemma_r_plus_2
from bergeham.canonical import canonical_form
from bergeham.enumeration import chosen_mask, hypergraph_at
from bergeham.hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
    universe_masks,
)
from bergeham.spectral import (
    CERTIFIED_ABOVE,
    evaluate_form,
    exceeds_threshold,
    gradient_form,
    spectral_radii,
    spectral_radius,
)
from conftest import random_hypergraph
from oracles import brute_force_oracle

JOBS = min(8, os.cpu_count() or 1)


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}{'  [' + detail + ']' if detail else ''}", flush=True)


def test_criterion_1_base_case_replication():
    # n-vertex (n-2)-graphs: at m = n the non-Hamiltonian graphs are exactly
    # the labeled pendant-clique copies (30/60/105/168); at m = n+1 none.
    expected_copies = {5: 30, 6: 60, 7: 105, 8: 168}
    t0 = time.time()
    ok = True
    details = []
    for n in (5, 6, 7, 8):
        assert expected_copies[n] == n * comb(n - 1, n - 3)
        rep = verify_lemma_r_plus_2(n, jobs=JOBS)
        level_n, level_n1 = rep.levels
        good = (
            rep.passed
            and level_n.negative == expected_copies[n]
            and len(level_n.exceptions) == 1
            and level_n.exceptions[0].code == canonical_form(clique_plus_pendant(n, n - 2)).compact()
            and level_n1.negative == 0
        )
        ok = ok and good
        details.append(f"n={n}:{'ok' if good else 'FAIL'}({level_n.negative} exc)")
    detail = " ".join(details) + f" {time.time() - t0:.0f}s"
    _verdict("1 base-case replication n=5..8", ok, detail)
    assert ok, detail


def test_criterion_2_edge_threshold_campaigns():
    t0 = time.time()
    ok = True
    details = []
    for n, r in ((5, 3), (6, 3), (6, 4), (7, 5)):
        rep = verify_edge_theorem(n, r, jobs=JOBS)
        cycle, closure, path = rep.levels
        good = (
            rep.passed
            and cycle.negative == n * comb(n - 1, r - 1)
            and len(cycle.exceptions) == 1
            and cycle.exceptions[0].code == canonical_form(clique_plus_pendant(n, r)).compact()
            and closure.negative == 0
            and path.negative == n
            and len(path.exceptions) == 1
            and path.exceptions[0].code == canonical_form(clique_plus_isolated(n, r)).compact()
        )
        ok = ok and good
        details.append(f"({n},{r}):{'ok' if good else 'FAIL'}")
    detail = " ".join(details) + f" {time.time() - t0:.0f}s"
    _verdict("2 edge-threshold campaigns", ok, detail)
    assert ok, detail


def test_criterion_3_spectral_closed_forms():
    ok = True
    details = []
    for k, r in ((4, 3), (5, 3), (6, 3), (6, 4), (7, 5)):
        est = spectral_radius(complete(k, r), tol=1e-10)
        target = comb(k - 1, r - 1)
        good = (
            est.lower <= target + 1e-8
            and target - 1e-8 <= est.upper
            and est.upper - est.lower <= 1e-8
        )
        ok = ok and good
        details.append(f"K_{k}^{r}:{'ok' if good else 'FAIL'}")
    for n, r in ((5, 3), (6, 3), (7, 4), (7, 5)):
        est = spectral_radius(clique_plus_isolated(n, r), tol=1e-10)
        target = comb(n - 2, r - 1)
        good = abs(est.lower - target) <= 1e-8 and abs(est.upper - target) <= 1e-8
        ok = ok and good
        details.append(f"K+v({n},{r}):{'ok' if good else 'FAIL'}")
    for n, r in ((6, 3), (7, 4), (7, 5)):
        verdict = exceeds_threshold(clique_plus_pendant(n, r), comb(n - 2, r - 1), tol=1e-9)
        good = verdict == CERTIFIED_ABOVE
        ok = ok and good
        details.append(f"K+e({n},{r}):{'ok' if good else 'FAIL'}")
    detail = " ".join(details)
    _verdict("3 spectral closed forms", ok, detail)
    assert ok, detail


def test_criterion_4_bai_lu_property_suite():
    # one spectral_radii call per (n, r) and one bai_lu_bound call per r;
    # both give each graph what its scalar call gives, bit for bit.  The
    # batched layers take at most 64 universe edges, so the (8, 4) graphs,
    # on 70, go through spectral_radius one by one
    t0 = time.time()
    rng = random.Random(20240)
    drawn = defaultdict(list)  # (n, r) -> chosen-universe masks, in draw order
    for _ in range(10_000):
        n = rng.randint(5, 8)
        r = rng.randint(3, n - 2)
        drawn[n, r].append(chosen_mask(n, r, random_hypergraph(rng, n, r).edges))
    uppers, edge_counts = defaultdict(list), defaultdict(list)
    for (n, r), masks in drawn.items():
        if comb(n, r) <= 64:
            ests = spectral_radii(n, r, masks, tol=1e-10, max_iter=50_000)
        else:
            ests = [spectral_radius(hypergraph_at(n, r, mask), tol=1e-10, max_iter=50_000) for mask in masks]
        uppers[r] += [est.upper for est in ests]
        edge_counts[r] += [mask.bit_count() for mask in masks]
    violations = sum(
        int(np.count_nonzero(np.array(uppers[r]) > bai_lu_bound(r, np.array(edge_counts[r], dtype=np.float64)) + 1e-9))
        for r in uppers
    )
    ok = violations == 0
    detail = f"10^4 graphs, {violations} violations, {time.time() - t0:.0f}s"
    _verdict("4 spectral edge-bound suite", ok, detail)
    assert ok, detail


def test_criterion_5_implication_chain_exhaustive():
    # spectral bound at the threshold forces the edge count over its own
    # threshold; conclusion compared in exact integers for every m
    t0 = time.time()
    violations = 0
    for r in range(3, 9):
        for n in range(r + 2, 21):
            t_spec = comb(n - 2, r - 1)
            t_edge = comb(n - 1, r)
            ms = np.arange(comb(n, r) + 1, dtype=np.float64)
            f = bai_lu_bound(r, ms)
            hyp = f >= float(t_spec)
            concl = ms.astype(np.int64) >= t_edge
            violations += int(np.count_nonzero(hyp & ~concl))
    ok = violations == 0
    detail = f"r=3..8, n=r+2..20, all m; {violations} violations, {time.time() - t0:.0f}s"
    _verdict("5 implication chain audit", ok, detail)
    assert ok, detail


def test_criterion_6_convexity_chain_exhaustive():
    bad = [(n, r) for r in range(3, 13) for n in range(r + 3, 41) if not check_convexity_chain(n, r)]
    ok = not bad
    _verdict("6 convexity chain sweep", ok, f"r=3..12, n=r+3..40, failures: {bad}")
    assert ok, bad


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    mismatches = 0

    # every 3-graph on 5 vertices, at every edge count, cycles and paths
    u5 = universe_masks(5, 3)
    d5 = BergeDecider(5, u5)
    for chosen in range(1 << 10):
        h = Hypergraph(5, 3, [u5[i] for i in range(10) if (chosen >> i) & 1])
        if d5.cycle_exists(chosen) != brute_force_oracle(h, "cycle"):
            mismatches += 1
        if d5.path_exists(chosen) != brute_force_oracle(h, "path"):
            mismatches += 1

    # 10^4 seeded random instances on 6 and 7 vertices
    rng = random.Random(20241)
    for _ in range(10_000):
        n = rng.choice((6, 7))
        r = rng.randint(3, n - 2)
        h = random_hypergraph(rng, n, r)
        d = BergeDecider.for_hypergraph(h)
        if d.cycle_exists(d.full_chosen) != brute_force_oracle(h, "cycle"):
            mismatches += 1
    ok = mismatches == 0
    detail = f"1024 exhaustive + 10^4 random, {mismatches} mismatches, {time.time() - t0:.0f}s"
    _verdict("7 oracle equivalence", ok, detail)
    assert ok, detail


def test_criterion_8_minimal_complete_graph_is_uniquely_hamiltonian():
    ok = True
    details = []
    for r in (3, 4, 5):
        n = r + 1
        u = universe_masks(n, r)
        d = BergeDecider(n, u)
        hams = [chosen for chosen in range(1 << len(u)) if d.cycle_exists(chosen)]
        good = hams == [(1 << len(u)) - 1]  # only the complete graph
        ok = ok and good
        details.append(f"r={r}:{'ok' if good else 'FAIL'}({len(hams)} hamiltonian)")
    detail = " ".join(details)
    _verdict("8 tightness of the vertex bound", ok, detail)
    assert ok, detail


def test_criterion_9_gradient_finite_difference_check():
    rng = random.Random(20242)
    npr = np.random.default_rng(20242)
    step = 1e-5
    bad = 0
    for _ in range(20):
        n = rng.randint(5, 8)
        r = rng.randint(3, n - 2)
        h = random_hypergraph(rng, n, r, rng.randint(1, comb(n, r)))
        for _ in range(100):
            x = npr.uniform(0.1, 2.0, size=n)
            g = gradient_form(h, x)
            fd = np.zeros(n)
            for i in range(n):
                xp, xm = x.copy(), x.copy()
                xp[i] += step
                xm[i] -= step
                fd[i] = (evaluate_form(h, xp) - evaluate_form(h, xm)) / (2 * step)
            if not np.allclose(g, fd, rtol=1e-6, atol=1e-9):
                bad += 1
    ok = bad == 0
    detail = f"20 graphs x 100 vectors, {bad} failures"
    _verdict("9 gradient finite-difference check", ok, detail)
    assert ok, detail


def test_combinatorial_side_conditions_of_the_campaigns():
    # the copy counts the campaigns assert against, derived two ways
    for n, r in ((5, 3), (6, 3), (6, 4), (7, 5), (8, 6)):
        by_formula = n * comb(n - 1, r - 1)
        by_enumeration = 0
        for v in range(n):
            rest = [x for x in range(n) if x != v]
            by_enumeration += sum(1 for _ in combinations(rest, r - 1))
        assert by_formula == by_enumeration

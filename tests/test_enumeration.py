import multiprocessing
import random
from functools import partial
from math import comb

import numpy as np
import pytest

from bergeham import campaigns
from bergeham.berge import BergeDecider
from bergeham.canonical import canonical_form
from bergeham.enumeration import (
    BudgetExceeded,
    LevelSpec,
    chosen_mask,
    hypergraph_at,
    iter_level_masks,
    level_masks,
    level_size,
    monotone_reduction_plan,
    run_chunks,
)
from bergeham.hypergraph import (
    clique_plus_pendant,
    labeled_pendant_copies,
    universe_masks,
)


def test_level_sizes():
    assert level_size(LevelSpec(6, 4, 6)) == comb(15, 6) == 5005
    assert level_size(LevelSpec(8, 6, 8)) == comb(28, 8) == 3108105
    base = clique_plus_pendant(6, 3)
    assert level_size(LevelSpec(6, 3, 12, base=base)) == comb(9, 1) == 9
    assert level_size(LevelSpec(5, 3, 0)) == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        LevelSpec(5, 3, 11)  # m > C(5,3)
    with pytest.raises(ValueError):
        LevelSpec(5, 3, 3, base=clique_plus_pendant(5, 3))  # base bigger
    with pytest.raises(ValueError):
        LevelSpec(5, 3, 6, base=clique_plus_pendant(6, 3))  # base on another n
    # the mode follows from the base, so a spec cannot disagree with itself
    assert LevelSpec(5, 3, 5).mode == "all_labeled"
    assert LevelSpec(5, 3, 6, base=clique_plus_pendant(5, 3)).mode == "supergraphs"


# scalar oracles for level_masks: colex rank/unrank in the combinatorial
# number system, and Gosper's hack for the numerically next mask


def colex_rank(mask: int) -> int:
    """Position of a chosen-index bitmask in colex order of its popcount class."""
    rank = 0
    i = 0
    while mask:
        b = mask & -mask
        mask ^= b
        i += 1
        rank += comb(b.bit_length() - 1, i)
    return rank


def colex_unrank(rank: int, m: int) -> int:
    """Inverse of ``colex_rank`` within the m-subsets."""
    mask = 0
    for i in range(m, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= rank:
            c += 1
        rank -= comb(c, i)
        mask |= 1 << c
    return mask


def next_same_popcount(v: int) -> int:
    """Gosper's hack: numerically next integer with the same popcount."""
    c = v & -v
    r = v + c
    return (((v ^ r) >> 2) // c) | r


def oracle_mask(spec: LevelSpec, rank: int) -> int:
    """The chosen-universe mask at ``rank``, one scalar unrank at a time."""
    u = universe_masks(spec.n, spec.r)
    if spec.base is None:
        return colex_unrank(rank, spec.m)
    free = [i for i, em in enumerate(u) if em not in spec.base.edges]
    small = colex_unrank(rank, spec.m - spec.base.m)
    return chosen_mask(spec.n, spec.r, spec.base.edges) | sum(
        1 << free[c] for c in range(len(free)) if small >> c & 1)


def test_colex_rank_unrank_round_trip():
    for m in (1, 2, 4):
        mask = colex_unrank(0, m)
        for t in range(comb(9, m)):
            assert colex_rank(mask) == t
            assert colex_unrank(t, m) == mask
            if t + 1 < comb(9, m):
                nxt = next_same_popcount(mask)
                assert nxt > mask and nxt.bit_count() == m
                mask = nxt


def test_level_masks_equal_the_scalar_oracle_on_every_5_3_level():
    for m in range(11):
        spec = LevelSpec(5, 3, m)
        got = level_masks(spec, np.arange(level_size(spec)))
        assert got.dtype == np.uint64
        gosper = [colex_unrank(0, m)]
        while len(gosper) < level_size(spec):
            gosper.append(next_same_popcount(gosper[-1]))
        assert got.tolist() == [colex_unrank(t, m) for t in range(level_size(spec))] == gosper


def test_level_masks_on_windows_and_samples():
    spec = LevelSpec(6, 3, 11)
    total = level_size(spec)
    rng = random.Random(4)
    # ragged windows, including ones of a single rank and the level's last rank
    for lo, hi in [(0, 1), (5, 6), (37, 101), (1000, 1999), (total - 3, total), (total - 1, total)]:
        assert level_masks(spec, np.arange(lo, hi)).tolist() == [oracle_mask(spec, t) for t in range(lo, hi)]
    sample = rng.sample(range(total), 300)
    for ranks in (sorted(sample), sample, sample + sample[:7]):
        assert level_masks(spec, np.array(ranks)).tolist() == [oracle_mask(spec, t) for t in ranks]
    empty = level_masks(spec, np.arange(0))
    assert empty.shape == (0,) and empty.dtype == np.uint64
    assert level_masks(spec, []).shape == (0,)


def test_level_masks_on_supergraph_levels():
    for n, r in [(5, 3), (6, 3), (6, 4)]:
        base = clique_plus_pendant(n, r)
        for k in range(4):
            spec = LevelSpec(n, r, base.m + k, base=base)
            ranks = np.arange(level_size(spec))
            got = level_masks(spec, ranks).tolist()
            assert got == [oracle_mask(spec, t) for t in ranks.tolist()]
            assert all(chosen_mask(n, r, base.edges) & ~g == 0 and g.bit_count() == spec.m for g in got)
            assert got == sorted(got)


def test_level_masks_take_object_arrays_past_64_edges():
    # (9, 3) has 84 possible edges, more than a uint64 mask holds
    spec = LevelSpec(9, 3, 2)
    got = level_masks(spec, np.arange(level_size(spec)))
    assert got.dtype == object and len(got) == comb(84, 2)
    assert got.tolist() == [colex_unrank(t, 2) for t in range(comb(84, 2))]
    # ranks past int64 on a wider level go through the same path
    spec = LevelSpec(9, 3, 42)
    lo = level_size(spec) - 5
    ranks = np.array(range(lo, lo + 5), dtype=object)
    assert level_masks(spec, ranks).tolist() == [colex_unrank(t, 42) for t in range(lo, lo + 5)]
    assert [mk for _, mk in iter_level_masks(spec, lo, lo + 5)] == level_masks(spec, ranks).tolist()


def test_level_masks_reject_ranks_outside_the_level_and_non_integers():
    for spec in (LevelSpec(5, 3, 5), LevelSpec(6, 3, 12, base=clique_plus_pendant(6, 3))):
        total = level_size(spec)
        assert level_masks(spec, [0, total - 1]).tolist() == [oracle_mask(spec, 0), oracle_mask(spec, total - 1)]
        for bad in (-1, total):
            with pytest.raises(ValueError, match=rf"ranks must lie in \[0, {total}\)"):
                level_masks(spec, np.array([0, bad]))
        with pytest.raises(ValueError, match="ranks must be integers"):
            level_masks(spec, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="ranks must be integers"):
            level_masks(spec, np.array([0, 0.5], dtype=object))
        with pytest.raises(ValueError, match="bad rank window"):
            list(iter_level_masks(spec, 0, total + 1))


def test_chunks_partition_the_level_exactly():
    spec = LevelSpec(5, 3, 5)
    whole = list(iter_level_masks(spec))
    assert len(whole) == 252 and len(set(whole)) == 252
    pieces = []
    for lo in range(0, 252, 37):
        pieces.extend(iter_level_masks(spec, lo, min(lo + 37, 252)))
    assert pieces == whole
    # checksum by canonical codes on a small level
    codes_whole = sorted(canonical_form(hypergraph_at(spec, ch)).compact() for _, ch in whole)
    codes_pieces = sorted(canonical_form(hypergraph_at(spec, ch)).compact() for _, ch in pieces)
    assert codes_whole == codes_pieces


def _edge_counts(spec, lo, hi):
    return [hypergraph_at(spec, chosen).m for _, chosen in iter_level_masks(spec, lo, hi)]


def test_sum_of_edges_identity():
    spec = LevelSpec(6, 4, 3)
    counts = [m for chunk in run_chunks(spec, _edge_counts) for m in chunk]
    assert len(counts) == level_size(spec)
    assert sum(counts) == 3 * level_size(spec)


def _first_edge_is_even(spec, lo, hi):
    """(graphs visited, ranks whose first edge mask is even) over one chunk."""
    visited = 0
    hits = []
    for rank, chosen in iter_level_masks(spec, lo, hi):
        visited += 1
        h = hypergraph_at(spec, chosen)
        if h.edges and not (h.edges[0] & 1):
            hits.append(rank)
    return visited, hits


def test_aggregate_is_identical_for_any_worker_count():
    spec = LevelSpec(6, 3, 4)
    runs = []
    for j in (1, 2, 8):
        chunks = run_chunks(spec, _first_edge_is_even, jobs=j, chunk_size=301)
        runs.append((sum(v for v, _ in chunks), [rk for _, hits in chunks for rk in hits]))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == level_size(spec)


def test_supergraph_mode_enumerates_exactly_the_supergraphs():
    base = clique_plus_pendant(6, 3)
    spec = LevelSpec(6, 3, 12, base=base)
    seen = list(iter_level_masks(spec))
    assert len(seen) == 9
    for _, ch in seen:
        h = hypergraph_at(spec, ch)
        assert set(base.edges) <= set(h.edges) and h.m == 12


def test_nonhamiltonian_count_at_7_5_7():
    # the non-Hamiltonian graphs at this level are exactly the labeled
    # pendant-clique copies: 7 * C(6, 4) = 105 of them
    u = universe_masks(7, 5)
    spec = LevelSpec(7, 5, 7)

    def classify(lo, hi, acc=None):
        d = BergeDecider(7, u)
        neg = 0
        for _, ch in iter_level_masks(spec, lo, hi):
            if not d.cycle_exists(ch):
                neg += 1
        return neg

    total = level_size(spec)
    neg = classify(0, total)
    assert total == comb(21, 7) == 116280
    assert neg == 105 == len(labeled_pendant_copies(7, 5))


def test_budget_exceeded_reports_exact_size():
    spec = LevelSpec(8, 4, 35)
    with pytest.raises(BudgetExceeded) as exc:
        run_chunks(spec, _first_rank, budget=10 ** 6)
    assert exc.value.size == comb(comb(8, 4), 35)


def _first_rank(spec, lo, hi):
    return lo


def test_run_chunks_rejects_fewer_than_one_job():
    spec = LevelSpec(5, 3, 2)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"got {jobs}"):
            run_chunks(spec, _first_rank, jobs=jobs)


def test_run_chunks_rejects_a_chunk_size_below_one():
    spec = LevelSpec(5, 3, 2)
    for chunk_size in (0, -1):
        with pytest.raises(ValueError, match=f"chunk_size must be at least 1, got {chunk_size}"):
            run_chunks(spec, _first_rank, chunk_size=chunk_size)
    # before the check, -1 gave no windows to sweep and a passing report
    with pytest.raises(ValueError, match="chunk_size must be at least 1, got -1"):
        campaigns.verify_spectral_theorem(5, 3, samples=0, chunk_size=-1)


def test_run_chunks_progress_is_the_same_under_the_pool():
    spec = LevelSpec(5, 3, 5)
    chunk = partial(campaigns._berge_chunk, kind="cycle")
    seen = {1: [], 2: []}
    for jobs, lines in seen.items():
        out = run_chunks(spec, chunk, jobs=jobs, chunk_size=40,
                         progress=lambda s, lo, hi, res, lines=lines: lines.append((lo, hi, res)))
        assert out == [res for _, _, res in lines]
    assert seen[2] == seen[1]
    assert [(lo, hi) for lo, hi, _ in seen[1]] == [(lo, min(lo + 40, 252)) for lo in range(0, 252, 40)]


def test_run_chunks_merges_in_rank_order():
    spec = LevelSpec(5, 3, 2)
    for jobs in (1, 3):
        out = run_chunks(spec, _first_rank, jobs=jobs, chunk_size=10)
        assert out == sorted(out)


def test_run_chunks_spawns_workers_where_fork_is_missing(monkeypatch):
    spec = LevelSpec(5, 3, 5)
    chunk = partial(campaigns._berge_chunk, kind="cycle")
    serial = run_chunks(spec, chunk, chunk_size=40)
    methods = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: methods.append(method) or get_context(method))
    assert run_chunks(spec, chunk, jobs=2, chunk_size=40) == serial
    assert methods == ["spawn"]
    assert sum(count for count, _, _ in serial) == 252


def test_chosen_mask_inverts_hypergraph_at():
    spec = LevelSpec(6, 3, 7)
    for rank, chosen in iter_level_masks(spec, 0, 300):
        assert chosen_mask(6, 3, hypergraph_at(spec, chosen).edges) == chosen


def test_universe_is_built_once_per_shape():
    assert universe_masks(6, 3) is universe_masks(6, 3)
    assert universe_masks(6, 3) == tuple(sorted(universe_masks(6, 3)))


def test_reduction_plan_shapes():
    p = monotone_reduction_plan(6, 3)
    assert p.cycle_level.m == 11 and level_size(p.cycle_level) == 167960
    assert p.path_level.m == 10

    p = monotone_reduction_plan(7, 5)
    assert p.cycle_level.m == 7 and level_size(p.cycle_level) == comb(21, 7) == 116280

    p = monotone_reduction_plan(5, 3)
    assert p.cycle_level.m == 5 and level_size(p.cycle_level) == 252
    assert p.path_level.m == 4
    with pytest.raises(ValueError):
        monotone_reduction_plan(5, 4)


def test_reduction_soundness_by_brute_force_5_3():
    # sweep every level above the threshold: non-Hamiltonian graphs appear
    # only at m = 5 and are exactly the 30 labeled pendant copies
    u = universe_masks(5, 3)
    d = BergeDecider(5, u)
    pendant_edge_sets = {c.edges for c in labeled_pendant_copies(5, 3)}
    for m in range(5, 11):
        spec = LevelSpec(5, 3, m)
        bad = []
        for _, ch in iter_level_masks(spec):
            if not d.cycle_exists(ch):
                bad.append(hypergraph_at(spec, ch).edges)
        if m == 5:
            assert len(bad) == 30 and set(bad) == pendant_edge_sets
        else:
            assert not bad, m


def test_reduction_soundness_by_brute_force_6_4():
    u = universe_masks(6, 4)
    d = BergeDecider(6, u)
    t = comb(5, 4)
    for m in range(t + 1, comb(6, 4) + 1):
        spec = LevelSpec(6, 4, m)
        bad = sum(0 if d.cycle_exists(ch) else 1 for _, ch in iter_level_masks(spec))
        if m == t + 1:
            assert bad == 6 * comb(5, 3) == 60
        else:
            assert bad == 0, m

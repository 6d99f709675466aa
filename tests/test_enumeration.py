import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from functools import partial
from math import comb
from pathlib import Path

import numpy as np
import pytest

import bergeham
from bergeham import campaigns
from bergeham.berge import BergeDecider
from bergeham.canonical import canonical_form
from bergeham.enumeration import (
    LOW_DIGIT_TABLE,
    BudgetExceeded,
    LevelSpec,
    chosen_mask,
    hypergraph_at,
    isolated_copies,
    level_masks,
    level_size,
    monotone_reduction_plan,
    pendant_copies,
    run_chunks,
    window_masks,
)
from bergeham.hypergraph import (
    clique_plus_isolated,
    clique_plus_pendant,
    complete,
    universe_masks,
)
from conftest import labeled_copies
from oracles import isomorphism


def pendant_mask(n: int, r: int) -> int:
    return chosen_mask(n, r, clique_plus_pendant(n, r).edges)


def test_level_sizes():
    assert level_size(LevelSpec(6, 4, 6)) == comb(15, 6) == 5005
    assert level_size(LevelSpec(8, 6, 8)) == comb(28, 8) == 3108105
    assert level_size(LevelSpec(6, 3, 12, base=pendant_mask(6, 3))) == comb(9, 1) == 9
    assert level_size(LevelSpec(5, 3, 0)) == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        LevelSpec(5, 3, 11)  # m > C(5,3)
    with pytest.raises(ValueError, match="more edges than the level"):
        LevelSpec(5, 3, 3, base=pendant_mask(5, 3))  # base bigger
    with pytest.raises(ValueError, match="negative: -1"):
        LevelSpec(5, 3, 6, base=-1)
    with pytest.raises(ValueError, match="beyond the 10 universe edges: 1024"):
        LevelSpec(5, 3, 6, base=1 << 10)
    with pytest.raises(TypeError, match="not an integer: 7.0"):
        LevelSpec(5, 3, 6, base=7.0)
    # a numpy base, as level_masks returns it, is stored as a Python int
    spec = LevelSpec(5, 3, 6, base=np.uint64(pendant_mask(5, 3)))
    assert type(spec.base) is int and spec == LevelSpec(5, 3, 6, base=pendant_mask(5, 3))
    assert json.loads(json.dumps(vars(spec))) == {"n": 5, "r": 3, "m": 6, "base": pendant_mask(5, 3)}
    # base 0 is the labeled level itself
    assert LevelSpec(5, 3, 6, base=0) == LevelSpec(5, 3, 6)
    assert hash(LevelSpec(5, 3, 6, base=0)) == hash(LevelSpec(5, 3, 6))
    # the mode follows from the base, so a spec cannot disagree with itself
    assert LevelSpec(5, 3, 5).mode == "all_labeled"
    assert LevelSpec(5, 3, 6, base=pendant_mask(5, 3)).mode == "supergraphs"


def test_spec_rejects_a_bool_size():
    # True would be taken as m = 1, a level of 10 graphs
    with pytest.raises(TypeError, match="LevelSpec.m is not an integer: True"):
        LevelSpec(5, 3, True)
    with pytest.raises(TypeError, match="LevelSpec.r is not an integer: True"):
        LevelSpec(5, True, 1)
    with pytest.raises(TypeError, match="LevelSpec.base is not an integer: True"):
        LevelSpec(5, 3, 6, base=True)


def test_spec_rejects_a_float_size_where_it_enters():
    with pytest.raises(TypeError, match="LevelSpec.m is not an integer: 6.0"):
        LevelSpec(5, 3, 6.0)
    with pytest.raises(TypeError, match="LevelSpec.n is not an integer: 5.0"):
        LevelSpec(5.0, 3, 6)


def test_spec_stores_numpy_sizes_as_python_ints():
    spec = LevelSpec(np.int64(5), np.int32(3), np.int64(6))
    assert all(type(v) is int for v in vars(spec).values())
    assert json.dumps(vars(spec)) == '{"n": 5, "r": 3, "m": 6, "base": 0}'
    assert spec == LevelSpec(5, 3, 6) and hash(spec) == hash(LevelSpec(5, 3, 6))


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
    if not spec.base:
        return colex_unrank(rank, spec.m)
    free = [i for i in range(len(universe_masks(spec.n, spec.r))) if not spec.base >> i & 1]
    small = colex_unrank(rank, spec.m - spec.base.bit_count())
    return spec.base | sum(1 << free[c] for c in range(len(free)) if small >> c & 1)


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
        base = pendant_mask(n, r)
        for k in range(4):
            spec = LevelSpec(n, r, base.bit_count() + k, base=base)
            ranks = np.arange(level_size(spec))
            got = level_masks(spec, ranks).tolist()
            assert got == [oracle_mask(spec, t) for t in ranks.tolist()]
            assert all(base & ~g == 0 and g.bit_count() == spec.m for g in got)
            assert got == sorted(got)


WIDE = "batches need at most 64 universe edges, got 84"


def test_level_masks_reject_universes_past_64_edges():
    # (9, 3) has 84 possible edges, more than a uint64 mask holds; its levels
    # and their sizes still exist, ranks past int64 included
    spec = LevelSpec(9, 3, 2)
    assert level_size(spec) == comb(84, 2)
    with pytest.raises(ValueError, match=WIDE):
        level_masks(spec, np.arange(level_size(spec)))
    with pytest.raises(ValueError, match=WIDE):
        window_masks(spec, 0, 10)
    spec = LevelSpec(9, 3, 42)
    assert level_size(spec) == comb(84, 42) > 1 << 63
    with pytest.raises(ValueError, match=WIDE):
        level_masks(spec, [0])


@pytest.mark.parametrize("spec, free, table_digits", [
    (LevelSpec(7, 5, 6), 21, 6),  # C(21, 6) just under the table bound: the whole level in the table
    (LevelSpec(7, 5, 7), 21, 6),  # C(21, 7) just over it: one digit searched
    (LevelSpec(6, 3, 7), 20, 6),  # C(20, 7) just over it
    (LevelSpec(6, 4, 11), 15, 11),  # every C(15, i) under it: the whole level in the table
    (LevelSpec(8, 6, 8), 28, 4),  # four digits searched
    (LevelSpec(7, 3, 7, base=1 << 3 | 1 << 17), 33, 4),  # a supergraph base splits the free bits
    (LevelSpec(6, 3, 16, base=(1 << 11) - 1), 9, 5),  # a table past the peak of C(9, i)
    (LevelSpec(9, 3, 4, base=1 << 40), 83, 2),  # past 64 edges: rejected
])
def test_level_masks_split_between_the_digit_search_and_the_table(spec, free, table_digits):
    # the lowest table_digits digits of a rank come from one table lookup
    k = spec.m - spec.base.bit_count()
    assert free == comb(spec.n, spec.r) - spec.base.bit_count()
    assert all(comb(free, i) <= LOW_DIGIT_TABLE for i in range(table_digits + 1))
    assert table_digits == k or comb(free, table_digits + 1) > LOW_DIGIT_TABLE
    total = level_size(spec)
    rng = random.Random(total)
    ranks = [0, 1, total - 2, total - 1] + rng.sample(range(total), min(total, 2000))
    if comb(spec.n, spec.r) > 64:
        with pytest.raises(ValueError, match=WIDE):
            level_masks(spec, np.array(ranks))
        return
    got = level_masks(spec, np.array(ranks))
    assert got.dtype == np.uint64
    assert got.tolist() == [oracle_mask(spec, t) for t in ranks]


def test_level_masks_reject_ranks_outside_the_level_and_non_integers():
    for spec in (LevelSpec(5, 3, 5), LevelSpec(6, 3, 12, base=pendant_mask(6, 3))):
        total = level_size(spec)
        assert level_masks(spec, [0, total - 1]).tolist() == [oracle_mask(spec, 0), oracle_mask(spec, total - 1)]
        for bad in (-1, total):
            with pytest.raises(ValueError, match=rf"ranks must lie in \[0, {total}\)"):
                level_masks(spec, np.array([0, bad]))
        with pytest.raises(ValueError, match="ranks must be integers"):
            level_masks(spec, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="ranks must be integers"):
            level_masks(spec, np.array([0, 0.5], dtype=object))


def _table_digits(spec: LevelSpec) -> int:
    """The j lowest digits of a rank that the low-digit table resolves."""
    free = comb(spec.n, spec.r) - spec.base.bit_count()
    k = spec.m - spec.base.bit_count()
    j = 0
    while j < k and comb(free, j + 1) <= LOW_DIGIT_TABLE:
        j += 1
    return j


def _prefix(spec: LevelSpec, mask: int) -> int:
    """A mask less its j lowest free bits: the digits above the table, constant along a run."""
    low = [1 << p for p in range(comb(spec.n, spec.r)) if mask >> p & 1 and not spec.base >> p & 1]
    return mask - sum(low[:_table_digits(spec)])


@pytest.mark.parametrize("spec", [
    LevelSpec(6, 3, 11),  # five digits over the table's six
    LevelSpec(7, 5, 7),  # one digit over the table
    LevelSpec(8, 6, 8),  # four digits over the table's four
    LevelSpec(6, 4, 11),  # j = k: the whole level is the table
    LevelSpec(7, 5, 6),  # j = k
    LevelSpec(7, 3, 7, base=1 << 3 | 1 << 17),  # a supergraph base splits the free bits
    LevelSpec(6, 3, 16, base=(1 << 11) - 1),  # j = k on a supergraph level
    LevelSpec(9, 3, 4, base=1 << 40),  # past 64 edges, one digit over the table: rejected
    LevelSpec(9, 3, 2),  # past 64 edges, j = k: rejected
])
def test_window_masks_equal_level_masks(spec):
    total = level_size(spec)
    if comb(spec.n, spec.r) > 64:
        for lo, hi in ((0, min(total, 3000)), (total - 1, total), (0, 0)):
            with pytest.raises(ValueError, match=WIDE):
                window_masks(spec, lo, hi)
            with pytest.raises(ValueError, match=WIDE):
                level_masks(spec, np.arange(lo, hi))
        return
    rng = random.Random(total)
    windows = [(0, min(total, 3000)), (max(0, total - 3000), total), (0, 1), (total - 1, total),
               (total // 2, total // 2 + 1), (0, 0), (total, total)]
    windows += [(lo, min(total, lo + rng.choice([2, 7, 100, 700]))) for lo in rng.sample(range(total), 40)]
    j = _table_digits(spec)
    crossing = mid_run = 0
    for lo, hi in windows:
        want = level_masks(spec, np.arange(lo, hi))
        got = window_masks(spec, lo, hi)
        assert got.dtype == want.dtype == np.uint64
        assert got.tolist() == want.tolist(), (lo, hi)
        if j < spec.m - spec.base.bit_count() and hi - lo > 1:
            prefixes = {_prefix(spec, mask) for mask in want.tolist()}
            crossing += len(prefixes) > 1
            mid_run += lo > 0 and _prefix(spec, int(level_masks(spec, [lo - 1])[0])) in prefixes
    if j < spec.m - spec.base.bit_count():  # the windows cross run boundaries and start inside runs
        assert crossing and mid_run


@pytest.mark.parametrize("spec", [LevelSpec(7, 3, 21), LevelSpec(10, 8, 10)])
def test_window_masks_on_wide_windows_of_dense_levels(spec):
    total = level_size(spec)
    rng = random.Random(spec.m)
    for lo in (0, rng.randrange(total - (1 << 16)), total - (1 << 16)):
        got = window_masks(spec, lo, lo + (1 << 16))
        assert got.tolist() == level_masks(spec, np.arange(lo, lo + (1 << 16))).tolist()


def test_window_masks_reject_windows_outside_the_level():
    spec = LevelSpec(5, 3, 5)
    for lo, hi in ((-1, 3), (3, 2), (0, 253)):
        with pytest.raises(ValueError, match=r"need 0 <= lo <= hi <= 252"):
            window_masks(spec, lo, hi)


def test_chunks_partition_the_level_exactly():
    spec = LevelSpec(5, 3, 5)
    whole = level_masks(spec, np.arange(level_size(spec))).tolist()
    assert len(whole) == 252 and len(set(whole)) == 252
    pieces = []
    for lo in range(0, 252, 37):
        pieces.extend(level_masks(spec, np.arange(lo, min(lo + 37, 252))).tolist())
    assert pieces == whole
    # checksum by canonical codes on a small level
    codes_whole = sorted(canonical_form(hypergraph_at(5, 3, ch)).compact() for ch in whole)
    codes_pieces = sorted(canonical_form(hypergraph_at(5, 3, ch)).compact() for ch in pieces)
    assert codes_whole == codes_pieces


def _each(window_fn, task):
    """A ``run_chunks`` task function from a function of one window."""
    return [window_fn(spec, lo, hi) for spec, lo, hi in task]


def _edge_counts(spec, lo, hi):
    return [hypergraph_at(spec.n, spec.r, chosen).m for chosen in level_masks(spec, np.arange(lo, hi)).tolist()]


def test_sum_of_edges_identity():
    spec = LevelSpec(6, 4, 3)
    counts = [m for chunk in run_chunks([spec], partial(_each, _edge_counts)) for m in chunk]
    assert len(counts) == level_size(spec)
    assert sum(counts) == 3 * level_size(spec)


def _first_edge_is_even(spec, lo, hi):
    """(graphs visited, ranks whose first edge mask is even) over one chunk."""
    visited = 0
    hits = []
    for rank, chosen in zip(range(lo, hi), level_masks(spec, np.arange(lo, hi)).tolist()):
        visited += 1
        h = hypergraph_at(spec.n, spec.r, chosen)
        if h.edges and not (h.edges[0] & 1):
            hits.append(rank)
    return visited, hits


def test_aggregate_is_identical_for_any_worker_count():
    spec = LevelSpec(6, 3, 4)
    runs = []
    for j in (1, 2, 8):
        chunks = run_chunks([spec], partial(_each, _first_edge_is_even), jobs=j, chunk_size=301)
        runs.append((sum(v for v, _ in chunks), [rk for _, hits in chunks for rk in hits]))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == level_size(spec)


def test_supergraph_mode_enumerates_exactly_the_supergraphs():
    base = clique_plus_pendant(6, 3)
    spec = LevelSpec(6, 3, 12, base=pendant_mask(6, 3))
    seen = level_masks(spec, np.arange(level_size(spec))).tolist()
    assert len(seen) == 9
    for ch in seen:
        h = hypergraph_at(6, 3, ch)
        assert set(base.edges) <= set(h.edges) and h.m == 12


def test_nonhamiltonian_count_at_7_5_7():
    # the non-Hamiltonian graphs at this level are exactly the labeled
    # pendant-clique copies: 7 * C(6, 4) = 105 of them
    u = universe_masks(7, 5)
    spec = LevelSpec(7, 5, 7)

    def classify(lo, hi, acc=None):
        d = BergeDecider(7, u)
        neg = 0
        for ch in level_masks(spec, np.arange(lo, hi)).tolist():
            if not d.cycle_exists(ch):
                neg += 1
        return neg

    total = level_size(spec)
    neg = classify(0, total)
    assert total == comb(21, 7) == 116280
    assert neg == 105 == 7 * comb(6, 4)


def test_budget_exceeded_reports_exact_size():
    spec = LevelSpec(8, 4, 35)
    with pytest.raises(BudgetExceeded) as exc:
        run_chunks([spec], partial(_each, _first_rank), budget=10 ** 6)
    assert exc.value.size == comb(comb(8, 4), 35)


def _first_rank(spec, lo, hi):
    return lo


def test_run_chunks_rejects_fewer_than_one_job():
    spec = LevelSpec(5, 3, 2)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=f"got {jobs}"):
            run_chunks([spec], partial(_each, _first_rank), jobs=jobs)


def test_run_chunks_rejects_a_chunk_size_below_one():
    spec = LevelSpec(5, 3, 2)
    for chunk_size in (0, -1):
        with pytest.raises(ValueError, match=f"chunk_size must be at least 1, got {chunk_size}"):
            run_chunks([spec], partial(_each, _first_rank), chunk_size=chunk_size)
    # before the check, -1 gave no windows to sweep and a passing report
    with pytest.raises(ValueError, match="chunk_size must be at least 1, got -1"):
        campaigns.verify_spectral_theorem(5, 3, samples=0, chunk_size=-1)


def test_run_chunks_rejects_a_negative_budget():
    spec = LevelSpec(5, 3, 2)
    with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
        run_chunks([spec], partial(_each, _first_rank), budget=-1)
    with pytest.raises(BudgetExceeded):
        run_chunks([spec], partial(_each, _first_rank), budget=0)
    assert run_chunks([spec], partial(_each, _first_rank), budget=None, chunk_size=4) == list(range(0, level_size(spec), 4))


DEAD_WORKER = """
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from bergeham.enumeration import LevelSpec, run_chunks


def chunk(task):
    spec, lo, hi = task[0]
    if lo >= 100:
        os._exit(3)
    return [lo]


if __name__ == "__main__":
    try:
        run_chunks([LevelSpec(5, 3, 5)], chunk, jobs=2, chunk_size=50)
    except BrokenProcessPool:
        sys.exit(0)
    sys.exit(1)
"""


def test_a_dead_pool_worker_raises_instead_of_hanging(tmp_path):
    script = tmp_path / "dead_worker.py"
    script.write_text(DEAD_WORKER)
    env = {**os.environ, "PYTHONPATH": str(Path(bergeham.__file__).resolve().parent.parent)}
    # its own session, so a hang can be killed with every worker it started
    child = subprocess.Popen([sys.executable, str(script)], env=env, start_new_session=True,
                             stderr=subprocess.PIPE, text=True)
    try:
        _, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("run_chunks did not raise within 60 s of a pool worker dying")
    assert child.returncode == 0, err
    # nothing of the child's process group outlives it
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            break
        if time.monotonic() > deadline:
            os.killpg(child.pid, signal.SIGKILL)
            pytest.fail("pool workers outlived the broken pool")
        time.sleep(0.05)


def _marked_slow_chunk(spec, lo, hi, *, marks):
    (marks / str(lo)).touch()
    time.sleep(0.1)
    return lo


def test_an_error_in_progress_stops_the_queued_chunks(tmp_path):
    def stop(spec, lo, hi, res):
        raise RuntimeError("stop")

    spec = LevelSpec(5, 3, 5)  # 42 chunks of 6
    with pytest.raises(RuntimeError, match="stop"):
        run_chunks([spec], partial(_each, partial(_marked_slow_chunk, marks=tmp_path)), jobs=2, chunk_size=6,
                   progress=stop)
    # only the chunks already handed to a worker run; the rest are cancelled
    assert 1 <= len(list(tmp_path.iterdir())) < 10


def test_run_chunks_progress_is_the_same_under_the_pool():
    spec = LevelSpec(5, 3, 5)
    chunk = partial(campaigns._berge_chunk, kind="cycle")
    seen = {1: [], 2: []}
    for jobs, lines in seen.items():
        out = run_chunks([spec], chunk, jobs=jobs, chunk_size=40,
                         progress=lambda s, lo, hi, res, lines=lines: lines.append((lo, hi, res)))
        assert out == [res for _, _, res in lines]
    assert seen[2] == seen[1]
    assert [(lo, hi) for lo, hi, _ in seen[1]] == [(lo, min(lo + 40, 252)) for lo in range(0, 252, 40)]


def _task_shape(task):
    """Per window: the window, and its task's first window and graph count."""
    first = (task[0][0].base, task[0][1])
    return [(spec.base, lo, hi, first, sum(b - a for _, a, b in task)) for spec, lo, hi in task]


@pytest.mark.parametrize("chunk_size", [1, 9, 20, 1000])
def test_run_chunks_packs_windows_into_tasks_of_at_most_chunk_size(chunk_size):
    # a whole level, then the closure's 60 supergraph levels of 9 graphs each
    closure = [LevelSpec(6, 3, 12, base) for base in sorted(pendant_copies(6, 3))]
    specs = [LevelSpec(6, 3, 2)] + closure
    windows = [(spec.base, lo, min(lo + chunk_size, level_size(spec)))
               for spec in specs for lo in range(0, level_size(spec), chunk_size)]
    runs = {}
    for jobs in (1, 2):
        seen = []
        out = run_chunks(specs, _task_shape, jobs=jobs, chunk_size=chunk_size,
                         progress=lambda spec, lo, hi, res: seen.append((spec.base, lo, hi, res)))
        assert [res for *_, res in seen] == out  # one result and one progress call per window, in order
        assert [w[:3] for w in out] == [w[:3] for w in seen] == windows
        runs[jobs] = out
    assert runs[1] == runs[2]
    tasks = {}  # first window -> (graphs, windows)
    for base, lo, hi, first, size in runs[1]:
        tasks.setdefault(first, [size, []])[1].append(hi - lo)
    assert all(size == sum(sizes) <= chunk_size for size, sizes in tasks.values())
    packed = list(tasks.values())  # tightly: no task could have taken the next one's first window
    assert all(a[0] + b[1][0] > chunk_size for a, b in zip(packed, packed[1:]))
    # a one-level row keeps its windows, one per task
    assert run_chunks(specs[:1], _task_shape, chunk_size=chunk_size) == [
        (0, lo, hi, (0, lo), hi - lo) for _, lo, hi in windows[:len(range(0, 190, chunk_size))]]


def test_run_chunks_sends_the_closure_row_as_one_task():
    closure = [LevelSpec(6, 3, 12, base) for base in sorted(pendant_copies(6, 3))]
    out = run_chunks(closure, _task_shape, jobs=2)
    assert [(base, lo, hi) for base, lo, hi, _, _ in out] == [(spec.base, 0, 9) for spec in closure]
    assert {(first, size) for *_, first, size in out} == {((closure[0].base, 0), 540)}
    assert run_chunks([], _task_shape, jobs=2) == []


def test_run_chunks_merges_in_rank_order():
    spec = LevelSpec(5, 3, 2)
    for jobs in (1, 3):
        out = run_chunks([spec], partial(_each, _first_rank), jobs=jobs, chunk_size=10)
        assert out == sorted(out)


def test_run_chunks_spawns_workers_where_fork_is_missing(monkeypatch):
    spec = LevelSpec(5, 3, 5)
    chunk = partial(campaigns._berge_chunk, kind="cycle")
    serial = run_chunks([spec], chunk, chunk_size=40)
    methods = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: methods.append(method) or get_context(method))
    assert run_chunks([spec], chunk, jobs=2, chunk_size=40) == serial
    assert methods == ["spawn"]
    assert sum(count for count, _, _ in serial) == 252


def test_chosen_mask_inverts_hypergraph_at():
    spec = LevelSpec(6, 3, 7)
    masks = level_masks(spec, np.arange(300))
    for chosen in masks.tolist():
        assert chosen_mask(6, 3, hypergraph_at(6, 3, chosen).edges) == chosen
    # a mask straight from level_masks is a numpy integer
    assert hypergraph_at(6, 3, masks[5]) == hypergraph_at(6, 3, int(masks[5]))


def test_chosen_mask_rejects_what_is_not_a_universe_edge():
    # a vertex tuple is not an edge mask, and 0b1111 holds four vertices;
    # neither may drop out of the mask unseen
    with pytest.raises(TypeError, match=r"not an integer: \(0, 1, 2\)"):
        chosen_mask(5, 3, [(0, 1, 2)])
    with pytest.raises(ValueError, match="edge mask 15 is not a 3-subset of \\[0, 5\\)"):
        chosen_mask(5, 3, [0b0111, 0b1111])
    with pytest.raises(ValueError, match="edge mask 35 is not a 3-subset"):
        chosen_mask(5, 3, [0b100011])  # vertex 5 is past [0, 5)
    # every edge of the universe, numpy integers too, round-trips
    u = universe_masks(5, 3)
    assert chosen_mask(5, 3, np.array(u, dtype=np.uint64)) == (1 << 10) - 1
    assert hypergraph_at(5, 3, chosen_mask(5, 3, complete(5, 3).edges)) == complete(5, 3)


@pytest.mark.parametrize("n,r", [(n, r) for n in range(4, 8) for r in range(2, n - 1)])
def test_copy_sets_are_the_labeled_copies(n, r):
    # against every relabeling of the two constructions, as masks
    pendant = {chosen_mask(n, r, edges) for edges in labeled_copies(clique_plus_pendant(n, r))}
    isolated = {chosen_mask(n, r, edges) for edges in labeled_copies(clique_plus_isolated(n, r))}
    assert pendant_copies(n, r) == pendant
    assert isolated_copies(n, r) == isolated


@pytest.mark.parametrize("n,r", [(6, 3), (8, 6), (9, 3)])
def test_copy_sets_have_the_labeled_counts(n, r):
    # too many relabelings for brute force: the counts, and a verified
    # isomorphism from each member onto its construction
    for copies, h, count in ((pendant_copies(n, r), clique_plus_pendant(n, r), n * comb(n - 1, r - 1)),
                             (isolated_copies(n, r), clique_plus_isolated(n, r), n)):
        assert len(copies) == count
        for chosen in copies:
            g = hypergraph_at(n, r, chosen)
            assert g.m == h.m and isomorphism(g, h) is not None


def test_copy_sets_need_a_vertex_off_the_clique():
    for n, r in ((5, 5), (5, 1)):
        with pytest.raises(ValueError, match="need 2 <= r < n"):
            isolated_copies(n, r)
        with pytest.raises(ValueError, match="need 2 <= r < n"):
            pendant_copies(n, r)


def test_hypergraph_at_checks_its_mask():
    assert hypergraph_at(5, 3, (1 << 10) - 1) == complete(5, 3)
    with pytest.raises(ValueError, match="negative: -3"):
        hypergraph_at(5, 3, -3)
    with pytest.raises(ValueError, match="beyond the 10 universe edges: 1024"):
        hypergraph_at(5, 3, 1 << 10)
    with pytest.raises(TypeError, match="not an integer: 3.0"):
        hypergraph_at(5, 3, 3.0)
    with pytest.raises(ValueError, match="need 2 <= r <= n"):
        hypergraph_at(3, 5, 0)


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
    pendant_edge_sets = set(labeled_copies(clique_plus_pendant(5, 3)))
    for m in range(5, 11):
        spec = LevelSpec(5, 3, m)
        bad = []
        for ch in level_masks(spec, np.arange(level_size(spec))).tolist():
            if not d.cycle_exists(ch):
                bad.append(hypergraph_at(5, 3, ch).edges)
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
        bad = sum(0 if d.cycle_exists(ch) else 1 for ch in level_masks(spec, np.arange(level_size(spec))).tolist())
        if m == t + 1:
            assert bad == 6 * comb(5, 3) == 60
        else:
            assert bad == 0, m

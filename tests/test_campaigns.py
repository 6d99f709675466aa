import json
import random
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from bergeham import campaigns, canonical, spectral
from bergeham.berge import BergeCertificate, BergeDecider
from bergeham.campaigns import (
    CSV_HEADER,
    verify_edge_theorem,
    verify_lemma_r_plus_2,
    verify_spectral_theorem,
)
from bergeham.canonical import canonical_form
from bergeham.enumeration import (
    LevelSpec,
    chosen_mask,
    hypergraph_at,
    isolated_copies,
    level_masks,
    level_size,
    pendant_copies,
)
from bergeham.formats import certificate_to_dict
from bergeham.hypergraph import Hypergraph, clique_plus_isolated, clique_plus_pendant, complete, universe_masks
from bergeham.spectral import CERTIFIED_ABOVE, CERTIFIED_BELOW_OR_EQUAL, UNDECIDED
from oracles import are_isomorphic, isomorphism


def test_lemma_base_case_n5():
    rep = verify_lemma_r_plus_2(5)
    assert rep.passed
    lv5, lv6 = rep.levels
    assert (lv5.m, lv5.visited, lv5.negative) == (5, 252, 30)
    assert (lv6.m, lv6.visited, lv6.negative) == (6, 210, 0)
    assert lv5.exceptions[0].count == 30
    assert lv5.exceptions[0].code == canonical_form(clique_plus_pendant(5, 3)).compact()


def test_lemma_base_case_rejects_out_of_range():
    # the range check comes before any sweep, so n = 10 costs nothing
    for n in (4, 10):
        with pytest.raises(ValueError, match=f"5 <= n <= 9, got n={n}"):
            verify_lemma_r_plus_2(n)


def test_lemma_report_is_worker_count_invariant(monkeypatch):
    monkeypatch.setattr(campaigns, "RECHECK_SAMPLE", 50)
    runs = (
        lambda jobs: verify_lemma_r_plus_2(5, jobs=jobs),
        # small chunks: workers decide different batches, so the orders
        # that decide finds and tests differ, which the report must not show
        lambda jobs: verify_edge_theorem(5, 3, jobs=jobs, chunk_size=37),
    )
    for run in runs:
        a = run(1).to_dict()
        b = run(2).to_dict()
        for d in (a, b):
            d.pop("seconds")
            d.pop("jobs")
        assert a == b


def test_edge_theorem_5_3():
    rep = verify_edge_theorem(5, 3)
    assert rep.passed
    cycle, closure, path = rep.levels
    assert cycle.m == 5 and cycle.negative == 30
    assert closure.m == 6 and closure.negative == 0 and closure.visited == 30 * comb(5, 1)
    assert path.m == 4 and path.negative == 5
    assert path.exceptions[0].code == canonical_form(clique_plus_isolated(5, 3)).compact()


def test_a_failing_closure_row_collapses_its_negatives(monkeypatch):
    # decide one supergraph of one pendant exception non-Hamiltonian, once:
    # at (5,3) each such graph is a supergraph of two exceptions
    cycle_level = LevelSpec(5, 3, 5)
    decider = BergeDecider(5, universe_masks(5, 3))
    base = next(ch for ch in level_masks(cycle_level, np.arange(level_size(cycle_level))).tolist() if not decider.cycle_exists(ch))
    target, = level_masks(LevelSpec(5, 3, 6, base=base), np.arange(3, 4)).tolist()
    decide = BergeDecider.decide
    hits = []

    def fake(self, masks, kind):
        out = decide(self, masks, kind)
        at = np.flatnonzero(np.asarray(masks, dtype=np.uint64) == target)
        if kind == "cycle" and len(at) and not hits:
            hits.append(target)
            out[at[0]] = False
        return out

    monkeypatch.setattr(BergeDecider, "decide", fake)
    rep = verify_edge_theorem(5, 3)
    monkeypatch.undo()
    good = verify_edge_theorem(5, 3)
    assert not rep.passed and good.passed
    cycle, closure, path = rep.levels
    assert asdict(cycle) == asdict(good.levels[0])
    assert asdict(path) == asdict(good.levels[2])
    assert not closure.ok
    assert (closure.m, closure.mode, closure.visited, closure.negative) == (6, "supergraphs", 150, 1)
    assert closure.positive == good.levels[1].positive - 1 == 149
    record, = closure.exceptions
    assert record.count == 1
    assert record.code == canonical_form(hypergraph_at(5, 3, target)).compact()
    assert closure.note == "expected no exceptions, found 1"


def test_closure_row_without_exceptions_has_zero_counts(monkeypatch):
    decide = BergeDecider.decide
    monkeypatch.setattr(BergeDecider, "decide", lambda self, masks, kind: (
        np.ones(len(masks), dtype=bool) if kind == "cycle" else decide(self, masks, kind)))
    monkeypatch.setattr(campaigns, "RECHECK_SAMPLE", 0)
    rep = verify_edge_theorem(5, 3)
    assert not rep.passed
    assert rep.levels[0].note == "expected exceptions, found none"
    assert asdict(rep.levels[1]) == {
        "n": 5, "r": 3, "m": 6, "mode": "supergraphs", "kind": "cycle", "scanned": 0, "visited": 0,
        "positive": 0, "negative": 0, "exceptions": [], "ok": True, "note": "",
    }


@pytest.mark.parametrize("n, r", [(6, 3), (7, 5)])
def test_edge_reports_do_not_depend_on_the_chunk_size(n, r):
    # whole levels keep their windows; the closure's windows pack into fewer tasks as chunks grow
    reports = []
    for kw in ({"chunk_size": 1000}, {"chunk_size": 4096}, {}):
        d = verify_edge_theorem(n, r, **kw).to_dict()
        d.pop("seconds")
        reports.append(d)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["passed"]


def test_the_6_3_closure_row_is_one_decide_call(monkeypatch):
    decide = BergeDecider.decide
    calls = []  # edge count and size of each decide batch

    def counted(self, masks, kind):
        calls.append((int(masks[0]).bit_count(), len(masks)))
        return decide(self, masks, kind)

    monkeypatch.setattr(BergeDecider, "decide", counted)
    rep = verify_edge_theorem(6, 3)
    assert rep.passed
    assert rep.levels[1].visited == 60 * 9
    assert [size for m, size in calls if m == 12] == [540]


def test_edge_theorem_6_4():
    rep = verify_edge_theorem(6, 4)
    assert rep.passed
    assert rep.levels[0].negative == 6 * comb(5, 3) == 60
    assert rep.levels[2].negative == 6


def test_ore_edge_theorem_names_its_one_more_exception_at_5_2():
    # a positive control with no fakes: at r = 2 the edge theorem is Ore's,
    # and at n = 5 the join K_2 ∨ \bar K_3 is a second non-Hamiltonian
    # class, 5!/|Aut| = 120/12 = 10 labeled copies beside K_4 + e's 20
    rep = verify_edge_theorem(5, 2)
    join = Hypergraph(5, 2, [(0, 1)] + [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    alien = canonical_form(join).compact()
    pendant = canonical_form(clique_plus_pendant(5, 2)).compact()
    cycle, closure, path = rep.levels
    assert not rep.passed and not cycle.ok
    assert sorted((e.code, e.count) for e in cycle.exceptions) == sorted([(alien, 10), (pendant, 20)])
    assert cycle.note == f"unexpected exception classes: {[alien]}"
    assert closure.ok and closure.visited == 30 * 3 and path.ok and path.negative == 5


@pytest.mark.parametrize("n", [6, 7])
def test_ore_edge_theorem_holds_at_6_2_and_7_2(n):
    rep = verify_edge_theorem(n, 2)
    assert rep.passed
    assert [lv.negative for lv in rep.levels] == [n * (n - 1), 0, n]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_fiedler_nikiforov_spectral_theorem_holds_at_r_2(n):
    # every graph certified above n-2 on the cycle level is a copy of K_{n-1} + e
    rep = verify_spectral_theorem(n, 2, samples=200)
    assert rep.passed and rep.notes == []
    assert [lv.negative for lv in rep.levels] == [0, 0, 0]
    assert rep.levels[0].positive == n * (n - 1)


def test_csv_schema():
    rep = verify_edge_theorem(5, 3)
    rows = rep.csv_rows()
    assert rows[0] == CSV_HEADER == "n,r,m,visited,hamiltonian,nonhamiltonian,exceptions,pass"
    assert len(rows) == 1 + len(rep.levels)
    first = rows[1].split(",")
    assert first[0] == "5" and first[1] == "3" and first[-1] in ("true", "false")


def test_report_json_serializes(monkeypatch):
    monkeypatch.setattr(campaigns, "RECHECK_SAMPLE", 10)
    rep = verify_lemma_r_plus_2(5)
    d = json.loads(rep.to_json())
    assert d["campaign"] == "lemma_r_plus_2" and d["passed"] is True
    assert d["levels"][0]["negative"] == 30
    assert d["certificates"], "sampled certificates should be stored"


def test_spectral_theorem_5_3():
    rep = verify_spectral_theorem(5, 3, samples=200)
    assert rep.passed
    audit_cycle, audit_path, audit_random = rep.levels
    assert audit_cycle.visited == 252 and audit_cycle.negative == 0
    assert audit_path.visited == 210 and audit_path.negative == 0
    assert audit_random.visited == 200 and audit_random.negative == 0


def test_spectral_theorem_rejects_negative_samples():
    with pytest.raises(ValueError, match="samples must be non-negative, got -1"):
        verify_spectral_theorem(5, 3, samples=-1)


def test_every_swept_graph_is_visited():
    # a chunk that dropped graphs would show as visited < scanned
    reports = [
        verify_lemma_r_plus_2(5),
        verify_edge_theorem(5, 3),
        verify_spectral_theorem(5, 3, samples=64),
    ]
    levels = [lv for rep in reports for lv in rep.levels]
    assert len(levels) == 2 + 3 + 3
    for lv in levels:
        assert lv.visited == lv.scanned > 0, (lv.m, lv.kind, lv.mode)


def test_spectral_theorem_6_4():
    rep = verify_spectral_theorem(6, 4, samples=100)
    assert rep.passed


def test_spectral_report_worker_invariance():
    a = verify_spectral_theorem(5, 3, samples=64, jobs=1).to_dict()
    # chunks small enough that the pool runs
    b = verify_spectral_theorem(5, 3, samples=64, jobs=2, chunk_size=100).to_dict()
    for d in (a, b):
        d.pop("seconds")
        d.pop("jobs")
    assert a == b


def test_spectral_report_hides_chunk_and_slice_boundaries(monkeypatch):
    def report(**kw):
        d = verify_spectral_theorem(5, 3, samples=64, **kw).to_dict()
        d.pop("seconds")
        return d

    default = report()
    assert report(chunk_size=7) == default
    monkeypatch.setattr(spectral, "SPECTRAL_SLICE", 5)
    assert report() == default
    assert report(chunk_size=7) == default


GOLDEN = Path(__file__).with_name("golden_reports.json")


def _snapshot(rep):
    d = rep.to_dict()
    d.pop("seconds")
    d.pop("jobs")
    return {"report": d, "csv": rep.csv_rows()}


def test_reports_match_the_golden_copies():
    # Captured before the matching core and the campaign level routine were
    # merged; any refactor must leave passing reports exactly as they were.
    # A deliberate change of the canonical form changes the exception codes
    # and must regenerate this file.
    golden = json.loads(GOLDEN.read_text())
    assert _snapshot(verify_lemma_r_plus_2(5)) == golden["lemma_r_plus_2(5)"]
    assert _snapshot(verify_edge_theorem(5, 3)) == golden["edge_theorem(5, 3)"]
    assert _snapshot(verify_spectral_theorem(5, 3, samples=64)) == golden["spectral_theorem(5, 3, samples=64)"]


def test_each_exception_class_is_canonized_once(monkeypatch):
    # a row's negatives in its expected copy set are one class, canonized
    # once; every other negative is canonized on its own, and no
    # construction is canonized
    calls = []
    original = campaigns.canonical_form
    monkeypatch.setattr(campaigns, "canonical_form", lambda h: calls.append(h) or original(h))
    assert verify_lemma_r_plus_2(6).passed
    assert len(calls) == 1  # the pendant class
    calls.clear()
    assert verify_edge_theorem(5, 3).passed
    assert len(calls) == 2  # the pendant and isolated classes
    calls.clear()
    assert not verify_edge_theorem(5, 2).passed
    assert len(calls) == 1 + 10 + 1  # the pendant class, each copy of K_2 v \bar K_3, the isolated class


@pytest.mark.parametrize("campaign", ["lemma21-5", "edges-5-3", "edges-6-3", "edges-5-2", "edges-4-2"])
def test_berge_records_equal_a_canonical_census(campaign):
    # every negative of a fresh sweep of each row, canonized on its own: the
    # report's (code, count) pairs are that census, unexpected classes
    # included ((5,2) has one on its cycle level, (4,2) the star on its
    # path level), and each witness has its record's code
    name, *args = campaign.split("-")
    rep = (verify_lemma_r_plus_2 if name == "lemma21" else verify_edge_theorem)(*map(int, args))
    n, r = rep.levels[0].n, rep.levels[0].r
    decider = BergeDecider(n, universe_masks(n, r))
    negatives = []
    for lv in rep.levels:
        # a closure row holds the supergraphs of the row before's negatives
        bases = [0] if lv.mode == "all_labeled" else negatives
        specs = [LevelSpec(n, r, lv.m, base) for base in bases]
        masks = [c for spec in specs for c in level_masks(spec, np.arange(level_size(spec))).tolist()]
        negatives = [c for c, yes in zip(masks, decider.decide(masks, lv.kind).tolist()) if not yes]
        census = Counter(canonical_form(hypergraph_at(n, r, c)).compact() for c in negatives)
        assert [(e.code, e.count) for e in lv.exceptions] == sorted(census.items())
        for e in lv.exceptions:
            assert canonical_form(Hypergraph(n, r, e.example_edges)).compact() == e.code
    assert rep.passed == (r > 2 or n > 5)


def test_spectral_audit_excuses_a_graph_only_by_pendant_membership(monkeypatch):
    # with its copy set empty, the spectral audit, whose set is its only way
    # to excuse a graph, fails on exactly the pendant copies
    monkeypatch.setattr(campaigns, "pendant_copies", lambda n, r: frozenset())
    rep = verify_spectral_theorem(5, 3, samples=64)
    assert not rep.passed
    assert [(lv.m, lv.negative) for lv in rep.levels] == [(5, 30), (4, 0), (-1, 0)]
    spec, pendant = LevelSpec(5, 3, 5), clique_plus_pendant(5, 3)
    prefix = "violation at m=5 rank "
    suffix = ": non-hamiltonian above the edge threshold and not the pendant exception"
    violations = [note for note in rep.notes if note.startswith("violation")]
    assert len(violations) == 30
    for note in violations:
        assert note.startswith(prefix) and note.endswith(suffix)
        chosen, = level_masks(spec, [int(note[len(prefix):-len(suffix)])]).tolist()
        assert are_isomorphic(hypergraph_at(5, 3, chosen), pendant)


def test_spectral_campaign_runs_no_canonical_search(monkeypatch):
    calls = []
    original = campaigns.canonical_form
    monkeypatch.setattr(campaigns, "canonical_form", lambda h: calls.append(h) or original(h))
    assert verify_spectral_theorem(5, 3, samples=64).passed
    assert calls == []


def test_recheck_mismatch_names_the_rank(monkeypatch):
    spec = LevelSpec(5, 3, 5)
    ranks = sorted(random.Random(0).sample(range(level_size(spec)), 20))
    masks = level_masks(spec, np.array(ranks)).tolist()
    d = BergeDecider(5, universe_masks(5, 3))
    positives = [(rk, c) for rk, c in zip(ranks, masks) if d.certificate(c, "cycle") is not None]
    target_rank, target = positives[2]
    original = BergeDecider.certificate
    batched = BergeDecider.certificates

    def fake(self, chosen, kind, *args, **kwargs):
        return None if chosen == target else original(self, chosen, kind, *args, **kwargs)

    def fake_batch(self, masks, kind):
        found, vertices, edges = batched(self, masks, kind)
        hit = masks == target
        found[hit], vertices[hit], edges[hit] = False, 0, 0
        return found, vertices, edges

    monkeypatch.setattr(BergeDecider, "certificate", fake)
    monkeypatch.setattr(BergeDecider, "certificates", fake_batch)
    monkeypatch.setattr(campaigns, "RECHECK_SAMPLE", 20)
    rep = verify_lemma_r_plus_2(5)
    assert not rep.passed
    assert not rep.levels[0].ok and rep.levels[1].ok
    assert rep.levels[0].note == (
        f"sampled re-verification failed at rank {target_rank}: "
        "no cycle but the sweep decided the graph positive"
    )


def test_a_certificate_for_a_sweep_negative_names_the_rank(monkeypatch):
    # the sweep lists one sampled positive as negative; the recheck's certificate contradicts it
    spec = LevelSpec(5, 3, 5)
    ranks = sorted(random.Random(0).sample(range(level_size(spec)), 20))
    masks = level_masks(spec, np.array(ranks)).tolist()
    d = BergeDecider(5, universe_masks(5, 3))
    positives = [(rk, c) for rk, c in zip(ranks, masks) if d.certificate(c, "cycle") is not None]
    target_rank, target = positives[2]
    decide = BergeDecider.decide

    def fake(self, masks, kind):
        out = decide(self, masks, kind)
        out[np.asarray(masks) == target] = False
        return out

    monkeypatch.setattr(BergeDecider, "decide", fake)
    monkeypatch.setattr(campaigns, "RECHECK_SAMPLE", 20)
    rep = verify_lemma_r_plus_2(5)
    assert not rep.passed
    assert not rep.levels[0].ok and rep.levels[1].ok
    assert rep.levels[0].negative == 31
    assert rep.levels[0].note.endswith(
        f"; sampled re-verification failed at rank {target_rank}: "
        "a cycle certificate exists but the sweep decided the graph negative"
    )


def test_a_corrupted_batch_certificate_is_rejected_at_its_rank(monkeypatch):
    # every certificate row of the recheck goes through the checker, also
    # those that the lockstep pass settled without a one-graph search
    spec = LevelSpec(6, 4, 6)  # the cycle level, whose sample the campaign's seed-0 stream draws first
    ranks = sorted(random.Random(0).sample(range(level_size(spec)), campaigns.RECHECK_SAMPLE))
    masks = level_masks(spec, np.array(ranks)).tolist()
    d = BergeDecider(6, universe_masks(6, 4))
    searched = []
    original = BergeDecider.certificate
    monkeypatch.setattr(BergeDecider, "certificate",
                        lambda self, chosen, kind: searched.append(chosen) or original(self, chosen, kind))
    found, _, _ = d.certificates(masks, "cycle")
    monkeypatch.undo()
    target_rank, target = next((rk, c) for rk, c, hit in zip(ranks, masks, found.tolist())
                               if hit and c not in searched)
    batched = BergeDecider.certificates

    def corrupt(self, masks, kind):
        found, vertices, edges = batched(self, masks, kind)
        hit = masks == target
        edges[hit] = edges[hit][:, :1]  # every edge is the first one
        return found, vertices, edges

    monkeypatch.setattr(BergeDecider, "certificates", corrupt)
    rep = verify_lemma_r_plus_2(6)
    assert not rep.passed
    assert not rep.levels[0].ok and rep.levels[1].ok
    assert rep.levels[0].note == (
        f"sampled re-verification failed at rank {target_rank}: "
        "certificate rejected: repeated edge in edge sequence"
    )


def test_the_recheck_builds_certificates_only_for_the_report_and_the_searched_rows(monkeypatch):
    # the seed-0 sample of the (7,5) cycle level: the report's RECHECK_CERTS
    # certificates and the one-graph searches of the rows the pass hands
    # back are the only BergeCertificate objects, and the recheck searches
    # exactly those rows, each once
    spec = LevelSpec(7, 5, 7)
    ranks = sorted(random.Random(0).sample(range(level_size(spec)), campaigns.RECHECK_SAMPLE))
    masks = level_masks(spec, np.array(ranks))
    d = BergeDecider(7, universe_masks(7, 5))
    negatives = {rk for rk, c in zip(ranks, masks.tolist()) if d.certificate(c, "cycle") is None}
    searched = []
    original = BergeDecider.certificate
    monkeypatch.setattr(BergeDecider, "certificate",
                        lambda self, chosen, kind: searched.append(chosen) or original(self, chosen, kind))
    d.certificates(masks, "cycle")
    handed_back, searched[:] = searched[:], []
    built = []
    init = BergeCertificate.__init__
    monkeypatch.setattr(BergeCertificate, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    failure, certs = campaigns._recheck_sample(spec, "cycle", negatives, random.Random(0))
    assert failure == "" and len(certs) == campaigns.RECHECK_CERTS
    assert len(negatives) == 1 and len(handed_back) <= campaigns.RECHECK_SAMPLE // 10
    assert searched == handed_back and len(set(handed_back)) == len(handed_back)
    assert len(built) <= campaigns.RECHECK_CERTS + len(handed_back)


@pytest.mark.parametrize("run", [
    lambda: verify_lemma_r_plus_2(6),
    lambda: verify_lemma_r_plus_2(7),
    lambda: verify_edge_theorem(6, 3),
], ids=["lemma21-6", "lemma21-7", "edges-6-3"])
def test_report_certificates_are_each_graphs_own(run):
    rep = run()
    n, r = rep.params["n"], rep.params.get("r")
    d = BergeDecider(n, universe_masks(n, r))
    assert len(rep.certificates) == 3 * sum(lv.mode != "supergraphs" for lv in rep.levels)
    for entry in rep.certificates:
        mask = int(level_masks(LevelSpec(n, r, entry["m"]), [entry["rank"]])[0])
        own = certificate_to_dict(d.certificate(mask, entry["kind"]))
        assert entry == {**own, "rank": entry["rank"], "m": entry["m"]}


def test_spectral_violations_and_undecided_verdicts_keep_witnesses(monkeypatch):
    # audit order: the cycle level (m=5, 252 graphs), the path level (m=4,
    # 210 graphs), then the random graphs; the pendant exception's own
    # check comes last, through the same threshold_verdicts
    audited = 252 + 210 + 8
    seen = []
    original = campaigns.threshold_verdicts

    def fake(n, r, chosen, t, tol):
        if len(seen) == audited:  # the pendant check
            return original(n, r, chosen, t, tol)
        index = range(len(seen), len(seen) + len(chosen))
        seen.extend(chosen)
        verdicts = [CERTIFIED_ABOVE if i == 7 or i == 252 + 210 + 2 else
                    UNDECIDED if 252 <= i < 252 + 12 else CERTIFIED_BELOW_OR_EQUAL for i in index]
        return verdicts, np.array([not 252 + 5 <= i < 252 + 20 for i in index])

    monkeypatch.setattr(campaigns, "threshold_verdicts", fake)
    monkeypatch.setattr(campaigns, "pendant_copies", lambda n, r: frozenset())
    monkeypatch.setattr(BergeDecider, "decide", lambda self, masks, kind: np.zeros(len(masks), dtype=bool))
    rep = verify_spectral_theorem(5, 3, samples=8)
    assert len(seen) == audited
    assert not rep.passed
    assert [lv.negative for lv in rep.levels] == [1, 0, 1]
    assert rep.levels[1].note == "undecided=12 unconverged=15"
    forced = hypergraph_at(5, 3, seen[252 + 210 + 2])
    random_edges = [list(e) for e in forced.edge_sets()]
    shown = ", ".join(f"m=4 rank {rk}" for rk in range(10))
    assert rep.notes == [
        "violation at m=5 rank 7: non-hamiltonian above the edge threshold and not the pendant exception",
        f"violation at random graph with edges {random_edges}: spectral radius certified above "
        "threshold but edge count below implied bound",
        f"12 undecided instances need exact follow-up: {shown} (first 10)",
        "15 spectral runs did not converge",
    ]


def test_a_path_level_graph_certified_above_is_an_edge_bound_violation(monkeypatch):
    # lambda > C(n-2, r-1) forces more than C(n-1, r) edges (Bai-Lu), so a
    # path-level graph certified above fails the edge bound, though it has a
    # Hamiltonian path
    spec = LevelSpec(5, 3, 4)
    masks = level_masks(spec, np.arange(level_size(spec))).tolist()
    d = BergeDecider(5, universe_masks(5, 3))
    rank = next(rk for rk, c in enumerate(masks) if d.certificate(c, "path") is not None)
    original = campaigns.threshold_verdicts

    def fake(n, r, chosen, t, tol):
        verdicts, converged = original(n, r, chosen, t, tol)
        return [CERTIFIED_ABOVE if c == masks[rank] else v for c, v in zip(chosen, verdicts)], converged

    monkeypatch.setattr(campaigns, "threshold_verdicts", fake)
    rep = verify_spectral_theorem(5, 3, samples=0)
    assert not rep.passed
    assert [lv.negative for lv in rep.levels] == [0, 1, 0]
    assert rep.notes == [
        f"violation at m=4 rank {rank}: spectral radius certified above threshold "
        "but edge count below implied bound"
    ]


def test_spectral_audit_sends_only_near_ties_to_the_exact_test(monkeypatch):
    # the (6,4) levels hold 8,008 graphs; the float filter settles every
    # bracketed one, and the near-ties, the copies of K_5^4 + v at lambda =
    # t, are settled by their maximum degree Delta = t before any bracket
    calls = []
    original = spectral.certified_above
    monkeypatch.setattr(spectral, "certified_above", lambda h, x, t: calls.append(h) or original(h, x, t))
    rep = verify_spectral_theorem(6, 4, samples=0)
    assert rep.passed and sum(lv.visited for lv in rep.levels) == 8008
    assert len(calls) == 0


def test_a_near_tie_above_its_maximum_degree_still_reaches_the_exact_test(monkeypatch):
    # a (6,4) cycle-level graph with Delta > lambda, at t = its own float lower
    # bound: the bracket runs as it would without t, the filter cannot settle
    # the row, and the exact test at its vector gives the verdict
    spec = LevelSpec(6, 4, comb(5, 4) + 1)
    mask = int(level_masks(spec, np.arange(1))[0])
    h = hypergraph_at(6, 4, mask)
    est = spectral.spectral_radius(h, max_iter=50_000)
    t = est.lower
    assert max(h.degrees()) > t
    calls = []
    original = spectral.certified_above
    monkeypatch.setattr(spectral, "certified_above",
                        lambda g, x, t: calls.append((g, x.tobytes())) or original(g, x, t))
    want = CERTIFIED_ABOVE if original(h, est.vector, t) else CERTIFIED_BELOW_OR_EQUAL
    assert spectral.threshold_verdicts(6, 4, [mask], t)[0] == [want]
    assert calls == [(h, est.vector.tobytes())]
    calls.clear()
    assert spectral.exceeds_threshold(h, t) == want and len(calls) == 1


def test_audit_brackets_no_retry_without_undecided_verdicts(monkeypatch):
    # the audit asks threshold_verdicts once per level chunk and once for the
    # random graphs, at its own t and tol, and asks again about no graph:
    # the retry of an undecided verdict is threshold_verdicts' own
    calls = []
    original = campaigns.threshold_verdicts
    monkeypatch.setattr(campaigns, "threshold_verdicts", lambda n, r, chosen, t, tol: (
        calls.append((list(chosen), t, tol)) or original(n, r, chosen, t, tol)))
    rep = verify_spectral_theorem(5, 3, samples=64, tol=1e-8, chunk_size=100)
    assert all("undecided=0" in lv.note for lv in rep.levels)
    audited = [c for chosen, _, _ in calls[:-1] for c in chosen]
    assert [len(chosen) for chosen, _, _ in calls] == [100, 100, 52, 100, 100, 10, 64, 1]
    assert audited[:462] == level_masks(LevelSpec(5, 3, 5), np.arange(252)).tolist() + level_masks(
        LevelSpec(5, 3, 4), np.arange(210)).tolist()
    assert calls[-1][0] == [chosen_mask(5, 3, clique_plus_pendant(5, 3).edges)]
    assert {(t, tol) for _, t, tol in calls} == {(3, 1e-8)}


@pytest.mark.parametrize("n,r,sample", [(5, 2, None), (5, 3, None), (6, 4, None), (6, 3, 20_000), (7, 5, 20_000)])
def test_pendant_copies_are_recognized_by_their_structure(n, r, sample):
    # membership in the copy set, on the whole cycle level or a seeded
    # sample of it, against a verified isomorphism onto the construction
    spec = LevelSpec(n, r, comb(n - 1, r) + 1)
    size = level_size(spec)
    ranks = range(size) if sample is None else sorted(random.Random(size).sample(range(size), sample))
    pendant = clique_plus_pendant(n, r)
    masks = level_masks(spec, np.array(ranks)).tolist()
    got = [c in pendant_copies(n, r) for c in masks]
    assert got == [isomorphism(hypergraph_at(n, r, c), pendant) is not None for c in masks]
    # n * C(n-1, r-1) labeled copies on a whole level, some in each sample
    assert sum(got) == n * comb(n - 1, r - 1) if sample is None else any(got)


@pytest.mark.parametrize("n,r", [(5, 2), (5, 3), (6, 4)])
def test_isolated_copies_are_recognized_on_whole_path_levels(n, r):
    spec = LevelSpec(n, r, comb(n - 1, r))
    isolated = clique_plus_isolated(n, r)
    masks = level_masks(spec, np.arange(level_size(spec))).tolist()
    got = [c in isolated_copies(n, r) for c in masks]
    assert got == [isomorphism(hypergraph_at(n, r, c), isolated) is not None for c in masks]
    assert sum(got) == n


@pytest.mark.parametrize("n,r", [(5, 2), (5, 3), (6, 3), (6, 4), (7, 5)])
def test_pendant_check_rejects_the_other_dense_graphs(n, r):
    # K_n^r holds every edge avoiding a vertex, with too many edges; the
    # isolated-vertex graph has too few
    assert chosen_mask(n, r, clique_plus_pendant(n, r).edges) in pendant_copies(n, r)
    for h in (complete(n, r), clique_plus_isolated(n, r)):
        assert chosen_mask(n, r, h.edges) not in pendant_copies(n, r)


def test_pendant_check_rejects_ores_other_exception():
    # K_2 v \bar K_3 has the C(4, 2) + 1 = 7 edges of K_4 + e, but any four
    # of its vertices hold two of the three independent ones
    alien = Hypergraph(5, 2, [(0, 1), *((a, b) for a in (0, 1) for b in (2, 3, 4))])
    assert alien.m == comb(4, 2) + 1
    assert chosen_mask(5, 2, alien.edges) not in pendant_copies(5, 2)


def test_spectral_audit_builds_no_estimate_and_matches_no_graph(monkeypatch):
    # the 8,008 level graphs and the pendant exception run as arrays, and the
    # isolated-vertex exception is checked in exact integers
    built = []
    original = spectral.SpectralEstimate
    monkeypatch.setattr(spectral, "SpectralEstimate", lambda *a: built.append(a) or original(*a))
    assert verify_spectral_theorem(6, 4, samples=0).passed
    assert built == []
    assert not hasattr(canonical, "isomorphism")
    assert not hasattr(campaigns, "isomorphism")


class _HeavierGraph(Hypergraph):
    """A hypergraph whose every degree reads one more than it is."""

    __slots__ = ()

    def degrees(self) -> list[int]:
        return [d + 1 for d in super().degrees()]


@pytest.mark.parametrize("n,r", [(5, 2), (5, 3), (6, 4)])
def test_the_isolated_exception_check_needs_both_exact_equalities(n, r, monkeypatch):
    # lambda(K_{n-1}^r + v) = t holds as the form ratio at the clique's
    # indicator (lambda >= t) and as the largest degree (lambda <= t); either
    # one failing alone fails check (c)
    t = comb(n - 2, r - 1)
    note = "isolated-vertex exception failed its equality-case check"
    assert note not in verify_spectral_theorem(n, r, samples=0).notes
    with monkeypatch.context() as m:
        m.setattr(campaigns, "exact_form_ratio", lambda h, x: Fraction(t) - Fraction(1, 10 ** 30))
        rep = verify_spectral_theorem(n, r, samples=0)
        assert not rep.passed and rep.notes == [note]
    with monkeypatch.context() as m:
        m.setattr(campaigns, "clique_plus_isolated", lambda n, r: _HeavierGraph(n, r, clique_plus_isolated(n, r).edges))
        rep = verify_spectral_theorem(n, r, samples=0)
        assert not rep.passed and rep.notes == [note]

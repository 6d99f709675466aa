import json
import random
from math import comb
from pathlib import Path

import numpy as np
import pytest

from bergeham import campaigns
from bergeham.berge import BergeDecider, SearchResult, find_hamiltonian_berge_cycle
from bergeham.campaigns import (
    CSV_HEADER,
    verify_edge_theorem,
    verify_lemma_r_plus_2,
    verify_spectral_theorem,
)
from bergeham.canonical import canonical_form
from bergeham.enumeration import LevelSpec, hypergraph_at, iter_level_masks, level_size
from bergeham.hypergraph import clique_plus_isolated, clique_plus_pendant, universe_masks
from bergeham.spectral import CERTIFIED_ABOVE, CERTIFIED_BELOW_OR_EQUAL, UNDECIDED


def test_lemma_base_case_n5():
    rep = verify_lemma_r_plus_2(5)
    assert rep.passed
    lv5, lv6 = rep.levels
    assert (lv5.m, lv5.visited, lv5.negative) == (5, 252, 30)
    assert (lv6.m, lv6.visited, lv6.negative) == (6, 210, 0)
    assert lv5.exceptions[0].count == 30
    assert lv5.exceptions[0].code == canonical_form(clique_plus_pendant(5, 3)).compact()


def test_lemma_base_case_rejects_out_of_range():
    for n in (4, 9):
        with pytest.raises(ValueError):
            verify_lemma_r_plus_2(n)


def test_berge_campaigns_reject_a_negative_recheck_sample():
    with pytest.raises(ValueError, match="recheck_sample must be non-negative, got -1"):
        verify_lemma_r_plus_2(5, recheck_sample=-1)
    with pytest.raises(ValueError, match="recheck_sample must be non-negative, got -1"):
        verify_edge_theorem(5, 3, recheck_sample=-1)


def test_lemma_report_is_worker_count_invariant():
    runs = (
        lambda jobs: verify_lemma_r_plus_2(5, jobs=jobs, recheck_sample=50),
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
    base = next(ch for _, ch in iter_level_masks(cycle_level) if not decider.cycle_exists(ch))
    (_, target), = iter_level_masks(LevelSpec(5, 3, 6, base=hypergraph_at(cycle_level, base)), 3, 4)
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
    assert cycle.to_dict() == good.levels[0].to_dict()
    assert path.to_dict() == good.levels[2].to_dict()
    assert not closure.ok
    assert (closure.m, closure.mode, closure.visited, closure.negative) == (6, "supergraphs", 150, 1)
    assert closure.positive == good.levels[1].positive - 1 == 149
    record, = closure.exceptions
    assert record.count == 1
    assert record.code == canonical_form(hypergraph_at(cycle_level, target)).compact()
    assert closure.note == "expected no exceptions, found 1"


def test_closure_row_without_exceptions_has_zero_counts(monkeypatch):
    decide = BergeDecider.decide
    monkeypatch.setattr(BergeDecider, "decide", lambda self, masks, kind: (
        np.ones(len(masks), dtype=bool) if kind == "cycle" else decide(self, masks, kind)))
    rep = verify_edge_theorem(5, 3, recheck_sample=0)
    assert not rep.passed
    assert rep.levels[0].note == "expected exceptions, found none"
    assert rep.levels[1].to_dict() == {
        "n": 5, "r": 3, "m": 6, "mode": "supergraphs", "kind": "cycle", "scanned": 0, "visited": 0,
        "positive": 0, "negative": 0, "exceptions": [], "ok": True, "note": "",
    }


def test_edge_theorem_6_4():
    rep = verify_edge_theorem(6, 4)
    assert rep.passed
    assert rep.levels[0].negative == 6 * comb(5, 3) == 60
    assert rep.levels[2].negative == 6


def test_csv_schema():
    rep = verify_edge_theorem(5, 3)
    rows = rep.csv_rows()
    assert rows[0] == CSV_HEADER == "n,r,m,visited,hamiltonian,nonhamiltonian,exceptions,pass"
    assert len(rows) == 1 + len(rep.levels)
    first = rows[1].split(",")
    assert first[0] == "5" and first[1] == "3" and first[-1] in ("true", "false")


def test_report_json_serializes():
    rep = verify_lemma_r_plus_2(5, recheck_sample=10)
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
    # chunks small enough that the pool runs and its tasks carry the exceptional graphs
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
    monkeypatch.setattr(campaigns, "SPECTRAL_SLICE", 5)
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
    # one canonical search per exception class found plus one per expected
    # construction; every other labeled copy is matched to its class witness
    calls = []
    original = campaigns.canonical_form
    monkeypatch.setattr(campaigns, "canonical_form", lambda h: calls.append(h) or original(h))
    assert verify_lemma_r_plus_2(6).passed
    assert len(calls) == 1 + 1  # the pendant class; the pendant construction
    calls.clear()
    assert verify_edge_theorem(5, 3).passed
    assert len(calls) == 2 + 2  # the pendant and isolated classes; both constructions


def test_reports_do_not_depend_on_the_matcher(monkeypatch):
    # with every match missed, each copy is canonized and the reports stay as they are
    monkeypatch.setattr(campaigns, "isomorphism", lambda a, b: None)
    golden = json.loads(GOLDEN.read_text())
    assert _snapshot(verify_lemma_r_plus_2(5)) == golden["lemma_r_plus_2(5)"]
    assert _snapshot(verify_edge_theorem(5, 3)) == golden["edge_theorem(5, 3)"]
    assert _snapshot(verify_spectral_theorem(5, 3, samples=64)) == golden["spectral_theorem(5, 3, samples=64)"]


def test_recheck_mismatch_names_the_rank(monkeypatch):
    spec = LevelSpec(5, 3, 5)
    ranks = sorted(random.Random(0).sample(range(level_size(spec)), 20))

    def graph(rank):
        (_, chosen), = iter_level_masks(spec, rank, rank + 1)
        return hypergraph_at(spec, chosen)

    positives = [rk for rk in ranks if find_hamiltonian_berge_cycle(graph(rk))]
    target = graph(positives[2])
    original = campaigns.find_hamiltonian_berge_cycle

    def fake(h):
        return SearchResult(None, "search_exhausted") if h == target else original(h)

    monkeypatch.setattr(campaigns, "find_hamiltonian_berge_cycle", fake)
    rep = verify_lemma_r_plus_2(5, recheck_sample=20)
    assert not rep.passed
    assert not rep.levels[0].ok and rep.levels[1].ok
    assert rep.levels[0].note == (
        f"sampled re-verification failed at rank {positives[2]}: "
        "no cycle (search_exhausted) but the sweep decided the graph positive"
    )


def test_spectral_violations_and_undecided_verdicts_keep_witnesses(monkeypatch):
    calls = []

    def fake(h, *args, **kwargs):
        # call order: the cycle level (m=5, 252 graphs), the path level
        # (m=4, 210 graphs), then the random graphs
        i = len(calls)
        calls.append(h)
        if i == 7 or i == 252 + 210 + 2:
            return CERTIFIED_ABOVE, "forced violation", False
        if 252 <= i < 252 + 12:
            return UNDECIDED, None, False
        return CERTIFIED_BELOW_OR_EQUAL, None, False

    monkeypatch.setattr(campaigns, "_audit_graph", fake)
    rep = verify_spectral_theorem(5, 3, samples=8)
    assert len(calls) == 252 + 210 + 8
    assert not rep.passed
    assert [lv.negative for lv in rep.levels] == [1, 0, 1]
    assert rep.levels[1].note == "undecided=12 unconverged=0"
    random_edges = [list(e) for e in calls[252 + 210 + 2].edge_sets()]
    shown = ", ".join(f"m=4 rank {rk}" for rk in range(10))
    assert rep.notes == [
        "violation at m=5 rank 7: forced violation",
        f"violation at random graph with edges {random_edges}: forced violation",
        f"12 undecided instances need exact follow-up: {shown} (first 10)",
    ]

"""End-to-end verification campaigns with machine-readable reports.

Each campaign sweeps enumeration levels, classifies every graph with the
exact Berge searcher (or the spectral threshold machinery), collapses the
failures by canonical form, and passes only when the exceptional graphs
are exactly the predicted ones *as isomorphism classes and as labeled
counts*.  Every Berge report row is one ``_berge_level`` call over a
list of level specs: one whole level, or the supergraphs of each
exception found (the closure row).  Exceptions are compared by canonical
code with constructed exceptional graphs, because the claims being
verified are claims up to isomorphism.  Each class is canonized once, and
its other labeled copies match a class witness by a verified relabeling.

Campaign aggregates are merged in rank order from deterministic chunks,
so reports are identical for any worker count; a seeded sample of graphs
is re-decided through the public certificate-producing API afterwards and
each certificate re-verified, tying the fast sweep path to the checkable
one.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from itertools import islice
from math import comb
from typing import Iterator

import numpy as np

from .berge import (
    BergeDecider,
    find_hamiltonian_berge_cycle,
    find_hamiltonian_berge_path,
    verify_certificate,
)
from .bounds import threshold
from .canonical import CanonicalForm, canonical_form, isomorphism
from .enumeration import (
    ALL_LABELED,
    DEFAULT_BUDGET,
    DEFAULT_CHUNK,
    LevelSpec,
    ReductionPlan,
    SUPERGRAPHS,
    hypergraph_at,
    level_masks,
    level_size,
    monotone_reduction_plan,
    run_chunks,
)
from .formats import certificate_to_dict
from .hypergraph import (
    Hypergraph,
    clique_plus_isolated,
    clique_plus_pendant,
    mask_of,
    members_of,
    universe_masks,
)
from .spectral import (
    CERTIFIED_ABOVE,
    UNDECIDED,
    spectral_radii,
    spectral_radius,
    threshold_verdict,
)

CSV_HEADER = "n,r,m,visited,hamiltonian,nonhamiltonian,exceptions,pass"
UNDECIDED_SHOWN = 10  # undecided witnesses listed in a spectral report's notes
SPECTRAL_SLICE = 512  # graphs bracketed per batched kernel call, for any chunk size


@dataclass
class ExceptionRecord:
    code: str                      # compact canonical form
    count: int                     # labeled copies found
    example_edges: list[list[int]]  # one witness, as vertex lists

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LevelOutcome:
    n: int
    r: int
    m: int
    mode: str
    kind: str                      # "cycle" | "path" | "spectral_audit"
    scanned: int
    visited: int
    positive: int
    negative: int
    exceptions: list[ExceptionRecord]
    ok: bool
    note: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        d["exceptions"] = [e.to_dict() for e in self.exceptions]
        return d

    def csv_row(self) -> str:
        codes = ";".join(e.code for e in self.exceptions)
        return (
            f"{self.n},{self.r},{self.m},{self.visited},{self.positive},"
            f"{self.negative},{codes},{str(self.ok).lower()}"
        )


@dataclass
class VerificationReport:
    campaign: str
    params: dict
    levels: list[LevelOutcome] = field(default_factory=list)
    passed: bool = False
    seconds: float = 0.0
    jobs: int = 1
    notes: list[str] = field(default_factory=list)
    certificates: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "params": self.params,
            "levels": [lv.to_dict() for lv in self.levels],
            "passed": self.passed,
            "seconds": self.seconds,
            "jobs": self.jobs,
            "notes": self.notes,
            "certificates": self.certificates,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def csv_rows(self) -> list[str]:
        return [CSV_HEADER] + [lv.csv_row() for lv in self.levels]


# --------------------------------------------------------------------------
# chunk workers (module level so process pools can pickle them)

@cache
def _decider(n: int, r: int) -> BergeDecider:
    return BergeDecider(n, universe_masks(n, r))


def _berge_chunk(spec: LevelSpec, lo: int, hi: int, *, kind: str):
    """Decide one chunk; returns (decided, positives, [(rank, mask) negatives])."""
    masks = level_masks(spec, np.arange(lo, hi))
    yes = _decider(spec.n, spec.r).decide(masks, kind)
    neg = [(lo + i, int(masks[i])) for i in np.flatnonzero(~yes).tolist()]
    return len(masks), len(masks) - len(neg), neg


def _retried_verdict(h: Hypergraph, est, t_spec: int, tol: float) -> tuple[str, bool]:
    """(verdict, unconverged flag) of a graph from its bracket ``est`` at ``tol``;
    an undecided verdict is retried alone at ``tol/1000``."""
    verdict, unconverged = threshold_verdict(h, est, t_spec, tol), not est.converged
    if verdict == UNDECIDED:
        est = spectral_radius(h, tol / 1000, max_iter=500_000)
        unconverged = unconverged or not est.converged
        verdict = threshold_verdict(h, est, t_spec, tol)
    return verdict, unconverged


def _audit_graph(h: Hypergraph, first: tuple[str, bool], hamiltonian: bool | None,
                 t_edge: int, ke: Hypergraph, ke_code: str, kv: Hypergraph, kv_code: str):
    """Audit one graph for the spectral->edge->Hamiltonicity implication chain.

    ``first`` is the graph's (verdict, unconverged flag) after the retry.
    ``hamiltonian`` is its Berge verdict, asked only of graphs certified
    above the threshold with at least ``t_edge`` edges: a Hamiltonian cycle
    above ``t_edge``, a Hamiltonian path at it.
    Returns (verdict, violation reason or None, unconverged flag).
    """
    verdict, unconverged = first
    if verdict != CERTIFIED_ABOVE:
        return verdict, None, unconverged
    if h.m < t_edge:
        return verdict, "spectral radius certified above threshold but edge count below implied bound", unconverged
    if h.m > t_edge:
        if not hamiltonian and _class_code(h, {ke_code: ke}) != ke_code:
            return verdict, "non-hamiltonian above the edge threshold and not the pendant exception", unconverged
    else:
        if not hamiltonian and _class_code(h, {kv_code: kv}) != kv_code:
            return verdict, "no hamiltonian path at the edge threshold and not the isolated-vertex exception", unconverged
    return verdict, None, unconverged


@dataclass
class AuditTally:
    """Spectral-audit counts over a set of graphs, merged in rank order.

    Violations and undecided verdicts keep a witness to rebuild the graph
    from, formatted when it is recorded: ``m=M rank R`` for a graph on an
    enumeration level, or the random graph's edge list (rank ``None``).
    """

    audited: int = 0
    above: int = 0
    unconverged: int = 0
    undecided: list[str] = field(default_factory=list)   # witnesses
    violations: list[str] = field(default_factory=list)  # "violation at <witness>: <reason>"

    def add(self, rank: int | None, h: Hypergraph, verdict: str, violation: str | None,
            unconverged: bool) -> None:
        self.audited += 1
        self.unconverged += unconverged
        self.above += verdict == CERTIFIED_ABOVE
        if verdict == UNDECIDED or violation is not None:
            witness = (f"m={h.m} rank {rank}" if rank is not None
                       else f"random graph with edges {[list(e) for e in h.edge_sets()]}")
            if verdict == UNDECIDED:
                self.undecided.append(witness)
            if violation is not None:
                self.violations.append(f"violation at {witness}: {violation}")

    def merge(self, other: "AuditTally") -> None:
        self.audited += other.audited
        self.above += other.above
        self.unconverged += other.unconverged
        self.undecided.extend(other.undecided)
        self.violations.extend(other.violations)

    def outcome(self, n: int, r: int, m: int, mode: str, scanned: int) -> LevelOutcome:
        return LevelOutcome(
            n=n, r=r, m=m, mode=mode, kind="spectral_audit",
            scanned=scanned, visited=self.audited, positive=self.above,
            negative=len(self.violations), exceptions=[], ok=not self.violations,
            note=f"undecided={len(self.undecided)} unconverged={self.unconverged}",
        )


def _audit_graphs(n: int, r: int, graphs: Iterator, *, t_spec: int, t_edge: int, tol: float,
                  ke: Hypergraph, ke_code: str, kv: Hypergraph, kv_code: str) -> AuditTally:
    """Audit (rank or None, h, chosen-universe mask) triples, in order.

    Brackets come from one ``spectral_radii`` call per ``SPECTRAL_SLICE``
    graphs, and Berge verdicts from one ``decide`` call per slice and kind,
    so memory stays flat however many graphs ``graphs`` yields.
    """
    d = _decider(n, r)
    tally = AuditTally()
    while part := list(islice(graphs, SPECTRAL_SLICE)):
        ests = spectral_radii(n, r, [chosen for _, _, chosen in part], tol, max_iter=50_000)
        firsts = [_retried_verdict(h, est, t_spec, tol) for (_, h, _), est in zip(part, ests)]
        asked: dict[str, list[int]] = {"cycle": [], "path": []}
        for i, ((_, h, _), (verdict, _)) in enumerate(zip(part, firsts)):
            if verdict == CERTIFIED_ABOVE and h.m >= t_edge:
                asked["cycle" if h.m > t_edge else "path"].append(i)
        hamiltonian: list[bool | None] = [None] * len(part)
        for kind, rows in asked.items():
            for i, yes in zip(rows, d.decide([part[i][2] for i in rows], kind).tolist()):
                hamiltonian[i] = yes
        for (rank, h, _), first, ham in zip(part, firsts, hamiltonian):
            tally.add(rank, h, *_audit_graph(h, first, ham, t_edge, ke, ke_code, kv, kv_code))
    return tally


def _spectral_chunk(spec: LevelSpec, lo: int, hi: int, **audit_kwargs) -> AuditTally:
    masks = level_masks(spec, np.arange(lo, hi)).tolist()
    graphs = ((rank, hypergraph_at(spec, chosen), chosen) for rank, chosen in zip(range(lo, hi), masks))
    return _audit_graphs(spec.n, spec.r, graphs, **audit_kwargs)


# --------------------------------------------------------------------------
# shared campaign plumbing


def _class_code(h: Hypergraph, witnesses: dict[str, Hypergraph]) -> str:
    """Code of the first witness ``h`` maps onto, else ``h``'s canonical code,
    with ``h`` recorded as the witness of a class that has none yet."""
    for code, w in witnesses.items():
        if isomorphism(h, w) is not None:
            return code
    code = canonical_form(h).compact()
    witnesses.setdefault(code, h)
    return code


def _collapse_exceptions(spec: LevelSpec, negatives: list[tuple[int, int]]):
    """Group negative ranks by canonical form; returns (records, graphs)."""
    by_code: Counter[str] = Counter()
    witness: dict[str, Hypergraph] = {}
    graphs: list[Hypergraph] = []
    for _, chosen in negatives:
        h = hypergraph_at(spec, chosen)
        graphs.append(h)
        by_code[_class_code(h, witness)] += 1
    records = [
        ExceptionRecord(code=c, count=k, example_edges=[list(members_of(e)) for e in witness[c].edges])
        for c, k in sorted(by_code.items())
    ]
    return records, graphs


def _expected_exception_outcome(records: list[ExceptionRecord], expected: CanonicalForm | None,
                                expected_count: int) -> tuple[bool, str]:
    if expected is None or expected_count == 0:
        if records:
            return False, f"expected no exceptions, found {sum(r.count for r in records)}"
        return True, ""
    want = expected.compact()
    if not records:
        return False, "expected exceptions, found none"
    if any(r.code != want for r in records):
        alien = [r.code for r in records if r.code != want]
        return False, f"unexpected exception classes: {alien}"
    found = records[0].count
    if found != expected_count:
        return False, f"expected {expected_count} labeled copies, found {found}"
    return True, ""


def _recheck_sample(spec: LevelSpec, kind: str, negatives: set[int], rng: random.Random,
                    sample_size: int, keep_certs: int = 3):
    """Re-decide a seeded sample through the public API and verify certificates.

    Cross-checks the fast sweep verdicts: a sampled rank must have a
    verifiable certificate exactly when the sweep did not list it as
    negative.  Returns (failure, certificate dicts); ``failure`` is empty
    when every sampled verdict holds, and otherwise names the first
    failing rank and why it failed.
    """
    total = level_size(spec)
    k = min(sample_size, total)
    if k == 0:
        return "", []
    ranks = sorted(rng.sample(range(total), k))
    certs: list[dict] = []
    for rank, chosen in zip(ranks, level_masks(spec, np.array(ranks)).tolist()):
        h = hypergraph_at(spec, chosen)
        res = find_hamiltonian_berge_cycle(h) if kind == "cycle" else find_hamiltonian_berge_path(h)
        cert = res.certificate
        problem = ""
        if cert is not None:
            bad = verify_certificate(h, cert)
            if bad or len(cert.vertices) != h.n:
                problem = f"certificate rejected: {'; '.join(bad) or 'does not span the graph'}"
            elif rank in negatives:
                problem = f"a {kind} certificate exists but the sweep decided the graph negative"
        elif rank not in negatives:
            problem = f"no {kind} ({res.reason}) but the sweep decided the graph positive"
        if problem:
            return f"sampled re-verification failed at rank {rank}: {problem}", certs
        if cert is not None and len(certs) < keep_certs:
            d = certificate_to_dict(cert)
            d["rank"] = rank
            d["m"] = spec.m
            certs.append(d)
    return "", certs


def _berge_level(report: VerificationReport, level: LevelSpec, kind: str,
                 expected: CanonicalForm | None, expected_count: int,
                 rng: random.Random, recheck_sample: int, run: dict,
                 bases: list[Hypergraph] | None = None) -> tuple[bool, list[Hypergraph]]:
    """Check one report row against its expected exceptions and record it.

    A row sweeps a list of level specs: the whole ``level``, or, given
    ``bases``, the ``level.m``-edge supergraphs of each base graph, one spec
    per base (the closure row; no bases give a row of zero counts).  Each
    spec is swept with the ``kind`` decider (``run`` holds the
    ``run_chunks`` options) and a seeded sample of it re-decided.  All the
    row's negatives are collapsed by canonical form at once and compared
    with ``expected_count`` labeled copies of ``expected``; the row and the
    sampled certificates go to ``report``.  Returns (ok, negative graphs).
    """
    specs = [level] if bases is None else [LevelSpec(level.n, level.r, level.m, base=g) for g in bases]
    visited = positive = 0
    negatives, failures = [], []
    for spec in specs:
        chunks = run_chunks(spec, partial(_berge_chunk, kind=kind), **run)
        found = [ng for c in chunks for ng in c[2]]
        visited += sum(c[0] for c in chunks)
        positive += sum(c[1] for c in chunks)
        negatives += found
        failure, certs = _recheck_sample(spec, kind, {rk for rk, _ in found}, rng, recheck_sample)
        failures.append(failure)
        report.certificates.extend(certs)
    records, graphs = _collapse_exceptions(level, negatives)
    ok, note = _expected_exception_outcome(records, expected, expected_count)
    ok = ok and not any(failures)
    note = "; ".join(filter(None, [note, *failures]))
    report.levels.append(
        LevelOutcome(
            n=level.n, r=level.r, m=level.m, mode=level.mode if bases is None else SUPERGRAPHS,
            kind=kind, scanned=sum(map(level_size, specs)), visited=visited, positive=positive,
            negative=len(negatives), exceptions=records, ok=ok, note=note,
        )
    )
    return ok, graphs


def _cycle_level(report: VerificationReport, plan: ReductionPlan, rng: random.Random,
                 recheck_sample: int, run: dict) -> tuple[bool, list[Hypergraph]]:
    """Check the plan's cycle level: its non-Hamiltonian graphs must be
    exactly the n·C(n-1, r-1) labeled copies of the clique-plus-pendant graph."""
    n, r = plan.n, plan.r
    return _berge_level(report, plan.cycle_level, "cycle", canonical_form(clique_plus_pendant(n, r)),
                        n * comb(n - 1, r - 1), rng, recheck_sample, run)


def _require_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


# --------------------------------------------------------------------------
# campaigns


def verify_lemma_r_plus_2(
    n: int,
    *,
    jobs: int = 1,
    budget: int | None = DEFAULT_BUDGET,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
    recheck_sample: int = 1000,
    progress=None,
) -> VerificationReport:
    """Exhaustively check the (n-2)-uniform base case on n vertices.

    This is the edge theorem at r = n-2, whose cycle level has m = n
    edges: its only non-Hamiltonian graphs must be the labeled copies of
    the clique-plus-pendant graph.  Instead of the supergraph closure,
    the whole m = n+1 level is swept, and all of it must be Hamiltonian.
    The range 5 <= n <= 8 is the feasible desk-scale range; larger n is
    out of scope for exhaustive checking.
    """
    if not 5 <= n <= 8:
        raise ValueError(f"supported exhaustive range is 5 <= n <= 8, got n={n}")
    _require_nonnegative("recheck_sample", recheck_sample)
    plan = monotone_reduction_plan(n, n - 2)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    report = VerificationReport(
        campaign="lemma_r_plus_2",
        params={"n": n, "r": plan.r, "mode": ALL_LABELED, "seed": seed},
        jobs=jobs,
    )
    run = dict(jobs=jobs, budget=budget, chunk_size=chunk_size, progress=progress)
    ok_cycle, _ = _cycle_level(report, plan, rng, recheck_sample, run)
    ok_next, _ = _berge_level(report, LevelSpec(n, plan.r, plan.cycle_level.m + 1), "cycle",
                              None, 0, rng, recheck_sample, run)
    report.passed = ok_cycle and ok_next
    report.seconds = time.perf_counter() - t0
    return report


def verify_edge_theorem(
    n: int,
    r: int,
    *,
    jobs: int = 1,
    budget: int | None = DEFAULT_BUDGET,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
    recheck_sample: int = 1000,
    progress=None,
) -> VerificationReport:
    """Verify the edge-count Hamiltonicity threshold at (n, r), all m.

    Executes the monotone reduction plan: the level one above the cycle
    threshold must fail exactly on labeled pendant-clique copies, one more
    edge on top of each exception actually found must always be
    Hamiltonian, and the path-threshold level must fail exactly on the
    labeled isolated-vertex copies.  Together with monotonicity under
    edge addition this settles every edge count.
    """
    plan = monotone_reduction_plan(n, r)
    _require_nonnegative("recheck_sample", recheck_sample)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    report = VerificationReport(
        campaign="edge_theorem",
        params={"n": n, "r": r, "seed": seed},
        jobs=jobs,
    )
    run = dict(jobs=jobs, budget=budget, chunk_size=chunk_size, progress=progress)

    # cycle level: one edge above the threshold
    ok_cycle, exception_graphs = _cycle_level(report, plan, rng, recheck_sample, run)

    # closure row: every one-edge supergraph of each exception actually found
    ok_closure, _ = _berge_level(report, LevelSpec(n, r, plan.cycle_level.m + 1), "cycle", None, 0,
                                 rng, 0, run, bases=exception_graphs)

    # path level: at the threshold
    ok_path, _ = _berge_level(
        report, plan.path_level, "path", canonical_form(clique_plus_isolated(n, r)),
        n, rng, recheck_sample, run,
    )

    report.passed = ok_cycle and ok_closure and ok_path
    report.seconds = time.perf_counter() - t0
    return report


def verify_spectral_theorem(
    n: int,
    r: int,
    *,
    samples: int = 1000,
    tol: float = 1e-9,
    jobs: int = 1,
    budget: int | None = DEFAULT_BUDGET,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
    progress=None,
) -> VerificationReport:
    """Audit the spectral Hamiltonicity threshold at (n, r).

    Three checks: (a) for every graph on the edge-theorem levels plus
    seeded random graphs over all edge counts, a spectral radius certified
    above the spectral threshold must force the edge count over the edge
    threshold and a Hamiltonicity verdict consistent with the edge-count
    statement; (b) the pendant-clique exception sits strictly above the
    spectral threshold and is non-Hamiltonian; (c) the isolated-vertex
    exception brackets the threshold exactly and has no Hamiltonian path.
    Undecided threshold verdicts are retried at a tighter tolerance and
    otherwise reported for exact-arithmetic follow-up, never dropped.
    """
    if r < 3 or n < r + 2:
        raise ValueError(f"need n >= r+2 and r >= 3, got (n={n}, r={r})")
    _require_nonnegative("samples", samples)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    t_spec = threshold("spectral_cycle", n, r).value
    t_edge = threshold("edge_cycle", n, r).value
    ke = clique_plus_pendant(n, r)
    kv = clique_plus_isolated(n, r)
    ke_code = canonical_form(ke).compact()
    kv_code = canonical_form(kv).compact()
    report = VerificationReport(
        campaign="spectral_theorem",
        params={"n": n, "r": r, "samples": samples, "tol": tol, "seed": seed},
        jobs=jobs,
    )

    audit_kwargs = dict(t_spec=t_spec, t_edge=t_edge, tol=tol, ke=ke, ke_code=ke_code, kv=kv, kv_code=kv_code)
    total = AuditTally()  # every row's tally, for the notes
    plan = monotone_reduction_plan(n, r)
    for spec in (plan.cycle_level, plan.path_level):
        tally = AuditTally()
        for chunk in run_chunks(spec, partial(_spectral_chunk, **audit_kwargs), jobs=jobs,
                                chunk_size=chunk_size, budget=budget, progress=progress):
            tally.merge(chunk)
        report.levels.append(tally.outcome(n, r, spec.m, spec.mode, level_size(spec)))
        total.merge(tally)

    # random graphs across all edge counts, all drawn before any is audited
    u = universe_masks(n, r)
    drawn = []
    for _ in range(samples):
        m = rng.randint(0, len(u))
        drawn.append(rng.sample(range(len(u)), m))
    graphs = ((None, Hypergraph(n, r, [u[i] for i in idx]), mask_of(idx)) for idx in drawn)
    tally = _audit_graphs(n, r, graphs, **audit_kwargs)
    report.levels.append(tally.outcome(n, r, -1, "random", samples))
    total.merge(tally)
    report.notes.extend(total.violations)

    # (b) pendant exception: strictly above the threshold, non-hamiltonian
    est = spectral_radius(ke, tol)
    ok_pendant = (
        threshold_verdict(ke, est, t_spec, tol) == CERTIFIED_ABOVE
        and not find_hamiltonian_berge_cycle(ke)
    )
    if not ok_pendant:
        report.notes.append("pendant exception failed its spectral/hamiltonicity check")

    # (c) isolated exception: brackets the threshold, no hamiltonian path
    est = spectral_radius(kv, tol)
    ok_isolated = (
        est.converged
        and abs(est.lower - t_spec) <= tol
        and abs(est.upper - t_spec) <= tol
        and not find_hamiltonian_berge_path(kv)
    )
    if not ok_isolated:
        report.notes.append("isolated-vertex exception failed its equality-case check")

    if total.undecided:
        shown = ", ".join(total.undecided[:UNDECIDED_SHOWN])
        if len(total.undecided) > UNDECIDED_SHOWN:
            shown += f" (first {UNDECIDED_SHOWN})"
        report.notes.append(f"{len(total.undecided)} undecided instances need exact follow-up: {shown}")
    if total.unconverged:
        report.notes.append(f"{total.unconverged} spectral runs did not converge")
    report.passed = not total.violations and ok_pendant and ok_isolated
    report.seconds = time.perf_counter() - t0
    return report

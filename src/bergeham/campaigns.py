"""End-to-end verification campaigns with machine-readable reports.

Each campaign sweeps enumeration levels, classifies every graph with the
exact Berge searcher (or the spectral threshold machinery), collapses the
failures by canonical form, and passes only when the exceptional graphs
are exactly the predicted ones: the labeled copies of K_{n-1}^r + e on a
cycle level and of K_{n-1}^r + v on a path level, given as sets of
chosen-universe masks (``pendant_copies``, ``isolated_copies``).  Every
Berge report row is one ``_berge_level`` call over a list of level specs:
one whole level, or the supergraphs of each exception found (the closure
row).  A row's negatives in its expected set are one class, canonized
once; every other negative is canonized on its own, so an unexpected
class is named by its canonical code and counted.  The spectral audit
runs every graph, of a level chunk or random, through ``_audit`` as one
``uint64`` array of masks, which excuses a graph only by membership in
``pendant_copies`` and runs no canonical search.  Masks are the batched
layers' ``chosen_array`` rows, so a campaign's (n, r) universe has at most
64 edges.

Campaign aggregates are merged in rank order from deterministic chunks,
so reports are identical for any worker count; a seeded sample of graphs
is re-decided afterwards through the level decider's ``certificates`` (a
lockstep pass over the sample, and one-graph ``certificate`` searches for
the rows it cannot follow), not through ``decide``, and its certificate
rows are checked on masks by ``verify_certificate_rows``, tying the
batched sweep to the checkable one.  The sample stays in arrays from the
pass to the checker; only the few certificates a report keeps become
``BergeCertificate`` objects.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from math import comb

import numpy as np

from .berge import BergeCertificate, BergeDecider, verify_certificate_rows
from .bounds import threshold
from .canonical import MAX_EXACT_VERTICES, canonical_form
from .enumeration import (
    ALL_LABELED,
    DEFAULT_BUDGET,
    DEFAULT_CHUNK,
    LevelSpec,
    SUPERGRAPHS,
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
from .formats import certificate_to_dict
from .hypergraph import (
    Hypergraph,
    chosen_array,
    clique_plus_isolated,
    clique_plus_pendant,
    mask_of,
    members_of,
    universe_masks,
)
from .spectral import CERTIFIED_ABOVE, UNDECIDED, exact_form_ratio, threshold_verdicts

CSV_HEADER = "n,r,m,visited,hamiltonian,nonhamiltonian,exceptions,pass"
UNDECIDED_SHOWN = 10  # undecided witnesses listed in a spectral report's notes
RECHECK_SAMPLE = 1000  # graphs per whole level re-decided through ``certificates`` (closure rows: none)
RECHECK_CERTS = 3  # sampled certificates per rechecked level kept in the report


@dataclass
class ExceptionRecord:
    code: str                      # compact canonical form
    count: int                     # labeled copies found
    example_edges: list[list[int]]  # one witness, as vertex lists


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
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def csv_rows(self) -> list[str]:
        return [CSV_HEADER] + [lv.csv_row() for lv in self.levels]


# --------------------------------------------------------------------------
# chunk workers (module level so process pools can pickle them)

@cache
def _decider(n: int, r: int) -> BergeDecider:
    return BergeDecider(n, universe_masks(n, r))


def _berge_chunk(windows: list[tuple[LevelSpec, int, int]], *, kind: str) -> list:
    """Decide a task's windows in one ``decide`` call; returns, per window,
    (decided, positives, [(rank, mask) negatives])."""
    n, r = windows[0][0].n, windows[0][0].r  # one report row: every spec shares them
    masks = np.concatenate([window_masks(spec, lo, hi) for spec, lo, hi in windows])
    yes = _decider(n, r).decide(masks, kind)
    out = []
    at = 0  # where the window starts in the task
    for spec, lo, hi in windows:
        neg = [(lo + i, int(masks[at + i])) for i in np.flatnonzero(~yes[at:at + hi - lo]).tolist()]
        out.append((hi - lo, hi - lo - len(neg), neg))
        at += hi - lo
    return out


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

    def add(self, n: int, r: int, rank: int | None, chosen: int, undecided: bool,
            violation: str | None) -> None:
        """Keep the witness of an undecided or violating graph ``chosen`` on the (n, r)
        universe; a ``Hypergraph`` is built only for a random graph's edge list."""
        witness = (f"m={chosen.bit_count()} rank {rank}" if rank is not None else
                   f"random graph with edges {[list(e) for e in hypergraph_at(n, r, chosen).edge_sets()]}")
        if undecided:
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


def _audit(n: int, r: int, ranks: range | None, chosen: np.ndarray, tol: float) -> AuditTally:
    """Audit graphs given as a ``uint64`` array of chosen-universe masks, in
    order, for the spectral->edge->Hamiltonicity implication chain; graph
    i has rank ``ranks[i]`` on its level, or is random when ``ranks`` is None.

    A graph certified above t = C(n-2, r-1) needs more than ``t_edge`` =
    C(n-1, r) edges (Bai-Lu: lambda <= f_r(m), increasing, and
    f_r(C(n-1, r)) = t), and a Hamiltonian cycle unless its mask is one
    of the ``pendant_copies``.  One ``threshold_verdicts`` call decides
    every graph against t, with its tighter retry of the undecided ones,
    and one ``decide`` call gives the Berge verdicts of those certified
    above.  Counts are sums over the rows; only witnessed graphs go
    through ``AuditTally.add``.
    """
    t_spec = threshold("spectral_cycle", n, r).value
    t_edge = threshold("edge_cycle", n, r).value
    verdicts, converged = threshold_verdicts(n, r, chosen, t_spec, tol)
    above = [i for i, verdict in enumerate(verdicts) if verdict == CERTIFIED_ABOVE]
    sizes = np.bitwise_count(chosen[above])
    violations = {i: "spectral radius certified above threshold but edge count below implied bound"
                  for i, size in zip(above, sizes.tolist()) if size <= t_edge}
    asked = [i for i in above if i not in violations]  # enough edges: must be Hamiltonian
    excused = pendant_copies(n, r)
    for i, yes in zip(asked, _decider(n, r).decide(chosen[asked], "cycle").tolist()):
        if not yes and int(chosen[i]) not in excused:
            violations[i] = "non-hamiltonian above the edge threshold and not the pendant exception"
    tally = AuditTally(audited=len(chosen), above=len(above), unconverged=int((~converged).sum()))
    for i, verdict in enumerate(verdicts):
        if verdict == UNDECIDED or i in violations:
            rank = None if ranks is None else ranks[i]
            tally.add(n, r, rank, int(chosen[i]), verdict == UNDECIDED, violations.get(i))
    return tally


def _spectral_chunk(windows: list[tuple[LevelSpec, int, int]], *, tol: float) -> list[AuditTally]:
    return [_audit(spec.n, spec.r, range(lo, hi), window_masks(spec, lo, hi), tol) for spec, lo, hi in windows]


# --------------------------------------------------------------------------
# shared campaign plumbing


def _collapse_exceptions(spec: LevelSpec, negatives: list[tuple[int, int]],
                         copies: frozenset[int]) -> tuple[list[ExceptionRecord], str]:
    """Group negative (rank, mask) pairs by canonical form, one record per
    class in code order with its first negative as witness, and check them
    against ``copies``, the masks of every labeled copy of the expected
    exception (empty where none is expected).

    The negatives in ``copies`` are one class, canonized once through the
    first of them; every other negative is canonized on its own.  As
    ``copies`` holds every labeled copy, no other negative shares its
    class.  Returns the records and a note, empty exactly when the
    negatives are all of ``copies``.
    """
    found = [chosen for _, chosen in negatives if chosen in copies]
    groups = ([found] if found else []) + [[chosen] for _, chosen in negatives if chosen not in copies]
    by_code: Counter[str] = Counter()
    witness: dict[str, Hypergraph] = {}
    codes = []  # per group, so the found copies' code comes first
    for group in groups:
        h = hypergraph_at(spec.n, spec.r, group[0])
        code = canonical_form(h).compact()
        codes.append(code)
        by_code[code] += len(group)
        witness.setdefault(code, h)
    records = [
        ExceptionRecord(code=c, count=k, example_edges=[list(members_of(e)) for e in witness[c].edges])
        for c, k in sorted(by_code.items())
    ]
    aliens = sorted(set(codes[bool(found):]))
    if not copies:
        note = f"expected no exceptions, found {len(negatives)}" if negatives else ""
    elif not negatives:
        note = "expected exceptions, found none"
    elif aliens:
        note = f"unexpected exception classes: {aliens}"
    elif len(found) != len(copies):
        note = f"expected {len(copies)} labeled copies, found {len(found)}"
    else:
        note = ""
    return records, note


def _recheck_sample(spec: LevelSpec, kind: str, negatives: set[int], rng: random.Random):
    """Re-decide a seeded sample of ``RECHECK_SAMPLE`` graphs through the
    level decider's ``certificates``, not through ``decide``, and check
    the certificate rows found against the (n, r) universe and their
    chosen masks in one ``verify_certificate_rows`` call.

    ``certificates`` gives each graph the certificate that ``certificate``
    finds in it alone, as one array row: one lockstep pass settles most of
    the sample, and the rows it cannot follow, negatives included, are
    searched one graph at a time.  This cross-checks the fast sweep
    verdicts: a sampled rank must have a verifiable certificate exactly
    when the sweep did not list it as negative.  A row spans the graph by
    its width, so a certificate is rejected only for what the checker
    names.  Only the report's certificates become ``BergeCertificate``
    objects: the first ``RECHECK_CERTS`` found before the first failing
    rank.  Returns (failure, certificate dicts); ``failure`` is empty when
    every sampled verdict holds, and otherwise names the first failing
    rank and why it failed.
    """
    total = level_size(spec)
    ranks = sorted(rng.sample(range(total), min(RECHECK_SAMPLE, total)))
    masks = level_masks(spec, np.array(ranks))
    found, vertices, edges = _decider(spec.n, spec.r).certificates(masks, kind)
    checks = verify_certificate_rows(spec.n, universe_masks(spec.n, spec.r), masks[found], kind,
                                     vertices[found], edges[found])
    rejected = {i: bad for i, bad in zip(np.flatnonzero(found).tolist(), checks) if bad}
    wrong = found == np.array([rank in negatives for rank in ranks], dtype=bool)  # a certificate for a negative, or none for a positive
    wrong[list(rejected)] = True
    stop = int(wrong.argmax()) if wrong.any() else len(ranks)
    certs: list[dict] = []
    for i in np.flatnonzero(found[:stop])[:RECHECK_CERTS].tolist():
        d = certificate_to_dict(BergeCertificate(kind, tuple(vertices[i].tolist()), tuple(edges[i].tolist())))
        d["rank"] = ranks[i]
        d["m"] = spec.m
        certs.append(d)
    if stop == len(ranks):
        return "", certs
    if stop in rejected:
        problem = f"certificate rejected: {'; '.join(rejected[stop])}"
    elif found[stop]:
        problem = f"a {kind} certificate exists but the sweep decided the graph negative"
    else:
        problem = f"no {kind} but the sweep decided the graph positive"
    return f"sampled re-verification failed at rank {ranks[stop]}: {problem}", certs


def _berge_level(report: VerificationReport, level: LevelSpec, kind: str, copies: frozenset[int],
                 rng: random.Random, run: dict,
                 bases: list[int] | None = None) -> tuple[bool, list[int]]:
    """Check one report row against its expected exceptions and record it.

    A row sweeps a list of level specs: the whole ``level``, or, given
    ``bases``, the ``level.m``-edge supergraphs of each base mask, one spec
    per base (the closure row; no bases give a row of zero counts).  The
    specs are swept by one ``run_chunks`` call (``run`` holds its
    options): a whole level keeps one window per task, and the closure's
    small levels pack into few tasks, each one ``decide`` call of the
    ``kind`` decider.  The closure still visits each supergraph once per
    base under it: a one-edge supergraph of a pendant copy has two edges
    through the pendant vertex, and dropping either leaves a pendant copy,
    so the row's counts hold each graph twice.  Those counts are kept, and
    the second visit now costs about one Hall pass.  A seeded sample of a
    whole level is re-decided (``_recheck_sample``; the closure row has
    none).  All the row's negatives are collapsed by canonical form at
    once and must be exactly ``copies``, the masks of the expected
    exception's labeled copies (empty where none is expected); the row and
    the sampled certificates go to ``report``.  Returns (ok, the
    negatives' masks), which are the bases of the closure row.
    """
    specs = [level] if bases is None else [LevelSpec(level.n, level.r, level.m, base) for base in bases]
    chunks = run_chunks(specs, partial(_berge_chunk, kind=kind), **run)
    visited = sum(c[0] for c in chunks)
    positive = sum(c[1] for c in chunks)
    negatives = [ng for c in chunks for ng in c[2]]
    failure = ""
    if bases is None:
        failure, certs = _recheck_sample(level, kind, {rk for rk, _ in negatives}, rng)
        report.certificates.extend(certs)
    records, note = _collapse_exceptions(level, negatives, copies)
    ok = not note and not failure
    note = "; ".join(filter(None, [note, failure]))
    report.levels.append(
        LevelOutcome(
            n=level.n, r=level.r, m=level.m, mode=level.mode if bases is None else SUPERGRAPHS,
            kind=kind, scanned=sum(map(level_size, specs)), visited=visited, positive=positive,
            negative=len(negatives), exceptions=records, ok=ok, note=note,
        )
    )
    return ok, [chosen for _, chosen in negatives]


# --------------------------------------------------------------------------
# campaigns


def verify_lemma_r_plus_2(
    n: int,
    *,
    jobs: int = 1,
    budget: int | None = DEFAULT_BUDGET,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
    progress=None,
) -> VerificationReport:
    """Exhaustively check the (n-2)-uniform base case on n vertices.

    This is the edge theorem at r = n-2, whose cycle level has m = n
    edges: its only non-Hamiltonian graphs must be the labeled copies of
    the clique-plus-pendant graph.  Instead of the supergraph closure,
    the whole m = n+1 level is swept, and all of it must be Hamiltonian.
    The range is 5 <= n <= 9: at n = 9 the two levels hold 348,330,136
    labeled graphs, which two jobs sweep in under a minute.
    """
    if not 5 <= n <= 9:
        raise ValueError(f"supported exhaustive range is 5 <= n <= 9, got n={n}")
    plan = monotone_reduction_plan(n, n - 2)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    report = VerificationReport(
        campaign="lemma_r_plus_2",
        params={"n": n, "r": plan.r, "mode": ALL_LABELED, "seed": seed},
        jobs=jobs,
    )
    run = dict(jobs=jobs, budget=budget, chunk_size=chunk_size, progress=progress)
    ok_cycle, _ = _berge_level(report, plan.cycle_level, "cycle", pendant_copies(n, plan.r), rng, run)
    ok_next, _ = _berge_level(report, LevelSpec(n, plan.r, plan.cycle_level.m + 1), "cycle",
                              frozenset(), rng, run)
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
    progress=None,
) -> VerificationReport:
    """Verify the edge-count Hamiltonicity threshold at (n, r), all m.

    Executes the monotone reduction plan: the level one above the cycle
    threshold must fail exactly on labeled pendant-clique copies, one more
    edge on top of each exception actually found must always be
    Hamiltonian, and the path-threshold level must fail exactly on the
    labeled isolated-vertex copies.  Together with monotonicity under
    edge addition this settles every edge count.  At r = 2 this is Ore's
    theorem, which fails by naming its extra exceptions at n = 4 (the star
    K_{1,3}, no path) and n = 5 (K_2 ∨ \bar K_3, no cycle).  Exceptions are
    canonized exactly, so n is checked against ``MAX_EXACT_VERTICES`` first.
    """
    if n > MAX_EXACT_VERTICES:
        raise ValueError(f"exact canonicalization only supports n <= {MAX_EXACT_VERTICES}, got n={n}")
    plan = monotone_reduction_plan(n, r)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    report = VerificationReport(
        campaign="edge_theorem",
        params={"n": n, "r": r, "seed": seed},
        jobs=jobs,
    )
    run = dict(jobs=jobs, budget=budget, chunk_size=chunk_size, progress=progress)

    # cycle level: one edge above the threshold
    ok_cycle, exception_masks = _berge_level(report, plan.cycle_level, "cycle", pendant_copies(n, r),
                                             rng, run)

    # closure row: every one-edge supergraph of each exception actually found
    ok_closure, _ = _berge_level(report, LevelSpec(n, r, plan.cycle_level.m + 1), "cycle", frozenset(),
                                 rng, run, bases=exception_masks)

    # path level: at the threshold
    ok_path, _ = _berge_level(report, plan.path_level, "path", isolated_copies(n, r), rng, run)

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
    above the spectral threshold must force more than the edge threshold's
    C(n-1, r) edges and a Hamiltonian cycle unless the graph is the
    pendant exception; (b) the pendant-clique exception sits strictly above the
    spectral threshold and is non-Hamiltonian; (c) the isolated-vertex
    exception has spectral radius exactly t, in exact integers, and no
    Hamiltonian path.
    Undecided threshold verdicts are retried at a tighter tolerance and
    otherwise reported for exact-arithmetic follow-up, never dropped.
    At r = 2 this is Fiedler and Nikiforov's theorem for graphs.
    """
    if r < 2 or n < r + 2:
        raise ValueError(f"need n >= r+2 and r >= 2, got (n={n}, r={r})")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    t_spec = threshold("spectral_cycle", n, r).value
    report = VerificationReport(
        campaign="spectral_theorem",
        params={"n": n, "r": r, "samples": samples, "tol": tol, "seed": seed},
        jobs=jobs,
    )

    total = AuditTally()  # every row's tally, for the notes
    plan = monotone_reduction_plan(n, r)
    for spec in (plan.cycle_level, plan.path_level):
        tally = AuditTally()
        for chunk in run_chunks([spec], partial(_spectral_chunk, tol=tol), jobs=jobs,
                                chunk_size=chunk_size, budget=budget, progress=progress):
            tally.merge(chunk)
        report.levels.append(tally.outcome(n, r, spec.m, spec.mode, level_size(spec)))
        total.merge(tally)

    # random graphs across all edge counts, all drawn before any is audited
    width = comb(n, r)
    drawn = [mask_of(rng.sample(range(width), rng.randint(0, width))) for _ in range(samples)]
    tally = _audit(n, r, None, chosen_array(drawn, width), tol)
    report.levels.append(tally.outcome(n, r, -1, "random", samples))
    total.merge(tally)
    report.notes.extend(total.violations)

    # (b) pendant exception: strictly above the threshold, non-hamiltonian
    decider = _decider(n, r)
    pendant = chosen_mask(n, r, clique_plus_pendant(n, r).edges)
    (verdict,), _ = threshold_verdicts(n, r, [pendant], t_spec, tol)
    ok_pendant = verdict == CERTIFIED_ABOVE and decider.certificate(pendant, "cycle") is None
    if not ok_pendant:
        report.notes.append("pendant exception failed its spectral/hamiltonicity check")

    # (c) isolated exception: lambda = t exactly, no hamiltonian path.  The form
    # ratio at the clique's 0/1 indicator is a lower bound on lambda, and the
    # largest degree an upper one (Collatz-Wielandt at the all-ones vector)
    kv = clique_plus_isolated(n, r)
    ok_isolated = (
        exact_form_ratio(kv, [1] * (n - 1) + [0]) == t_spec
        and max(kv.degrees()) == t_spec
        and decider.certificate(chosen_mask(n, r, kv.edges), "path") is None
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

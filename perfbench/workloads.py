"""The benchmark's workloads and the checks on their outputs.

Every workload runs single-process (``jobs=1``) through the public API.
The three campaign workloads are the paper's verification sweeps; the
canonical workload exists because the campaigns spend at most about 1%
of their time in ``bergeham.canonical``, so without it that layer would
go unmeasured.

The output checks use only counts that follow from the theorems and the
level definitions: they depend neither on the seed nor on the format of
canonical codes, which a later canonical labeling may change on purpose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from bergeham import Hypergraph, campaigns, canonical, universe_masks


@dataclass(frozen=True)
class Workload:
    kind: str         # "lemma21" | "edges" | "spectral" | "canon"
    n: int
    r: int
    samples: int = 0  # spectral: random audit graphs; canon: graphs per batch
    chunk: int = 0    # campaign chunk_size in timed runs (0: the campaign's default)


WORKLOADS = {
    "lemma21-n7": Workload("lemma21", 7, 5, chunk=4096),
    "edges-6-3": Workload("edges", 6, 3, chunk=4096),
    "spectral-6-4": Workload("spectral", 6, 4, samples=200, chunk=256),
    "canon-8-6": Workload("canon", 8, 6, samples=16),
}

# Tiny sizes of the same workloads, for the benchmark's own tests.
SMOKE = {
    "lemma21-n7": Workload("lemma21", 5, 3, chunk=64),
    "edges-6-3": Workload("edges", 5, 3, chunk=64),
    "spectral-6-4": Workload("spectral", 5, 3, samples=20, chunk=16),
    "canon-8-6": Workload("canon", 6, 4, samples=4),
}


def run_campaign(w: Workload, seed: int, pause=None):
    """Run one campaign; looks the function up at call time so tracing can wrap it.

    With ``pause``, the campaign sweeps in chunks of ``w.chunk`` graphs and
    calls ``pause()`` after each one, through the campaign's public
    ``progress`` callback; without it, the campaign runs as called by default.
    """
    kw = {"jobs": 1, "seed": seed}
    if pause is not None:
        kw.update(chunk_size=w.chunk, progress=lambda *_: pause())
    if w.kind == "lemma21":
        return campaigns.verify_lemma_r_plus_2(w.n, **kw)
    if w.kind == "edges":
        return campaigns.verify_edge_theorem(w.n, w.r, **kw)
    return campaigns.verify_spectral_theorem(w.n, w.r, samples=w.samples, **kw)


def expected_levels(w: Workload) -> list[tuple[int, int, int, int]]:
    """(m, graphs, negatives, exception classes) for each report level, in order."""
    n, r = w.n, w.r
    u = comb(n, r)
    copies = n * comb(n - 1, r - 1)  # labeled clique-plus-pendant graphs
    if w.kind == "lemma21":
        return [(n, comb(u, n), copies, 1), (n + 1, comb(u, n + 1), 0, 0)]
    t = comb(n - 1, r)  # edge threshold
    if w.kind == "edges":
        return [
            (t + 1, comb(u, t + 1), copies, 1),
            (t + 2, copies * (u - t - 1), 0, 0),  # one more edge on each exception
            (t, comb(u, t), n, 1),
        ]
    return [(t + 1, comb(u, t + 1), 0, 0), (t, comb(u, t), 0, 0), (-1, w.samples, 0, 0)]


def check_report(w: Workload, report) -> list[tuple[str, object, object]]:
    """(check, expected, found) for every output check of a campaign report."""
    checks: list[tuple[str, object, object]] = [("passed", True, report.passed)]
    want = expected_levels(w)
    checks.append(("levels", len(want), len(report.levels)))
    for (m, graphs, negatives, classes), lv in zip(want, report.levels):
        at = f"level[m={m}]"
        checks += [
            (f"{at}.m", m, lv.m),
            (f"{at}.scanned", graphs, lv.scanned),
            (f"{at}.visited", graphs, lv.visited),
            (f"{at}.negative", negatives, lv.negative),
            (f"{at}.exception_classes", classes, len(lv.exceptions)),
        ]
        if w.kind != "spectral":
            checks.append((f"{at}.positive+negative", lv.visited, lv.positive + lv.negative))
    return checks


def canon_batch(w: Workload, seed: int, batch: int) -> list[tuple[Hypergraph, list[int]]]:
    """Seeded labelings of fixed random graphs, half at m = n and half at m = n + 1.

    The isomorphism classes come from a constant seed: the search cost
    varies by about 46% (coefficient of variation) between random
    classes, so a class mix drawn from the seed would make the
    seed-to-seed spread measure the mix, not the program.  The seed draws each graph's labeling and the relabeling
    that ``canonical_form`` must see through.
    """
    classes = random.Random(f"canon-classes:{w.n}:{w.r}")
    rng = random.Random(f"canon:{seed}:{batch}")
    u = universe_masks(w.n, w.r)
    out = []
    for i in range(w.samples):
        m = w.n if i < w.samples // 2 else w.n + 1
        h = Hypergraph(w.n, w.r, classes.sample(u, m))
        labeling, perm = list(range(w.n)), list(range(w.n))
        rng.shuffle(labeling)
        rng.shuffle(perm)
        out.append((h.relabel(labeling), perm))
    return out


def run_canon(graphs, pause=None) -> list[tuple[str, object, object]]:
    pause = pause or (lambda: None)
    checks = []
    for i, (h, perm) in enumerate(graphs):
        form = canonical.canonical_form(h)
        pause()
        relabeled = canonical.canonical_form(h.relabel(perm))
        pause()
        rep = Hypergraph(form.n, form.r, form.code)
        checks.append((f"graph[{i}].relabeled_code_equal", True, form == relabeled))
        checks.append((f"graph[{i}].representative_is_canonical", True, canonical.is_canonical(rep)))
        pause()
    return checks


def run_once(w: Workload, seed: int, batch: int = 0, pause=None) -> tuple[int, list]:
    """One repetition: returns (graphs processed, output checks).

    ``pause``, if given, is called between units of work: after each chunk
    of a campaign, after each call of ``canon``.
    """
    if w.kind == "canon":
        graphs = canon_batch(w, seed, batch)
        return len(graphs), run_canon(graphs, pause)
    report = run_campaign(w, seed, pause)
    return sum(lv.visited for lv in report.levels), check_report(w, report)

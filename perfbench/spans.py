"""Out-of-program tracing: spans around the public calls of each layer.

Nothing here edits ``bergeham``.  ``Tracer.install`` rebinds the names
that ``bergeham.campaigns``, ``bergeham.enumeration`` and
``bergeham.canonical`` look up at call time, and the ``BergeDecider``
decision methods, with wrappers that record one span per call;
``Tracer.remove`` puts every original back.  Only the traced run installs
the wrappers, so timed runs execute the unmodified program.

Spans (name, start, end, parent) live in flat in-memory arrays and are
written out once, after the run.  A span's self time is its duration
minus the durations of its direct children; the program is
single-threaded here (``jobs=1``), so children never overlap.

The decision wrappers double as the exact count pass: they call the
public ``search_cycle``/``search_path`` with a ``SearchStats`` (the same
work ``cycle_exists``/``path_exists`` do) and add up search nodes,
augments and positive answers.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

from bergeham import SearchStats, berge, campaigns, canonical, enumeration

# (module, attribute, span name).  Each attribute is rebound in the module
# that calls it, so a call from that module lands in the wrapper.  The two
# private campaign helpers are the only way to time recheck and collapse
# from outside; a later refactor may rename them, in which case they are
# listed as missing and their metrics read 0.
WRAPPED_NAMES = (
    ("campaigns", "verify_lemma_r_plus_2", "campaigns.verify_lemma_r_plus_2"),
    ("campaigns", "verify_edge_theorem", "campaigns.verify_edge_theorem"),
    ("campaigns", "verify_spectral_theorem", "campaigns.verify_spectral_theorem"),
    ("campaigns", "run_chunks", "enumeration.run_chunks"),
    ("campaigns", "iter_level_masks", "enumeration.iter_level_masks"),
    ("campaigns", "hypergraph_at", "enumeration.hypergraph_at"),
    ("campaigns", "universe_masks", "hypergraph.universe_masks"),
    ("enumeration", "universe_masks", "hypergraph.universe_masks"),
    ("campaigns", "find_hamiltonian_berge_cycle", "berge.find_hamiltonian_berge_cycle"),
    ("campaigns", "find_hamiltonian_berge_path", "berge.find_hamiltonian_berge_path"),
    ("campaigns", "verify_certificate", "berge.verify_certificate"),
    ("campaigns", "spectral_radius", "spectral.spectral_radius"),
    ("campaigns", "threshold_verdict", "spectral.threshold_verdict"),
    ("campaigns", "canonical_form", "canonical.canonical_form"),
    ("canonical", "canonical_form", "canonical.canonical_form"),
    ("canonical", "is_canonical", "canonical.is_canonical"),
    ("enumeration", "is_canonical", "canonical.is_canonical"),
    ("campaigns", "_recheck_sample", "campaigns.recheck"),
    ("campaigns", "_collapse_exceptions", "campaigns.collapse"),
)


class Tracer:
    """Span recorder plus the counters gathered at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {
            "decisions": 0, "positive": 0, "nodes": 0, "augments": 0,
            "iterations": 0, "retries": 0, "unconverged": 0, "masks_yielded": 0,
        }
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # ----- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    # ----- wrappers with counters -------------------------------------------

    def _wrap_iter_level_masks(self, fn):
        nid = self.name_id("enumeration.iter_level_masks")
        open_, close, counts = self.open, self.close, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # one span per step: the generator's work interleaves with its
            # consumer, so each next() is timed on its own
            it = fn(*args, **kwargs)
            while True:
                i = open_(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(i)
                counts["masks_yielded"] += 1
                yield item

        return traced

    def _wrap_run_chunks(self, fn):
        nid = self.name_id("enumeration.run_chunks")
        chunk_name = "campaigns.chunk"
        open_, close, wrap = self.open, self.close, self.wrap

        @functools.wraps(fn)
        def traced(spec, chunk_fn, *args, **kwargs):
            i = open_(nid)
            try:
                return fn(spec, wrap(chunk_name, chunk_fn), *args, **kwargs)
            finally:
                close(i)

        return traced

    def _wrap_spectral_radius(self, fn):
        nid = self.name_id("spectral.spectral_radius")
        open_, close, counts = self.open, self.close, self.counts
        last = [None]

        @functools.wraps(fn)
        def traced(h, *args, **kwargs):
            i = open_(nid)
            try:
                est = fn(h, *args, **kwargs)
            finally:
                close(i)
            counts["iterations"] += est.iterations
            counts["unconverged"] += not est.converged
            # the campaign re-runs the iteration on the same graph object
            # only when the first verdict came out undecided
            counts["retries"] += last[0] is h
            last[0] = h
            return est

        return traced

    def _decision(self, name: str, search):
        nid = self.name_id(name)
        open_, close, counts = self.open, self.close, self.counts

        def traced(decider, chosen, *args, **kwargs):
            stats = SearchStats()
            i = open_(nid)
            try:
                hit = search(decider, chosen, *args, stats=stats, **kwargs)
            finally:
                close(i)
            counts["decisions"] += 1
            counts["positive"] += hit is not None
            counts["nodes"] += stats.nodes
            counts["augments"] += stats.augments
            return hit is not None

        return traced

    # ----- install / remove -------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {"campaigns": campaigns, "canonical": canonical, "enumeration": enumeration}
        special = {
            "enumeration.iter_level_masks": self._wrap_iter_level_masks,
            "enumeration.run_chunks": self._wrap_run_chunks,
            "spectral.spectral_radius": self._wrap_spectral_radius,
        }
        for mod_name, attr, span in WRAPPED_NAMES:
            mod = modules[mod_name]
            if attr not in mod.__dict__:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            make = special.get(span, functools.partial(self.wrap, span))
            self._rebind(mod, attr, make(mod.__dict__[attr]))
        decider = berge.BergeDecider
        self._rebind(decider, "cycle_exists",
                     self._decision("berge.cycle_exists", decider.search_cycle))
        self._rebind(decider, "path_exists",
                     self._decision("berge.path_exists", decider.search_path))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ----- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly when the same inputs run again."""
        out = dict(self.counts)
        ids = np.frombuffer(self.name, dtype=np.uint16)
        calls = np.bincount(ids, minlength=len(self.names))
        for nid, name in enumerate(self.names):
            out[f"calls:{name}"] = int(calls[nid])
        return out

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this trace; ``wall_s`` is the traced wall time."""
        a = self.arrays()
        ids, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        def pick(span: str) -> np.ndarray:
            nid = self._ids.get(span)
            return ids == nid if nid is not None else np.zeros(len(dur), dtype=bool)

        def calls(span):
            return int(pick(span).sum())

        def pct(span, q, scale):
            sel = pick(span)
            return float(np.percentile(dur[sel], q)) * scale if sel.any() else 0.0

        def self_s(span):
            return float(self_t[pick(span)].sum())

        layer_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])

        def layer_self(layer):
            return float(self_t[layer_of[ids] == layer].sum())

        c = self.counts
        m: dict[str, float] = {}
        for fn in ("cycle_exists", "path_exists", "spectral_radius"):
            layer = "spectral" if fn == "spectral_radius" else "berge"
            span = f"{layer}.{fn}"
            m[f"{span}.calls"] = calls(span)
            m[f"{span}.us_p50"] = pct(span, 50, 1e6)
            m[f"{span}.us_p99"] = pct(span, 99, 1e6)
            m[f"{span}.self_s"] = self_s(span)
        m["berge.positive_ratio"] = c["positive"] / c["decisions"] if c["decisions"] else 0.0
        m["berge.nodes_per_graph"] = c["nodes"] / c["decisions"] if c["decisions"] else 0.0
        m["berge.augments_per_graph"] = c["augments"] / c["decisions"] if c["decisions"] else 0.0
        radius_calls = m["spectral.spectral_radius.calls"]
        m["spectral.iterations_per_call"] = c["iterations"] / radius_calls if radius_calls else 0.0
        m["spectral.retries"] = c["retries"]
        m["spectral.unconverged"] = c["unconverged"]
        span = "spectral.threshold_verdict"
        m[f"{span}.calls"] = calls(span)
        m[f"{span}.us_p50"] = pct(span, 50, 1e6)
        m[f"{span}.self_s"] = self_s(span)
        for fn in ("canonical_form", "is_canonical"):
            span = f"canonical.{fn}"
            m[f"{span}.calls"] = calls(span)
            m[f"{span}.ms_p50"] = pct(span, 50, 1e3)
            m[f"{span}.self_s"] = self_s(span)
        steps = pick("enumeration.iter_level_masks")
        yielded = c["masks_yielded"]
        m["enumeration.iter_level_masks.us_per_graph"] = (
            float(dur[steps].sum()) / yielded * 1e6 if yielded else 0.0
        )
        m["enumeration.run_chunks.chunks"] = calls("campaigns.chunk")
        span = "enumeration.hypergraph_at"
        m[f"{span}.calls"] = calls(span)
        m[f"{span}.us_p50"] = pct(span, 50, 1e6)
        m[f"{span}.self_s"] = self_s(span)
        m["hypergraph.universe_masks.calls"] = calls("hypergraph.universe_masks")
        in_recheck = np.zeros(len(dur), dtype=bool)
        in_recheck[has_parent] = pick("campaigns.recheck")[parent[has_parent]]
        finds = pick("berge.find_hamiltonian_berge_cycle") | pick("berge.find_hamiltonian_berge_path")
        m["campaigns.recheck.graphs"] = int((finds & in_recheck).sum())
        m["campaigns.recheck.self_s"] = self_s("campaigns.recheck")
        m["campaigns.collapse.self_s"] = self_s("campaigns.collapse")
        m["campaigns.self_s"] = layer_self("campaigns")
        for layer in ("berge", "spectral", "canonical"):
            m[f"{layer}.self_frac"] = layer_self(layer) / wall_s
        m["trace.wall_s"] = wall_s
        m["trace.spans"] = len(dur)
        return m

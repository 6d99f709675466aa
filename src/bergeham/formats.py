"""On-disk formats: hypergraph files (text and JSON) and certificate JSON.

Text format, one hypergraph per file::

    n r m
    v1 v2 ... vr     (m lines, one edge each)

JSON alternative: ``{"n": ..., "r": ..., "edges": [[...], ...]}``.

Both parsers reject anything that violates the hypergraph invariants
(wrong edge sizes, out-of-range vertices, r > n), by way of the
``Hypergraph`` constructor.  JSON input must be an object whose ids are
integers (not booleans or floats) and whose edges are lists of them,
a certificate edge may not hold a negative id (a certificate vertex out
of range is read, and rejected by ``verify_certificate``), and a
certificate's ``kind`` must be a string; anything else raises
``ValueError``.
"""

from __future__ import annotations

import json
from typing import Any

from .berge import BergeCertificate
from .hypergraph import Hypergraph, mask_of, members_of


def _ints(values, what: str) -> list[int]:
    """``values`` if it is a list of integers (not booleans or floats), else ``ValueError``."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return values


def parse_hypergraph_text(text: str) -> Hypergraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty hypergraph file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"expected header 'n r m', got {lines[0]!r}")
    try:
        n, r, m = (int(x) for x in header)
    except ValueError:
        raise ValueError(f"non-integer header fields in {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, file has {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            vs = [int(x) for x in ln.split()]
        except ValueError:
            raise ValueError(f"non-integer vertex id in edge line {ln!r}") from None
        if len(vs) != len(set(vs)):
            raise ValueError(f"repeated vertex in edge line {ln!r}")
        edges.append(vs)
    return Hypergraph(n, r, edges)


def write_hypergraph_text(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.r} {h.m}"]
    lines.extend(" ".join(str(v) for v in members_of(e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def parse_hypergraph_json(data: str | dict[str, Any]) -> Hypergraph:
    obj = json.loads(data) if isinstance(data, str) else data
    if not isinstance(obj, dict):
        raise ValueError("hypergraph JSON must be an object")
    missing = {"n", "r", "edges"} - obj.keys()
    if missing:
        raise ValueError(f"hypergraph JSON missing keys: {sorted(missing)}")
    n, r = _ints([obj["n"], obj["r"]], "[n, r]")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ValueError("'edges' must be a list of vertex lists")
    for e in edges:
        if len(_ints(e, "each edge")) != len(set(e)):
            raise ValueError(f"repeated vertex in edge {e}")
    return Hypergraph(n, r, edges)


def write_hypergraph_json(h: Hypergraph) -> str:
    return json.dumps({"n": h.n, "r": h.r, "edges": [list(members_of(e)) for e in h.edges]})


def load_hypergraph(path: str) -> Hypergraph:
    """Read a hypergraph file, sniffing JSON vs text by the leading character."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_hypergraph_json(text)
    return parse_hypergraph_text(text)


def certificate_to_dict(cert) -> dict[str, Any]:
    return {
        "kind": cert.kind,
        "vertices": list(cert.vertices),
        "edges": [list(members_of(e)) for e in cert.edges],
    }


def certificate_from_dict(obj: dict[str, Any]) -> BergeCertificate:
    if not isinstance(obj, dict):
        raise ValueError("certificate JSON must be an object")
    missing = {"kind", "vertices", "edges"} - obj.keys()
    if missing:
        raise ValueError(f"certificate JSON missing keys: {sorted(missing)}")
    if not isinstance(obj["kind"], str):
        raise ValueError(f"'kind' must be a string, got {obj['kind']!r}")
    if not isinstance(obj["edges"], list):
        raise ValueError("'edges' must be a list of vertex lists")
    vertices = tuple(_ints(obj["vertices"], "'vertices'"))
    for e in obj["edges"]:
        if any(v < 0 for v in _ints(e, "each edge")):
            raise ValueError(f"edge {e} has a negative vertex id {min(e)}")
    return BergeCertificate(kind=obj["kind"], vertices=vertices, edges=tuple(map(mask_of, obj["edges"])))


def load_certificate(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return certificate_from_dict(json.load(fh))

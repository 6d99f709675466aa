import json

import pytest

from bergeham.berge import find_hamiltonian_berge_cycle, verify_certificate
from bergeham.formats import (
    certificate_from_dict,
    certificate_to_dict,
    load_hypergraph,
    parse_hypergraph_json,
    parse_hypergraph_text,
    write_hypergraph_json,
    write_hypergraph_text,
)
from bergeham.hypergraph import clique_plus_pendant, complete


def test_text_round_trip():
    h = clique_plus_pendant(6, 3)
    assert parse_hypergraph_text(write_hypergraph_text(h)) == h


def test_json_round_trip():
    h = complete(5, 3)
    assert parse_hypergraph_json(write_hypergraph_json(h)) == h


def test_text_header_mismatch_rejected():
    with pytest.raises(ValueError, match="promises"):
        parse_hypergraph_text("5 3 2\n0 1 2\n")


def test_text_invariants_rejected():
    with pytest.raises(ValueError, match="out of range"):
        parse_hypergraph_text("5 3 1\n0 1 9\n")
    with pytest.raises(ValueError, match="repeated vertex"):
        parse_hypergraph_text("5 3 1\n0 1 1\n")
    with pytest.raises(ValueError):
        parse_hypergraph_text("5 3 1\n0 1\n")
    with pytest.raises(ValueError):
        parse_hypergraph_text("")


def test_json_invariants_rejected():
    with pytest.raises(ValueError, match="missing keys"):
        parse_hypergraph_json({"n": 5, "r": 3})
    with pytest.raises(ValueError, match="repeated vertex"):
        parse_hypergraph_json({"n": 5, "r": 3, "edges": [[0, 1, 1]]})
    with pytest.raises(ValueError):
        parse_hypergraph_json({"n": 5, "r": 3, "edges": [[0, 1, 2, 3]]})


@pytest.mark.parametrize("obj, match", [
    ({"n": [3], "r": 2, "edges": [[0, 1]]}, r"\[n, r\] must be a list of integers"),
    ({"n": 3, "r": 2.0, "edges": [[0, 1]]}, r"\[n, r\] must be a list of integers"),
    ({"n": 3, "r": True, "edges": [[0, 1]]}, r"\[n, r\] must be a list of integers"),
    ({"n": 3, "r": 2, "edges": [["a", "b"]]}, "each edge must be a list of integers"),
    ({"n": 3, "r": 2, "edges": [[0, 1.0]]}, "each edge must be a list of integers"),
    ({"n": 3, "r": 2, "edges": [[0, False]]}, "each edge must be a list of integers"),
    ({"n": 3, "r": 2, "edges": [1, 2]}, "each edge must be a list of integers"),
    ({"n": 3, "r": 2, "edges": {"0": [0, 1]}}, "'edges' must be a list of vertex lists"),
    ([3, 2, [[0, 1]]], "hypergraph JSON must be an object"),
])
def test_json_rejects_non_integer_ids_and_non_lists(obj, match):
    with pytest.raises(ValueError, match=match):
        parse_hypergraph_json(obj)
    with pytest.raises(ValueError, match=match):
        parse_hypergraph_json(json.dumps(obj))


@pytest.mark.parametrize("obj, match", [
    ({"kind": "cycle", "vertices": [0, 1.9, 2], "edges": [[0, 2], [0, 1], [1, 2]]}, "'vertices' must be"),
    ({"kind": "cycle", "vertices": [0, True, 2], "edges": [[0, 2], [0, 1], [1, 2]]}, "'vertices' must be"),
    ({"kind": "cycle", "vertices": "012", "edges": [[0, 2], [0, 1], [1, 2]]}, "'vertices' must be"),
    ({"kind": "cycle", "vertices": [0, 1, 2], "edges": [[0, 2], [0, 1.9], [1, 2]]}, "each edge must be"),
    ({"kind": "path", "vertices": [0, 1, 2], "edges": [1, 2]}, "each edge must be"),
    ({"kind": "path", "vertices": [0, 1, 2], "edges": "01"}, "'edges' must be a list of vertex lists"),
    ([{"kind": "path", "vertices": [0, 1], "edges": [[0, 1]]}], "certificate JSON must be an object"),
    ({"kind": "path", "vertices": [0, 1]}, "missing keys"),
    ({"kind": None, "vertices": [0, 1, 2], "edges": [[0, 2], [0, 1], [1, 2]]}, "'kind' must be a string"),
    ({"kind": 5, "vertices": [0, 1, 2], "edges": [[0, 2], [0, 1], [1, 2]]}, "'kind' must be a string"),
    ({"kind": ["cycle"], "vertices": [0, 1, 2], "edges": [[0, 2], [0, 1], [1, 2]]}, "'kind' must be a string"),
    ({"kind": "cycle", "vertices": [0, 1, 2], "edges": [[0, 1], [0, -1], [1, 2]]},
     r"edge \[0, -1\] has a negative vertex id -1"),
])
def test_certificate_rejects_non_integer_ids_and_non_lists(obj, match):
    with pytest.raises(ValueError, match=match):
        certificate_from_dict(obj)


def test_load_sniffs_json_and_text(tmp_path):
    h = complete(5, 3)
    t = tmp_path / "h.txt"
    t.write_text(write_hypergraph_text(h))
    j = tmp_path / "h.json"
    j.write_text(write_hypergraph_json(h))
    assert load_hypergraph(str(t)) == h
    assert load_hypergraph(str(j)) == h


def test_certificate_json_round_trip():
    h = complete(4, 3)
    cert = find_hamiltonian_berge_cycle(h).certificate
    d = certificate_to_dict(cert)
    assert set(d) == {"kind", "vertices", "edges"}
    assert json.loads(json.dumps(d)) == d
    back = certificate_from_dict(d)
    assert back == cert
    assert verify_certificate(h, back) == []

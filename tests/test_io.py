import json
from collections import OrderedDict

import numpy as np
import pytest

from foldkin import (
    base_homology,
    canonical_json,
    chain_structure,
    generate,
    parse_fold,
    serialize_fold,
    shape_names,
    surface_from_document,
)
from foldkin.errors import IndexOutOfRange, InvalidParams, ParseError

import oracles

MINIMAL = {
    "vertices_coords": [[0, 0, 0], [1, 0, 0.1], [0.5, 1, 0], [1.5, 1, 0.3]],
    "faces_vertices": [[0, 1, 2], [1, 3, 2]],
}


def test_parse_minimal_two_triangles():
    doc = parse_fold(json.dumps(MINIMAL))
    s = surface_from_document(doc)
    assert (s.num_vertices, s.num_edges, s.num_faces) == (4, 5, 2)


def test_parse_pads_2d_coordinates():
    doc = parse_fold(json.dumps({
        "vertices_coords": [[0, 0], [1, 0], [0, 1]],
        "faces_vertices": [[0, 1, 2]],
    }))
    assert all(len(p) == 3 and p[2] == 0.0 for p in doc.vertices_coords)
    surface_from_document(doc)


@pytest.mark.parametrize("bad", ["1", True, None, [0]])
def test_parse_rejects_coordinates_that_are_not_numbers(bad):
    coords = [[0, 0, 0], [1, 0, 0.1], [0.5, bad, 0], [1.5, 1, 0.3]]
    with pytest.raises(ParseError, match=r"^vertices_coords\[2\]\[1\] must be a number"):
        parse_fold(json.dumps(dict(MINIMAL, vertices_coords=coords)))


def test_parse_rejects_an_integer_no_float_holds():
    coords = [[0, 0, 0], [1, 0, 0.1], [0.5, 10 ** 400, 0], [1.5, 1, 0.3]]
    with pytest.raises(ParseError, match=r"^vertices_coords\[2\]\[1\] is too large"):
        parse_fold(json.dumps(dict(MINIMAL, vertices_coords=coords)))


def test_parse_missing_vertex_reference():
    bad = dict(MINIMAL, faces_vertices=[[0, 1, 99]])
    with pytest.raises(IndexOutOfRange):
        parse_fold(json.dumps(bad))


def test_parse_invalid_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_fold(b'{"vertices_coords": [[0,0,0],]}')
    assert "line" in str(err.value)


def test_parse_rejects_non_utf8():
    with pytest.raises(ParseError):
        parse_fold(b"\xff\xfe{}")


def test_parse_requires_geometry_keys():
    with pytest.raises(ParseError):
        parse_fold(json.dumps({"vertices_coords": [[0, 0, 0]]}))


def test_unknown_keys_survive_round_trip():
    raw = dict(MINIMAL, file_creator="someone else",
               frame_classes=["creasePattern"])
    doc = parse_fold(json.dumps(raw))
    assert doc.metadata["file_creator"] == "someone else"
    again = parse_fold(serialize_fold(doc))
    assert again.metadata == doc.metadata
    assert again.vertices_coords == doc.vertices_coords
    assert again.faces_vertices == doc.faces_vertices


def test_edges_vertices_checked_against_faces():
    listed = dict(MINIMAL, edges_vertices=[[0, 1], [1, 2]])
    with pytest.raises(ParseError):
        surface_from_document(parse_fold(json.dumps(listed)))


@pytest.mark.parametrize("shape,args", [
    ("chain", (5,)),
    ("single_vertex", (4, 0.5)),
    ("grid", (3, 3)),
    ("annulus", (4, 4, 1.0)),
    ("cylinder", (3, 5)),
    ("torus", (4, 4)),
    ("miura", (3, 4, 0.6)),
])
def test_generated_documents_round_trip(shape, args):
    doc = generate(shape, *args, seed=1)
    again = parse_fold(serialize_fold(doc))
    assert again.vertices_coords == doc.vertices_coords
    assert again.faces_vertices == doc.faces_vertices
    assert again.edges_vertices == doc.edges_vertices
    assert again.metadata == doc.metadata
    surface_from_document(again)


def test_serialization_is_deterministic():
    a = serialize_fold(generate("torus", 5, 5, seed=9))
    b = serialize_fold(generate("torus", 5, 5, seed=9))
    assert a == b


def test_canonical_json_float_format():
    text = canonical_json({"x": 0.1, "n": 3, "flag": True, "s": "hi"})
    assert text == '{"flag":true,"n":3,"s":"hi","x":0.10000000000000001}'
    assert json.loads(text)["x"] == 0.1


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_canonical_json_normalizes_numpy_scalars():
    payload = {"flag": np.bool_(True), "n": np.int64(3),
               "x": np.float64(0.5), "v": np.array([1.0, 2.0])}
    assert canonical_json(payload) == '{"flag":true,"n":3,"v":[1,2],"x":0.5}'


@pytest.mark.parametrize("value", [
    np.bool_(True), np.bool_(False), np.int8(-7), np.int64(2**62), np.float32(0.1),
    np.float64(1 / 3),
    np.array(2.5), np.array([[1.0, -0.0], [5e-324, 1e308]]), np.array([[1, 2], [3, 4]]),
    np.array([True, False]), np.array([]), np.zeros((2, 0)),
    (0.5, 2, "x"), ((1.0, 2.0), []), [0.1, 2, 3.5], [np.float64(0.1), 0.2],
    [0.2, np.float64(0.1)], [0.1, True, None],
    -0.0, 5e-324, 1e308, [-0.0, 5e-324, 1e308, -1e-300],
    2**63, -(2**64), [2**70, 1.5],
    "h\u00e9llo \u2603", "tab\tline\nnul\x00\x1f\x7f", 'quote" back\\', np.str_("abc"),
    {"\u00e9": 1.0, "\x01": [2.0, 3.0], "z": {"a": None}},
    {3: "c", 1: "a"}, {0.5: 1}, {(1, 2): [0.25]}, {None: True}, {}, [],
    OrderedDict([("b", 1), ("a", [np.int8(1)])]),
    {"from": "hinge", "obstruction": [1e-17, -2.5e-9], "residuals": {"truss": 3e-16},
     "solution": {"v0": [0.1, -0.2, 0.3], "a0": [1.0, 2.0, 3.0]}},
])
def test_canonical_json_matches_the_recursive_formatter(value):
    assert canonical_json(value) == oracles.canonical_json(value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_canonical_json_refuses_non_finite_floats(bad):
    # JSON has no NaN or infinity; printing Python's spelling of them
    # would give text no JSON reader accepts.
    for value in ({"residuals": {"truss": bad}}, [np.float64(bad)], [0.5, float(bad)],
                  np.array([0.5, bad])):
        with pytest.raises(ValueError, match="is not a JSON number"):
            canonical_json(value)


@pytest.mark.parametrize("value", [{"x": {1.0}}, [0.5, object()]], ids=["set", "object"])
def test_canonical_json_refuses_other_types_as_a_fault(value):
    # foldkin builds every payload it prints, so a value it cannot print
    # is its own fault, not bad input.
    with pytest.raises(TypeError, match="cannot serialize value of type"):
        canonical_json(value)


# --- generators ---

def test_shape_names_catalog():
    assert set(shape_names()) == {"chain", "single_vertex", "grid", "annulus",
                                  "cylinder", "torus", "miura"}


def test_chain_counts_and_dual_path():
    s = surface_from_document(generate("chain", 5))
    assert s.num_faces == 6
    assert len(s.interior_edges()) == 5
    chain = chain_structure(s)
    assert len(chain.face_order) == 6
    assert len(chain.hinge_order) == 5


def test_chain_next_face_orientation_positive():
    # The face after each hinge in chain order induces the positive sign;
    # the closed-form operators rely on this.
    for seed in range(5):
        s = surface_from_document(generate("chain", 6, seed=seed))
        chain = chain_structure(s)
        for i, e in enumerate(chain.hinge_order):
            nxt = chain.face_order[i + 1]
            assert s.sign_ef[(e, nxt)] == 1


def test_annulus_betti():
    s = surface_from_document(generate("annulus", 4, 4, 1.0))
    assert base_homology(s) == (1, 1, 0)


def test_cylinder_betti():
    s = surface_from_document(generate("cylinder", 3, 6))
    assert base_homology(s) == (1, 1, 0)


def test_torus_betti():
    s = surface_from_document(generate("torus", 6, 6))
    assert base_homology(s) == (1, 2, 1)


def test_miura_is_simply_connected_and_folded():
    s = surface_from_document(generate("miura", 3, 3))
    assert base_homology(s) == (1, 0, 0)
    assert np.ptp(s.vertices[:, 2]) > 0.1


def test_flat_fan_without_jitter_is_flat():
    s = surface_from_document(generate("single_vertex", 4, 0.0, jitter=False))
    assert np.abs(s.vertices[:, 2]).max() == 0.0


def test_generator_determinism():
    a = generate("grid", 4, 4, seed=7)
    b = generate("grid", 4, 4, seed=7)
    assert a.vertices_coords == b.vertices_coords
    c = generate("grid", 4, 4, seed=8)
    assert a.vertices_coords != c.vertices_coords


@pytest.mark.parametrize("shape,args", [
    ("chain", (0,)),
    ("single_vertex", (2,)),
    ("grid", (0, 3)),
    ("annulus", (1, 2)),
    ("torus", (2, 5)),
    ("miura", (2, 2, 2.0)),
    ("nonsense", (1,)),
])
def test_generator_invalid_params(shape, args):
    with pytest.raises(InvalidParams):
        generate(shape, *args)


def test_generator_rejects_extra_params():
    with pytest.raises(InvalidParams):
        generate("grid", 2, 2, 7)
    with pytest.raises(InvalidParams):
        generate("grid", rows=2, cols=2, depth=3)

import enum
import json
from collections import OrderedDict, defaultdict, namedtuple

import numpy as np
import pytest

from foldkin import (
    base_homology,
    build_exact_sequence,
    canonical_json,
    chain_structure,
    generate,
    parse_fold,
    serialize_fold,
    shape_names,
    surface_from_document,
)
from foldkin import cli, fold_io
from foldkin.errors import IndexOutOfRange, InvalidParams, ParseError
from foldkin.models import stiffen, truss_kernel

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


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    def __str__(self):
        return "not the label"


class Ratio(float):
    pass


class Count(int):
    def __str__(self):
        return "not the count"


Pair = namedtuple("Pair", "left right")


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
    # Values that miss the exact-type chain and take the one fallback,
    # nested in lists and dicts.
    [np.array(-0.0), {"a": np.arange(6, dtype=np.int8).reshape(1, 2, 3)}, np.array(["a", "b"])],
    {"k": [np.float32(0.1), np.int8(-7), np.bool_(False), np.str_("h\u00e9")],
     "rows": {"r": [np.array(7), np.array([[0.5, 1e-300], [2.0, -3.0]])]}},
    Level.HIGH, Label('q"uote'), Ratio(0.1), [Ratio(-2.5), {"e": Level.LOW}],
    {"s": Label("x"), "o": OrderedDict([("b", [Ratio(1.0)]), ("a", Level.HIGH)])},
    defaultdict(list, {"x": [Ratio(2.5)]}), Pair(0.25, Level.LOW), [Pair(Label("p"), [])],
])
def test_canonical_json_matches_the_recursive_formatter(value):
    assert canonical_json(value) == oracles.canonical_json(value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_canonical_json_refuses_non_finite_floats(bad):
    # JSON has no NaN or infinity; printing Python's spelling of them
    # would give text no JSON reader accepts.
    for value in ({"residuals": {"truss": bad}}, [np.float64(bad)], [0.5, float(bad)],
                  np.array([0.5, bad]), {"k": [np.float32(bad)]}, [np.array([[1.0, bad]])]):
        with pytest.raises(ValueError, match="is not a JSON number"):
            canonical_json(value)


@pytest.mark.parametrize("value", [
    {"x": {1.0}}, [0.5, object()], 1j, np.complex128(1j), frozenset(), b"x",
    {"d": np.datetime64("2020-01-01")}, [np.datetime64(1, "ns")],
    np.array([1], dtype="datetime64[ns]"), np.timedelta64(3, "s"),
], ids=["set", "object", "complex", "complex128", "frozenset", "bytes", "date",
        "datetime64_ns", "datetime64_ns_array", "timedelta64"])
def test_canonical_json_refuses_other_types_as_a_fault(value):
    # foldkin builds every payload it prints, so a value it cannot print
    # is its own fault, not bad input.
    with pytest.raises(TypeError, match="cannot serialize value of type"):
        canonical_json(value)


def test_canonical_json_prints_an_int_subclass_as_its_number():
    # The fallback prints a subclass as its built-in, so an overridden
    # __str__ does not leak into the JSON.
    assert canonical_json({"n": Count(4), "s": Label("x")}) == '{"n":4,"s":"x"}'


def row_dict(prefix, lengths, rng, keys=None):
    """Float rows keyed ``<prefix><i>`` (or ``keys``), inserted in index
    order, as the CLI's vector dicts are."""
    keys = keys or [f"{prefix}{i}" for i in range(len(lengths))]
    return {k: rng.normal(size=n).tolist() for k, n in zip(keys, lengths)}


def truss_dict(num_vertices, num_faces, rng):
    rows = row_dict("v", [3] * num_vertices, rng)
    rows.update(row_dict("a", [3] * num_faces, rng))
    return rows


def test_canonical_json_prints_float_rows_as_the_recursive_formatter(rng):
    cases = [truss_dict(7, 6, rng), truss_dict(42, 30, rng), row_dict("f", [6] * 12, rng),
             row_dict("f", [6] * 1, rng), {"x": [0.5]}]
    # The same keys with other row lengths need another template.
    cases += [row_dict("f", [6, 6, 6], rng), row_dict("f", [6, 3, 6], rng),
              row_dict("f", [2, 6, 6], rng), row_dict("f", [0, 6, 6], rng)]
    # Keys that need escaping, a percent sign among them, and keys
    # inserted out of order.
    cases += [row_dict("", [2, 3, 1, 2], rng,
                       keys=["\u00e9", "%s", "q\"uote\\", "%%d\n"]),
              row_dict("", [1, 2, 3], rng, keys=["b", "a10", "a2"])]
    for value in cases:
        for nested in (value, {"solution": value, "to": "truss"}):
            assert canonical_json(nested) == oracles.canonical_json(nested)
    assert canonical_json({"x": [0.5]}) == '{"x":[0.5]}'
    assert canonical_json({"%d": [0.25, 1.0]}) == '{"%d":[0.25,1]}'


@pytest.mark.parametrize("row", [
    [-0.0, 1.0, 2.0], [5e-324, -5e-324, 0.1], [1e16, 1e17, -1e16], [1.0, 2, 3.0],
    [1.0, True, 3.0], [np.float64(0.1), 0.2, 0.3], [], [1e308, -1e-308, 2.5e-310],
])
def test_canonical_json_rows_of_any_value_print_as_the_recursive_formatter(row, rng):
    # Ints, bools and numpy floats are not plain floats; those dicts, and
    # their layouts with plain floats in place, must print the same.
    for value in (row_dict("v", [3, 3], rng) | {"v2": row},
                  {"v2": row} | row_dict("a", [3], rng), {"v0": row}):
        plain = {k: [float(x) for x in v] for k, v in value.items()}
        for case in (value, plain):
            assert canonical_json(case) == oracles.canonical_json(case)


@pytest.mark.parametrize("keys", [[1, 0], [1.0, 0.5], [True, False], [None], [(1, 2)]],
                         ids=["int", "float", "bool", "none", "tuple"])
def test_canonical_json_rows_under_keys_that_are_not_strings(keys, rng):
    value = row_dict("", [3] * len(keys), rng, keys=keys)
    assert canonical_json(value) == oracles.canonical_json(value)
    # Keys equal to these but printed otherwise share no template.
    if keys[0] in (1, True):
        for other in ([int(k) for k in keys], [float(k) for k in keys], [bool(k) for k in keys]):
            value = dict(zip(other, value.values()))
            assert canonical_json(value) == oracles.canonical_json(value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_canonical_json_rows_refuse_non_finite_floats(bad, rng):
    value = row_dict("v", [3, 3], rng)
    canonical_json(value)  # its layout's template is cached
    value["v1"][2] = float(bad)
    with pytest.raises(ValueError, match="is not a JSON number"):
        canonical_json(value)


def test_canonical_json_templates_outlive_a_full_cache(rng):
    first = truss_dict(4, 3, rng)
    expect = oracles.canonical_json(first)
    assert canonical_json(first) == expect
    for n in range(1, fold_io.TEMPLATE_CACHE_SIZE + 10):
        value = row_dict("f", [6] * n, rng)
        assert canonical_json(value) == oracles.canonical_json(value)
    assert fold_io._row_template.cache_info().currsize == fold_io.TEMPLATE_CACHE_SIZE
    assert canonical_json(first) == expect
    first["v0"] = [0.25, -0.0, 3.0]
    assert canonical_json(first) == oracles.canonical_json(first)


def test_canonical_json_prints_a_truss_payload_without_per_row_dispatch(monkeypatch):
    surface = surface_from_document(generate("miura", 5, 6))
    linkage = stiffen(surface)
    y = truss_kernel(linkage, build_exact_sequence(surface).spatial_h2())[:, 0]
    payload = cli.truss_vector_dict(linkage, y)
    assert len(payload) == 72
    calls = []
    real = fold_io._format_list
    monkeypatch.setattr(fold_io, "_format_list", lambda value: calls.append(1) or real(value))
    assert canonical_json(payload) == oracles.canonical_json(payload)
    assert calls == []


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

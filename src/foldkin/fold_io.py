"""Reading and writing the FOLD-subset JSON format.

Only three geometry fields are interpreted: ``vertices_coords`` (2D
coordinates are padded with a zero z), optional ``edges_vertices``
(checked against the edges derived from faces when present), and
``faces_vertices``.  Every other top-level key is passed through
untouched so files written by other crease-pattern tools survive a
round trip.

Serialization is canonical: keys sorted, floats printed with 17
significant digits, so equal documents produce identical bytes.  A dict
whose values are all lists of finite plain floats, the rows of a
solution vector, is printed by one ``%`` format of a template that holds
its sorted, escaped keys and one ``%.17g`` per float.  The template
depends only on the layout (the keys and the row lengths), so it is built
once per layout and kept in a least-recently-used cache of
``TEMPLATE_CACHE_SIZE`` layouts; every other value is printed value by
value.  Both routes print the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .errors import IndexOutOfRange, ParseError
from .surface import OrigamiSurface, build_surface

_GEOMETRY_KEYS = ("vertices_coords", "edges_vertices", "faces_vertices")

# Row layouts whose print template is kept; a conversion payload has
# one layout per sheet and model.
TEMPLATE_CACHE_SIZE = 128


@dataclass
class FoldSubsetDocument:
    """Parsed geometry plus passthrough metadata."""

    vertices_coords: list[list[float]]
    faces_vertices: list[list[int]]
    edges_vertices: list[list[int]] | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = dict(self.metadata)
        out["vertices_coords"] = self.vertices_coords
        out["faces_vertices"] = self.faces_vertices
        if self.edges_vertices is not None:
            out["edges_vertices"] = self.edges_vertices
        return out


def _expect_list(value, path):
    if not isinstance(value, list):
        raise ParseError(f"{path} must be a list, got {type(value).__name__}")
    return value


def json_number(value, path) -> float:
    """``value`` as a float; it must be a JSON number, not a string, a
    boolean or anything else that ``float`` would also accept."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{path} is too large") from None


def _parse_coords(raw) -> list[list[float]]:
    coords = []
    for i, item in enumerate(_expect_list(raw, "vertices_coords")):
        row = _expect_list(item, f"vertices_coords[{i}]")
        if len(row) not in (2, 3):
            raise ParseError(
                f"vertices_coords[{i}] must have 2 or 3 components")
        xyz = [json_number(x, f"vertices_coords[{i}][{j}]")
               for j, x in enumerate(row)]
        if len(xyz) == 2:
            xyz.append(0.0)
        coords.append(xyz)
    return coords


def _parse_index_lists(raw, key, arity, nv):
    out = []
    for i, item in enumerate(_expect_list(raw, key)):
        row = _expect_list(item, f"{key}[{i}]")
        if arity is not None and len(row) != arity:
            raise ParseError(f"{key}[{i}] must list exactly {arity} vertices")
        ids = []
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"{key}[{i}][{j}] must be an integer index")
            if v < 0 or v >= nv:
                raise IndexOutOfRange(
                    f"{key}[{i}][{j}] references vertex {v}, "
                    f"only {nv} vertices exist")
            ids.append(v)
        out.append(ids)
    return out


def read_json(data: bytes | str):
    """The JSON value in ``data``, UTF-8 bytes or text.  Bytes that are
    not UTF-8, bad JSON, nesting too deep to decode and an integer too
    long to convert are bad input: each raises :class:`ParseError`."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("input nests too deeply") from None
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def parse_fold(data: bytes | str) -> FoldSubsetDocument:
    """Parse a FOLD-subset document, validating index ranges."""
    obj = read_json(data)
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    if "vertices_coords" not in obj or "faces_vertices" not in obj:
        raise ParseError("vertices_coords and faces_vertices are required")

    coords = _parse_coords(obj["vertices_coords"])
    nv = len(coords)
    faces = _parse_index_lists(obj["faces_vertices"], "faces_vertices", None, nv)
    for i, cycle in enumerate(faces):
        if len(cycle) < 3:
            raise ParseError(f"faces_vertices[{i}] needs at least 3 vertices")
    edges = None
    if "edges_vertices" in obj:
        edges = _parse_index_lists(obj["edges_vertices"], "edges_vertices", 2, nv)
    metadata = {k: v for k, v in obj.items() if k not in _GEOMETRY_KEYS}
    return FoldSubsetDocument(vertices_coords=coords, faces_vertices=faces,
                              edges_vertices=edges, metadata=metadata)


def surface_from_document(doc: FoldSubsetDocument) -> OrigamiSurface:
    """Build the validated surface a document describes.

    When the document lists edges they must match the edges derived
    from the face boundaries; dangling bars are not representable.
    """
    surface = build_surface(doc.vertices_coords, doc.faces_vertices)
    if doc.edges_vertices is not None:
        listed = {tuple(sorted(e)) for e in doc.edges_vertices}
        derived = set(surface.edges)
        if listed != derived:
            extra = sorted(listed - derived)
            missing = sorted(derived - listed)
            raise ParseError(
                "edges_vertices disagrees with face boundaries "
                f"(unknown: {extra[:5]}, absent: {missing[:5]})")
    return surface


def document_from_surface(surface: OrigamiSurface, metadata: dict | None = None
                          ) -> FoldSubsetDocument:
    return FoldSubsetDocument(
        vertices_coords=[[float(x) for x in p] for p in surface.vertices],
        faces_vertices=[list(c) for c in surface.faces],
        edges_vertices=[list(e) for e in surface.edges],
        metadata=dict(metadata or {}))


# --- canonical JSON ---

def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"{value} is not a JSON number")
    return f"{value:.17g}"


def _format_list(value) -> str:
    # A solution vector is a list of finite plain floats: one join, with
    # no per-value dispatch.  Anything else, a non-finite float included,
    # goes value by value.
    if {*map(type, value)} == {float} and all(map(math.isfinite, value)):
        return "[" + ",".join([f"{v:.17g}" for v in value]) + "]"
    return "[" + ",".join(map(_format_value, value)) + "]"


@lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _row_template(keys: tuple, lengths: tuple) -> tuple[str, itemgetter] | None:
    """The print template of a dict of float rows with ``keys`` and row
    ``lengths`` in insertion order, and the getter that takes the dict's
    floats, flattened in that order, to the template's sorted-key order.

    None unless every key is a plain string: keys that are equal but
    print differently, such as ``1``, ``1.0`` and ``True``, would share a
    template."""
    if {*map(type, keys)} != {str}:
        return None
    rows = sorted(zip(keys, accumulate(lengths, initial=0), lengths))
    body = ",".join(encode_basestring_ascii(k).replace("%", "%%") + ":["
                    + ",".join(["%.17g"] * n) + "]" for k, _, n in rows)
    # With one float the getter returns it bare, which ``%`` also takes.
    return "{" + body + "}", itemgetter(*(s + i for _, s, n in rows for i in range(n)))


def _format_dict(value: dict) -> str:
    rows = value.values()
    if {*map(type, rows)} == {list}:
        flat = tuple(chain.from_iterable(rows))
        if {*map(type, flat)} == {float} and all(map(math.isfinite, flat)):
            template = _row_template(tuple(value), tuple(map(len, rows)))
            if template is not None:
                return template[0] % template[1](flat)
    body = ",".join(f"{encode_basestring_ascii(str(k))}:{_format_value(v)}"
                    for k, v in sorted(value.items()))
    return "{" + body + "}"


def _format_value(value) -> str:
    # Dispatch on the exact type first: these are the types the payloads
    # are built from.  ``encode_basestring_ascii`` is what ``json.dumps``
    # runs on a string.
    kind = type(value)
    if kind is float:
        return _format_float(value)
    if kind is list or kind is tuple:
        return _format_list(value)
    if kind is dict:
        return _format_dict(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    return _format_other(value)


def _format_other(value) -> str:
    """The one fallback: numpy booleans, numbers and strings print as
    their ``tolist()``, and a subclass of a built-in as that built-in,
    a string through ``str.__str__`` so an overridden ``__str__`` does
    not print."""
    if isinstance(value, (np.generic, np.ndarray)) and value.dtype.kind in "biufU":
        return _format_value(value.tolist())
    for kind in (str, int, float, list, tuple, dict):
        if isinstance(value, kind):
            return _format_value(str.__str__(value) if kind is str else kind(value))
    # foldkin builds every payload it prints, so this is a fault in
    # foldkin, not bad input.
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.
    A NaN or infinite float raises ``ValueError``: JSON has no such
    numbers.  A value of any other type raises ``TypeError``."""
    return _format_value(obj)


def serialize_fold(doc: FoldSubsetDocument) -> bytes:
    return (canonical_json(doc.to_dict()) + "\n").encode("utf-8")

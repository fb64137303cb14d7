"""Built-in surface generators.

Every generator is deterministic for a given seed, returns a
FOLD-subset document, and produces faces that are exactly planar by
construction (triangles, parallelograms, or coplanar trapezoids), so
the generated geometry always passes surface validation.  Jitter never
bends a face: sheets of triangles take positional jitter at a
thousandth of the edge length, while quad-based shapes jitter the
parameters that keep their faces coplanar (ring radii and heights,
sector angles, spoke directions).  ``jitter=False`` produces the
regular, possibly deliberately flat and rank-deficient, configuration.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams
from .fold_io import FoldSubsetDocument

JITTER_SCALE = 1e-3


def _document(shape, vertices, faces, seed, params) -> FoldSubsetDocument:
    meta = {
        "file_spec": 1.1,
        "file_creator": "foldkin",
        "file_classes": ["singleModel"],
        "foldkin_shape": shape,
        "foldkin_seed": seed,
        "foldkin_params": params,
    }
    return FoldSubsetDocument(
        vertices_coords=[[float(x) for x in p] for p in vertices],
        faces_vertices=[list(map(int, f)) for f in faces],
        metadata=meta)


def _quads(rows: int, cols: int, width: int) -> list:
    """The ``rows * cols`` quads of a lattice whose vertex rows hold
    ``width`` ids each, counterclockwise from the lower left corner; a
    ring (``width == cols``) wraps its last column onto its first."""
    def vid(i, j):
        return j * width + i % width

    return [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            for j in range(rows) for i in range(cols)]


def _require(cond, message):
    if not cond:
        raise InvalidParams(message)


def _rng(seed: int) -> np.random.Generator:
    """Every shape checks its seed here before it draws from or records it."""
    _require(seed >= 0, f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def chain(n: int, seed: int = 0, jitter: bool = True) -> FoldSubsetDocument:
    """Serial chain of ``n + 1`` triangular panels joined by ``n`` hinges.

    The dual graph is a path.  Vertex ids are assigned so the face after
    each hinge induces the positive orientation on it, which keeps the
    closed-form chain operators and the homological connecting map in
    the same coordinates.  Without jitter the strip is a flat regular
    zigzag.
    """
    _require(n >= 1, "chain needs n >= 1 panels")
    rng = _rng(seed)
    count = n + 3
    positions = np.zeros((count, 3))
    if jitter:
        positions[1] = positions[0] + _random_step(rng)
        for k in range(2, count):
            positions[k] = _next_strip_point(rng, positions[k - 2], positions[k - 1])
    else:
        for k in range(count):
            positions[k] = (0.5 * k, float(k % 2), 0.0)

    evens = (count + 1) // 2
    ids = [k // 2 if k % 2 == 0 else evens + k // 2 for k in range(count)]
    vertices = np.zeros((count, 3))
    for k in range(count):
        vertices[ids[k]] = positions[k]
    faces = []
    for i in range(n + 1):
        a, b, c = ids[i], ids[i + 1], ids[i + 2]
        faces.append([a, b, c] if i % 2 == 0 else [b, a, c])
    return _document("chain", vertices, faces, seed,
                     {"n": n, "jitter": jitter})


def _random_step(rng) -> np.ndarray:
    direction = rng.normal(size=3)
    return direction / np.linalg.norm(direction)


def _next_strip_point(rng, a, b) -> np.ndarray:
    """Point forming a well-conditioned triangle with segment a-b."""
    while True:
        p = b + _random_step(rng)
        edge = b - a
        rel = p - a
        area2 = np.linalg.norm(np.cross(edge, rel))
        if area2 > 0.2 * np.linalg.norm(edge):
            return p


def single_vertex(degree: int, fold_angle: float = 0.5, seed: int = 0,
                  jitter: bool = True) -> FoldSubsetDocument:
    """Closed fan of triangles around one interior vertex.

    ``fold_angle`` is the cone slope of the spokes; zero gives the flat
    (rank-deficient) configuration.  Jitter perturbs spoke directions
    azimuthally and radially, staying on the cone.
    """
    _require(degree >= 3, "single_vertex needs degree >= 3")
    _require(abs(fold_angle) < math.pi / 2, "fold_angle must be below pi/2")
    rng = _rng(seed)
    vertices = [np.zeros(3)]
    slope = math.tan(fold_angle)
    for i in range(degree):
        alpha = 2 * math.pi * i / degree
        radius = 1.0
        if jitter:
            alpha += rng.uniform(-0.3, 0.3) * 2 * math.pi / degree
            radius *= 1.0 + rng.uniform(-0.15, 0.15)
        vertices.append(np.array([
            radius * math.cos(alpha),
            radius * math.sin(alpha),
            radius * slope,
        ]))
    faces = [[0, 1 + i, 1 + (i + 1) % degree] for i in range(degree)]
    return _document("single_vertex", np.array(vertices), faces, seed,
                     {"degree": degree, "fold_angle": fold_angle,
                      "jitter": jitter})


def grid(rows: int, cols: int, seed: int = 0,
         jitter: bool = True) -> FoldSubsetDocument:
    """Flat quad sheet with ``rows * cols`` faces.

    Jitter moves vertices within the sheet plane only, keeping every
    quad planar; the configuration stays flat by design.
    """
    _require(rows >= 1 and cols >= 1, "grid needs rows, cols >= 1")
    rng = _rng(seed)
    vertices = []
    for j in range(rows + 1):
        for i in range(cols + 1):
            x, y = float(i), float(j)
            if jitter:
                x += rng.uniform(-1, 1) * JITTER_SCALE
                y += rng.uniform(-1, 1) * JITTER_SCALE
            vertices.append([x, y, 0.0])
    return _document("grid", np.array(vertices), _quads(rows, cols, cols + 1), seed,
                     {"rows": rows, "cols": cols, "jitter": jitter})


def _polar_ring(shape, rows, cols, radii, heights, seed, jitter, params):
    """Shared builder for annulus and cylinder: rings of coplanar
    trapezoids around the z axis (per-ring radius and height keep each
    quad inside one plane)."""
    rng = _rng(seed)
    angles = np.array([2 * math.pi * i / cols for i in range(cols)])
    if jitter:
        angles = angles + rng.uniform(-0.2, 0.2, size=cols) * 2 * math.pi / cols
        radii = radii * (1.0 + rng.uniform(-0.05, 0.05, size=rows + 1))
        heights = heights + rng.uniform(-0.05, 0.05, size=rows + 1)
    vertices = []
    for j in range(rows + 1):
        for i in range(cols):
            vertices.append([radii[j] * math.cos(angles[i]),
                             radii[j] * math.sin(angles[i]),
                             heights[j]])
    return _document(shape, np.array(vertices), _quads(rows, cols, cols), seed, params)


def annulus(rows: int, cols: int, hole: float = 1.0, seed: int = 0,
            jitter: bool = True) -> FoldSubsetDocument:
    """Ring of ``rows`` bands and ``cols`` sectors around a circular
    hole of radius ``hole``; ring heights follow a gentle cone profile
    so the geometry is generic (non-flat)."""
    _require(rows >= 1 and cols >= 3, "annulus needs rows >= 1, cols >= 3")
    _require(hole > 0, "annulus hole radius must be positive")
    radii = np.array([hole + float(j) for j in range(rows + 1)])
    heights = np.array([0.4 * (hole + rows) * math.sin(math.pi * j / max(rows, 1))
                        for j in range(rows + 1)])
    return _polar_ring("annulus", rows, cols, radii, heights, seed, jitter,
                       {"rows": rows, "cols": cols, "hole": hole,
                        "jitter": jitter})


def cylinder(rows: int, cols: int, seed: int = 0,
             jitter: bool = True) -> FoldSubsetDocument:
    """Open prism tube: ``cols``-gonal cross-section, ``rows`` bands."""
    _require(rows >= 1 and cols >= 3, "cylinder needs rows >= 1, cols >= 3")
    radii = np.ones(rows + 1)
    heights = np.array([float(j) for j in range(rows + 1)])
    return _polar_ring("cylinder", rows, cols, radii, heights, seed, jitter,
                       {"rows": rows, "cols": cols, "jitter": jitter})


def torus(rows: int, cols: int, seed: int = 0,
          jitter: bool = True) -> FoldSubsetDocument:
    """Closed triangulated torus, ``cols`` major and ``rows`` minor steps."""
    _require(rows >= 3 and cols >= 3, "torus needs rows, cols >= 3")
    rng = _rng(seed)
    major, minor = 2.0, 0.8
    vertices = []
    for j in range(rows):
        for i in range(cols):
            theta = 2 * math.pi * i / cols
            phi = 2 * math.pi * j / rows
            p = np.array([
                (major + minor * math.cos(phi)) * math.cos(theta),
                (major + minor * math.cos(phi)) * math.sin(theta),
                minor * math.sin(phi),
            ])
            if jitter:
                p = p + rng.uniform(-1, 1, size=3) * JITTER_SCALE
            vertices.append(p)
    # The last row's quads reach row ``rows``, which wraps onto row 0.
    faces = [[v % (rows * cols) for v in t] for a, b, c, d in _quads(rows, cols, cols)
             for t in ([a, b, c], [a, c, d])]
    return _document("torus", np.array(vertices), faces, seed,
                     {"rows": rows, "cols": cols, "jitter": jitter})


def miura(rows: int, cols: int, angle: float = 0.7, seed: int = 0,
          jitter: bool = True) -> FoldSubsetDocument:
    """Folded herringbone corrugation of ``rows * cols`` parallelograms.

    Columns zigzag laterally and rows zigzag in height; every face is a
    parallelogram, hence exactly planar.  ``angle`` controls both
    zigzags.  Positions take no jitter (it would bend the faces).
    """
    _require(rows >= 1 and cols >= 1, "miura needs rows, cols >= 1")
    _require(0 < angle < math.pi / 2, "miura angle must lie in (0, pi/2)")
    _rng(seed)  # draws nothing, but records the seed
    shear = 0.5 * math.tan(angle)
    height = 0.5 * math.sin(angle)
    vertices = []
    for j in range(rows + 1):
        for i in range(cols + 1):
            vertices.append([
                float(i),
                float(j) + (i % 2) * shear,
                (j % 2) * height,
            ])
    return _document("miura", np.array(vertices), _quads(rows, cols, cols + 1), seed,
                     {"rows": rows, "cols": cols, "angle": angle,
                      "jitter": jitter})


_GENERATORS = {
    "chain": (chain, ("n",)),
    "single_vertex": (single_vertex, ("degree", "fold_angle")),
    "grid": (grid, ("rows", "cols")),
    "annulus": (annulus, ("rows", "cols", "hole")),
    "cylinder": (cylinder, ("rows", "cols")),
    "torus": (torus, ("rows", "cols")),
    "miura": (miura, ("rows", "cols", "angle")),
}


def shape_names() -> list[str]:
    return sorted(_GENERATORS)


def generate(shape: str, *args, seed: int = 0, jitter: bool = True,
             **params) -> FoldSubsetDocument:
    """Generate a named shape.

    Positional arguments bind to the shape's parameters in declaration
    order (``chain 5``, ``torus 6 6``, ``single_vertex 4 0.5``); keyword
    parameters are also accepted.
    """
    if shape not in _GENERATORS:
        raise InvalidParams(
            f"unknown shape {shape!r}; choose from {', '.join(shape_names())}")
    fn, names = _GENERATORS[shape]
    if len(args) > len(names):
        raise InvalidParams(f"{shape} takes at most {len(names)} parameters")
    bound = dict(zip(names, args))
    overlap = set(bound) & set(params)
    if overlap:
        raise InvalidParams(f"duplicate parameters: {sorted(overlap)}")
    bound.update(params)
    unknown = set(bound) - set(names)
    if unknown:
        raise InvalidParams(f"unknown parameters for {shape}: {sorted(unknown)}")
    try:
        return fn(seed=seed, jitter=jitter, **bound)
    except TypeError as exc:
        raise InvalidParams(str(exc)) from exc

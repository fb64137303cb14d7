import numpy as np
import pytest

from foldkin import build_surface, generate, surface_from_document


def surface_of(shape, *args, seed=0, jitter=True, **params):
    return surface_from_document(generate(shape, *args, seed=seed,
                                          jitter=jitter, **params))


def scaled(surface, factor):
    """The same surface with every coordinate multiplied by ``factor``."""
    return build_surface(surface.vertices * factor, surface.faces)


def two_triangles():
    """Two generic triangles sharing one edge."""
    verts = [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.1],
        [0.5, 1.0, 0.0],
        [1.5, 1.1, 0.4],
    ]
    return build_surface(verts, [[0, 1, 2], [1, 3, 2]])


def two_panels(fold=0.6):
    """Two unit quads joined along x = 1, folded by ``fold`` radians."""
    c, s = np.cos(fold), np.sin(fold)
    verts = [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0 + c, 0.0, s],
        [1.0 + c, 1.0, s],
    ]
    faces = [[0, 1, 2, 3], [1, 4, 5, 2]]
    return build_surface(verts, faces)


def square_hole_grid(n=4):
    """Flat n x n quad grid with the face nearest the center removed."""
    verts = [[float(i), float(j), 0.0]
             for j in range(n + 1) for i in range(n + 1)]

    def vid(i, j):
        return j * (n + 1) + i

    hole = (n // 2, n // 2)
    faces = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(n) for i in range(n) if (i, j) != hole]
    return build_surface(verts, faces)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)

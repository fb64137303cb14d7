import dataclasses

import numpy as np
import pytest

from foldkin import (
    assemble_chain_complex,
    axis_projection,
    base_homology,
    build_constant_model,
    build_exact_sequence,
    build_hinge_model,
    build_rigid_model,
    build_spatial_model,
    build_surface,
    homology_basis,
    induced_map,
    orthonormal_triad,
    point_velocity_blocks,
    stiffen,
    transfer_matrix,
)
from foldkin import models
from foldkin.errors import DegenerateFace, WellDefinednessViolation
from foldkin.linalg import svd_rank
from foldkin.surface import INCIDENCE_DIMS

import oracles
from conftest import ORACLE_SURFACES, square_hole_grid, surface_of, two_panels, two_triangles
from oracles import truss_kernel


def fan(degree, fold=0.5, seed=0):
    return surface_of("single_vertex", degree, fold, seed=seed)


# --- hinge model ---

def test_hinge_fan_degree4_generic_kernel():
    s = fan(4)
    cc = build_hinge_model(s)
    assert cc.d1.shape == (3, 4)
    # Brute-force oracle: singular values of the assembled 3x4 matrix.
    sv = np.linalg.svd(cc.d1, compute_uv=False)
    assert (sv > 1e-9 * sv[0]).sum() == 3
    assert homology_basis(build_hinge_model(s), 1).shape[1] == 1


@pytest.mark.parametrize("degree", [4, 5, 6])
def test_hinge_fan_counting_rule(degree):
    s = fan(degree)
    assert homology_basis(build_hinge_model(s), 1).shape[1] == degree - 3


def test_hinge_flat_fan_rank_drop():
    s = surface_of("single_vertex", 4, 0.0, jitter=False)
    cc = build_hinge_model(s)
    sv = np.linalg.svd(cc.d1, compute_uv=False)
    assert (sv > 1e-9 * sv[0]).sum() == 2
    assert homology_basis(build_hinge_model(s), 1).shape[1] == 2


def test_hinge_two_triangles_unconstrained():
    cc = build_hinge_model(two_triangles())
    assert cc.d1.shape == (0, 1)


def test_hinge_blocks_are_signed_axes():
    s = fan(5)
    cc = build_hinge_model(s)
    v = s.interior_vertices()[0]
    for col, e in enumerate(s.interior_edges()):
        expect = s.sign_ve[(v, e)] * s.edge_triads[e, 0]
        assert np.allclose(cc.d1[:, col], expect)


# --- spatial model ---

def test_spatial_two_panels_matches_published_dimensions():
    s = two_panels()
    cc = build_spatial_model(s)
    assert cc.d2.shape == (5, 12)
    assert homology_basis(build_spatial_model(s), 2).shape[1] == 7


def test_spatial_single_face_free_body():
    verts = [[0, 0, 0], [1, 0, 0], [0.4, 1.2, 0]]
    s = build_surface(verts, [[0, 1, 2]])
    cc = build_spatial_model(s)
    assert cc.d2.shape == (0, 6)
    assert homology_basis(cc, 2).shape[1] == 6


def test_spatial_fan_has_global_plus_fold_modes():
    s = fan(4)
    assert homology_basis(build_spatial_model(s), 2).shape[1] == 7


def test_stalk_dimension_audit():
    for s in (two_panels(), fan(5), surface_of("grid", 2, 3)):
        spatial = build_spatial_model(s)
        hinge = build_hinge_model(s)
        n_int_e = len(s.interior_edges())
        n_int_v = len(s.interior_vertices())
        assert spatial.dim(2) == 6 * s.num_faces
        assert spatial.dim(1) == 5 * n_int_e
        assert hinge.dim(1) == n_int_e
        assert hinge.dim(0) == 3 * n_int_v


# --- rigid model ---

def test_rigid_global_motions_only():
    for s in (two_triangles(), fan(5), surface_of("torus", 4, 4),
              square_hole_grid(3)):
        assert homology_basis(build_rigid_model(s), 2).shape[1] == 6


def test_rigid_annulus_loop_dimensions():
    assert homology_basis(build_rigid_model(square_hole_grid(3)), 1).shape[1] == 6
    annulus = build_rigid_model(surface_of("annulus", 2, 5))
    assert homology_basis(annulus, 1).shape[1] == 6


def test_rigid_torus_loop_dimensions():
    assert homology_basis(build_rigid_model(surface_of("torus", 4, 5)), 1).shape[1] == 12


def test_rigid_extensions_invertible():
    s = two_panels()
    cosheaf = build_rigid_model(s)
    for kind, (up, lo) in INCIDENCE_DIMS.items():
        inc = s.incidences[kind]
        live = cosheaf.support[up][inc.upper] & cosheaf.support[lo][inc.lower]
        dets = np.linalg.det(cosheaf.extensions[kind][live])
        assert np.abs(dets - 1.0).max(initial=0.0) < 1e-12


def test_assembled_blocks_match_incidence_formulas():
    # Oracle: rebuild the spatial and rigid boundary matrices block by
    # block from the per-incidence formulas.  Chains list the interior
    # vertices, the interior edges and the faces in index order.
    for s in (two_panels(), surface_of("single_vertex", 5),
              surface_of("torus", 4, 4)):
        vrow = {v: k for k, v in enumerate(s.interior_vertices())}
        erow = {e: k for k, e in enumerate(s.interior_edges())}
        nv, ne, nf = len(vrow), len(erow), s.num_faces
        expect = {
            "spatial": (np.zeros((3 * nv, 5 * ne)), np.zeros((5 * ne, 6 * nf))),
            "rigid": (np.zeros((6 * nv, 6 * ne)), np.zeros((6 * ne, 6 * nf))),
        }
        for e, k in erow.items():
            c_e = s.edge_midpoints[e]
            ends = s.vertices[list(s.edges[e])]
            proj = axis_projection(orthonormal_triad(ends[1] - ends[0]))
            for f in s.edge_faces[e]:
                sign = s.sign_ef[(e, f)]
                psi = transfer_matrix(s.face_centroids[f], c_e)
                expect["spatial"][1][5 * k:5 * k + 5, 6 * f:6 * f + 6] = sign * proj @ psi
                expect["rigid"][1][6 * k:6 * k + 6, 6 * f:6 * f + 6] = sign * psi
            for v in s.edges[e]:
                if v in vrow:
                    sign, r = s.sign_ve[(v, e)], vrow[v]
                    expect["spatial"][0][3 * r:3 * r + 3, 5 * k:5 * k + 5] = (
                        sign * point_velocity_blocks(s.vertices[v] - c_e) @ proj.T)
                    expect["rigid"][0][6 * r:6 * r + 6, 6 * k:6 * k + 6] = (
                        sign * transfer_matrix(c_e, s.vertices[v]))
        for name, build in (("spatial", build_spatial_model),
                            ("rigid", build_rigid_model)):
            cc = build(s)
            for got, want in zip((cc.d1, cc.d2), expect[name]):
                assert got.shape == want.shape, name
                assert np.abs(got - want).max(initial=0.0) <= \
                    1e-14 * np.abs(want).max(initial=1.0), name


# --- constant model and the rigid isomorphism ---

def test_constant_model_homology_scales_with_betti():
    s = surface_of("torus", 4, 4)
    b = base_homology(s)
    assert homology_basis(build_constant_model(s, 6), 2).shape[1] == 6 * b[2] == 6


def test_constant_rigid_iso_natural_and_invertible():
    for s in (two_panels(), fan(4), surface_of("torus", 4, 4)):
        rigid = build_rigid_model(s)
        phi = oracles.constant_rigid_isomorphism(rigid)
        assert phi.naturality_residual() < 1e-12
        for d in range(3):
            comps = phi.components[d][rigid.support[d]]
            assert np.abs(np.linalg.det(comps) - 1.0).max(initial=0.0) < 1e-12
        m = induced_map(phi, 2,
                        homology_basis(assemble_chain_complex(phi.source), 2),
                        homology_basis(rigid, 2))
        assert m.shape == (6, 6)
        assert svd_rank(m) == 6


# --- stiffened linkage / truss ---

def test_stiffen_triangle_adds_apex_only():
    verts = [[0, 0, 0], [1, 0, 0], [0.4, 1.2, 0]]
    s = build_surface(verts, [[0, 1, 2]])
    x = stiffen(s)
    assert x.num_points == 4
    # Triangle boundary already complete: 3 original + 3 apex bars.
    assert x.bars.shape == (6, 2)
    assert x.directions.shape == (6, 3)


def test_stiffen_quad_adds_diagonals():
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    s = build_surface(verts, [[0, 1, 2, 3]])
    x = stiffen(s)
    # Oracle: complete graph on 5 nodes has 10 bars; 4 already exist as
    # boundary edges, so 4 apex bars + 2 diagonals are new.
    assert x.num_points == 5
    bars = x.bars.tolist()
    assert len(bars) == 10
    new = [b for b in bars if 4 in b]
    assert len(new) == 4
    diagonals = [b for b in bars if b in ([0, 2], [1, 3])]
    assert len(diagonals) == 2


def test_stiffen_apex_leaves_face_plane():
    s = two_panels()
    x = stiffen(s)
    for f, cycle in enumerate(s.faces):
        pts = s.vertices[list(cycle)]
        normal = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        normal /= np.linalg.norm(normal)
        gap = abs(normal @ (x.points[s.num_vertices + f] - pts[0]))
        assert gap > 0.5


def test_single_stiffened_triangle_is_rigid():
    # Oracle: a generic tetrahedron of bars admits exactly the six
    # rigid motions.
    verts = [[0, 0, 0], [1, 0, 0], [0.4, 1.2, 0]]
    s = build_surface(verts, [[0, 1, 2]])
    kernel = truss_kernel(stiffen(s))
    assert kernel.shape[1] == 6


def test_truss_two_panels_dimension():
    assert truss_kernel(stiffen(two_panels())).shape[1] == 7


def test_truss_kernel_certifies_every_face_group():
    # A triangle and its apex are braced by exactly 3n - 6 = 6 bars.
    s = two_triangles()
    basis = build_exact_sequence(s).spatial_h2()
    linkage = stiffen(s)
    assert models.truss_kernel(linkage, basis).shape == (3 * linkage.num_points, 7)
    # Without its first bar, the group holding it bends.
    missing = dataclasses.replace(linkage, bars=linkage.bars[1:],
                                  directions=linkage.directions[1:])
    with pytest.raises(DegenerateFace, match="^truss group of face 0 has rank 5, want 6"):
        models.truss_kernel(missing, basis)
    # An apex in its face's plane leaves a flat group.
    flat = dataclasses.replace(s, face_normals=0)
    with pytest.raises(DegenerateFace, match="^truss group of face 0 "):
        models.truss_kernel(stiffen(flat), basis)


def test_uniform_translation_in_truss_kernel(rng):
    x = stiffen(two_panels())
    beta = rng.normal(size=3)
    y = np.tile(beta, x.num_points)
    assert np.abs(x.stretch(y)).max() < 1e-12


def test_uniform_rotation_in_truss_kernel(rng):
    x = stiffen(surface_of("grid", 2, 2))
    omega = rng.normal(size=3)
    y = np.concatenate([np.cross(omega, p) for p in x.points])
    assert np.abs(x.stretch(y)).max() < 1e-12


def test_truss_rows_are_unit_direction_differences(rng):
    s = two_triangles()
    x = stiffen(s)
    y = rng.normal(size=3 * x.num_points)
    rates = x.stretch(y)
    for row, (u, v) in enumerate(x.bars):
        axis = x.points[v] - x.points[u]
        axis /= np.linalg.norm(axis)
        expect = axis @ (y[3 * v:3 * v + 3] - y[3 * u:3 * u + 3])
        assert abs(rates[row] - expect) < 1e-12
    # The per-bar product is the dense Jacobian's, on one vector and on
    # a block of columns.
    for _, make in ORACLE_SURFACES:
        x = stiffen(make())
        jacobian = oracles.bar_jacobian(x)
        for y in (rng.normal(size=3 * x.num_points), rng.normal(size=(3 * x.num_points, 4))):
            got = x.stretch(y)
            assert got.shape == (len(x.bars),) + y.shape[1:]
            assert np.abs(got - jacobian @ y).max() < 1e-14 * np.abs(y).max()


def test_corner_velocities_read_each_point_off_its_first_corner(rng):
    for _, make in ORACLE_SURFACES[:6]:
        x = stiffen(make())
        values = rng.normal(size=(6 * x.surface.num_faces, 3))
        at_corner, at_point = models.corner_velocities(x, values)
        first = oracles.first_corner(x)
        expect = np.zeros((x.num_points, 3, 3))
        expect[x.group.ravel()[first]] = at_corner.reshape(-1, 3, 3)[first]
        assert np.array_equal(at_point, expect.reshape(-1, 3))


def test_truss_kernel_rejects_a_basis_that_stretches_a_bar():
    # A rotation rate of face 0 alone is no spatial solution: the shared
    # edge's ends move with face 0, and face 1's bars to them stretch.
    s = two_triangles()
    linkage = stiffen(s)
    e0 = np.eye(6 * s.num_faces)[:, :1]
    for route in (models.eta_image, models.truss_kernel):
        with pytest.raises(WellDefinednessViolation,
                           match="^spatial basis maps outside the truss kernel"):
            route(linkage, e0)


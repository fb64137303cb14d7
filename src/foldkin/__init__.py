"""First-order rigid origami kinematics via cellular cosheaf homology.

Build an oriented origami surface, assemble its hinge, spatial,
rigid-body, and truss models (the first three as cosheaves, each its
own chain complex), compute their homology
numerically, and convert solutions between the models, including the
loop-closure obstruction on non-simply-connected surfaces.
"""

from .analysis import AnalysisReport, analyze_surface
from .cosheaf import (
    Cosheaf,
    CosheafMap,
    assemble_chain_complex,
    connecting_map,
    constant_cosheaf,
    homology_basis,
    induced_map,
    verify_exact_sequence,
)
from .fold_io import (
    FoldSubsetDocument,
    canonical_json,
    document_from_surface,
    parse_fold,
    serialize_fold,
    surface_from_document,
)
from .generators import generate, shape_names
from .linalg import RANK_TOL
from .maps import (
    ConversionReport,
    ExactSequence,
    ModelSolution,
    SerialChainOperators,
    build_exact_sequence,
    chain_structure,
    hinge_solution,
    hinge_to_spatial,
    hinge_to_truss,
    pinned_chain_connecting_matrix,
    propagate_chain,
    serial_chain_operators,
    spatial_solution,
    spatial_to_truss,
    truss_to_spatial,
)
from .models import (
    StiffenedLinkage,
    build_constant_model,
    build_hinge_model,
    build_rigid_model,
    build_spatial_model,
    stiffen,
    truss_kernel,
)
from .spatial import (
    axis_projection,
    cross_matrix,
    hinge_twist,
    orthonormal_triad,
    point_velocity_blocks,
    transfer_matrix,
)
from .surface import OrigamiSurface, base_homology, build_surface

__version__ = "0.1.0"

"""Scaled-boundary isogeometric analysis with C1 multipatch coupling,
applied to Kirchhoff plate bending."""

from .splines import (
    KnotVector,
    make_open_knot_vector,
    insert_knot,
)
from .geometry import (
    NurbsCurve,
    SBPatch,
    MultiPatchDomain,
    make_domain,
    line_curve,
    circle_arc,
    validate_star_shape,
    locate_point,
)
from .coupling import (
    asg1_coefficients,
    verify_asg1,
    build_coupled_space,
    c1_basis,
    reproduction_vector,
    c1_jump_report,
)
from .plate import (
    PlateMaterial,
    LoadSpec,
    cos2_square,
    manufactured_rhs,
    point_load_reference,
    assemble_stiffness,
    assemble_load,
    solve,
    solve_plate,
    evaluate,
    bending_moments,
    error_norms,
)
from .stabilize import build_combined_space
from .trim import split_curve, star_blocks

__version__ = "0.1.0"

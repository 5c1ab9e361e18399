"""Stabilizing feedback for underactuated cascades of coupled 1-D heat equations.

The package synthesizes proportional state feedback for systems of m heat
equations coupled in cascade form, with all control channels entering the
first equation, and verifies the guaranteed exponential decay rate by
spectral-Galerkin closed-loop simulation.
"""

from .model import (
    DiffusionIndices,
    PlantSpec,
    ShapeFunction,
    ValidatedPlant,
    diffusion_indices,
    load_plant,
    save_plant,
    validate_plant,
)
from .spectral import (
    SpectralBasis,
    build_basis,
    expand,
    shape_projection_matrix,
)
from .synthesis import (
    Certificate,
    Controller,
    build_controller,
    certificate,
    direct_baseline,
    input_matrix,
    modal_gains,
    select_mode_count,
    stabilize_coupling,
)
from .simulator import (
    ClosedLoop,
    SimConfig,
    Trajectory,
    assemble_closed_loop,
    estimate_decay,
    integrate,
    project_initial,
    reconstruct_field,
    run_closed_loop,
    target_residual,
)
from .transform import (
    TransformFamily,
    coupling_row,
    mode_transform,
    solve_transform_family,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ClosedLoop",
    "Controller",
    "DiffusionIndices",
    "PlantSpec",
    "ShapeFunction",
    "SimConfig",
    "SpectralBasis",
    "Trajectory",
    "TransformFamily",
    "ValidatedPlant",
    "assemble_closed_loop",
    "build_basis",
    "build_controller",
    "certificate",
    "coupling_row",
    "diffusion_indices",
    "direct_baseline",
    "estimate_decay",
    "expand",
    "input_matrix",
    "integrate",
    "load_plant",
    "modal_gains",
    "mode_transform",
    "project_initial",
    "reconstruct_field",
    "run_closed_loop",
    "save_plant",
    "select_mode_count",
    "shape_projection_matrix",
    "solve_transform_family",
    "stabilize_coupling",
    "target_residual",
    "validate_plant",
]

"""Stabilizing feedback for underactuated cascades of coupled 1-D heat equations.

The package synthesizes proportional state feedback for systems of m heat
equations coupled in cascade form, with all control channels entering the
first equation, and verifies the guaranteed exponential decay rate by
spectral-Galerkin closed-loop simulation.

The public names below are imported from their submodules on first use
(PEP 562), so importing the package, or one submodule, loads no other.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "model": ("DiffusionIndices", "PlantSpec", "ShapeFunction", "ValidatedPlant",
              "diffusion_indices", "load_plant", "save_plant", "validate_plant"),
    "spectral": ("SpectralBasis", "build_basis", "expand", "shape_projection_matrix"),
    "synthesis": ("Certificate", "Controller", "build_controller", "certificate",
                  "direct_baseline", "input_matrix", "modal_gains", "select_mode_count",
                  "stabilize_coupling"),
    "simulator": ("ClosedLoop", "SimConfig", "Trajectory", "assemble_closed_loop",
                  "estimate_decay", "integrate", "project_initial", "reconstruct_field",
                  "run_closed_loop", "target_residual"),
    "transform": ("TransformFamily", "coupling_row", "mode_transform",
                  "solve_transform_family"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("checks", "cli", "errors", *_EXPORTS)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

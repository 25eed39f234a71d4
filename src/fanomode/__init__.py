"""Fano-profile spectral functions, their pseudomode Lindblad embedding, and
cross-validated single-excitation dynamics for dissipative cavity QED."""

from .embedding import (
    EmbeddedQME,
    embed_from_model,
    is_lindblad,
    kossakowski,
    spectral_from_qme,
)
from .dynamics import (
    Trajectory,
    build_discretized,
    decay_rate,
    solve_amplitudes,
    solve_discretized,
    solve_qme,
    solve_volterra,
)
from .fanodiag import (
    fano_alpha,
    fano_lambda,
    verify_lambda_identity,
)
from .spectral import (
    FanoModel,
    PoleSpectral,
    ReducedForm,
    evaluate_J,
    evaluate_reduced_J,
    kernel_by_quadrature,
    memory_kernel,
    pole_residue_from_model,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddedQME",
    "FanoModel",
    "PoleSpectral",
    "ReducedForm",
    "Trajectory",
    "build_discretized",
    "decay_rate",
    "embed_from_model",
    "evaluate_J",
    "evaluate_reduced_J",
    "fano_alpha",
    "fano_lambda",
    "is_lindblad",
    "kernel_by_quadrature",
    "kossakowski",
    "memory_kernel",
    "pole_residue_from_model",
    "solve_amplitudes",
    "solve_discretized",
    "solve_qme",
    "solve_volterra",
    "spectral_from_qme",
    "verify_lambda_identity",
]

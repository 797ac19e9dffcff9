"""Finite-gap Schrodinger backgrounds: divisor flow, Weyl solutions, and
transformation-operator kernels.

``LEVITAN_THREADS`` is applied here, before any submodule imports numpy;
set it before numpy is imported anywhere in the process.
"""

from ._threads import apply_thread_budget as _apply_thread_budget

try:
    _apply_thread_budget()
except ValueError:
    pass  # the ``levitan`` entry point reports it and exits with code 2

from .dubrovin import (
    DirichletDivisor,
    DivisorTrajectory,
    PotentialSamples,
    RecurrenceReport,
    integrate_dubrovin,
    recurrence_diagnostic,
    trace_potential,
    trajectory_to_csv,
)
from .spectral import (
    BandStructure,
    HypothesisReport,
    Side,
    SpectralPoint,
    eval_Y,
    eval_sqrtY,
    require_hypothesis,
    validate_band_structure,
)
from .weyl import (
    PoleClassification,
    PoleTag,
    WeylContext,
    classify_poles,
    eval_G,
    eval_H,
    eval_green,
    eval_m,
    eval_psi_ode,
    eval_psi_product,
    psi_on_grid,
    structural_identity_check,
    wronskian_check,
)
from .kernel import (
    GridParams,
    KernelBoundReport,
    KernelGrid,
    PerturbationProfile,
    edge_amplitudes,
    eval_D,
    jost_direct,
    jost_from_kernel,
    jost_profile,
    kernel_bound_check,
    moment_check,
    residue_f_plus,
    schrodinger_residual,
    solve_kernel,
    tail_cutoff,
)
from .cli import (
    RunConfig,
    VerificationSummary,
    emit_plots,
    generate_fixture,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "BandStructure",
    "DirichletDivisor",
    "DivisorTrajectory",
    "GridParams",
    "HypothesisReport",
    "KernelBoundReport",
    "KernelGrid",
    "PerturbationProfile",
    "PoleClassification",
    "PoleTag",
    "PotentialSamples",
    "RecurrenceReport",
    "RunConfig",
    "Side",
    "SpectralPoint",
    "VerificationSummary",
    "WeylContext",
    "classify_poles",
    "edge_amplitudes",
    "emit_plots",
    "eval_D",
    "eval_G",
    "eval_H",
    "eval_Y",
    "eval_green",
    "eval_m",
    "eval_psi_ode",
    "eval_psi_product",
    "eval_sqrtY",
    "generate_fixture",
    "integrate_dubrovin",
    "jost_direct",
    "jost_from_kernel",
    "jost_profile",
    "kernel_bound_check",
    "moment_check",
    "psi_on_grid",
    "recurrence_diagnostic",
    "require_hypothesis",
    "residue_f_plus",
    "run_pipeline",
    "schrodinger_residual",
    "solve_kernel",
    "structural_identity_check",
    "tail_cutoff",
    "trace_potential",
    "trajectory_to_csv",
    "validate_band_structure",
    "wronskian_check",
    "__version__",
]

"""The package's declared interfaces: ``import levitan`` re-exports each
module's ``__all__`` with nothing listed twice, and README's config table
lists every config key path."""

import re
from pathlib import Path

import levitan
from levitan import cli, dubrovin, kernel, spectral, weyl

EXPORTS = {
    # spectral
    "Side", "SpectralPoint", "BandStructure", "HypothesisReport",
    "validate_band_structure", "require_hypothesis", "eval_Y", "eval_sqrtY",
    # dubrovin
    "DirichletDivisor", "DivisorTrajectory", "PotentialSamples",
    "RecurrenceReport", "integrate_dubrovin", "trace_potential",
    "recurrence_diagnostic", "trajectory_to_csv",
    # weyl
    "WeylContext", "PoleTag", "PoleClassification", "eval_G", "eval_H",
    "eval_m", "eval_psi_product", "eval_psi_ode", "eval_green",
    "wronskian_check", "classify_poles", "structural_identity_check",
    "psi_on_grid", "probe_csv",
    # kernel
    "PerturbationProfile", "GridParams", "KernelGrid", "KernelBoundReport",
    "edge_amplitudes", "residue_f_plus", "eval_D", "solve_kernel",
    "kernel_bound_check", "jost_from_kernel", "jost_direct", "jost_profile",
    "tail_cutoff", "schrodinger_residual", "moment_check",
    # cli
    "STAGES", "RunConfig", "VerificationSummary", "generate_fixture",
    "run_pipeline", "emit_plots", "main",
    "__version__",
}


def test_package_exports_every_module_list_once():
    assert len(EXPORTS) == 53
    assert len(levitan.__all__) == len(set(levitan.__all__))
    assert set(levitan.__all__) == EXPORTS
    for module in (spectral, dubrovin, weyl, kernel, cli):
        for name in module.__all__:
            assert getattr(levitan, name) is getattr(module, name), name
    assert levitan.__version__ == "0.1.0"


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Key path |", 1)[1].split("\n\n", 1)[0]
    paths = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.M)
    assert len(paths) == len(set(paths))
    # "band" and "divisor" have rows of their own: each may be a string
    assert set(paths) == set(cli._KEYS) | {"band", "divisor"}

"""The package's declared interfaces: ``import levitan`` re-exports each
module's ``__all__`` with nothing listed twice, every exported name has a
caller in the package or the benchmark, the Weyl and Jost layers take no
solver settings, and README's config table lists every config key path."""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import levitan
from levitan import cli, dubrovin, kernel, spectral, weyl

EXPORTS = {
    # spectral
    "Side", "SpectralPoint", "BandStructure", "HypothesisReport",
    "validate_band_structure", "require_hypothesis", "eval_Y", "eval_sqrtY",
    # dubrovin
    "DirichletDivisor", "DivisorTrajectory", "integrate_dubrovin",
    "trace_potential", "trajectory_to_csv",
    # weyl
    "WeylContext", "PoleTag", "PoleClassification", "eval_G", "eval_H",
    "eval_m", "eval_psi_product", "eval_psi_ode", "eval_green",
    "wronskian_check", "classify_poles", "structural_identity_check",
    "psi_on_grid", "probe_csv",
    # kernel
    "PerturbationProfile", "GridParams", "KernelGrid", "KernelBoundReport",
    "edge_amplitudes", "eval_D", "solve_kernel", "kernel_bound_check",
    "jost_from_kernel", "jost_direct", "jost_profile", "tail_cutoff",
    "moment_check",
    # cli
    "STAGES", "RunConfig", "VerificationSummary", "generate_fixture",
    "run_pipeline", "emit_plots", "main",
    "__version__",
}


def test_package_exports_every_module_list_once():
    assert len(EXPORTS) == 48
    assert len(levitan.__all__) == len(set(levitan.__all__))
    assert set(levitan.__all__) == EXPORTS
    for module in (spectral, dubrovin, weyl, kernel, cli):
        for name in module.__all__:
            assert getattr(levitan, name) is getattr(module, name), name
    assert levitan.__version__ == "0.1.0"


def _uses(tree: ast.Module, perfbench: bool) -> set:
    """The names a module uses outside ``__all__`` and outside the top-level
    definition of the same name: each Name, attribute and imported name, and
    in perfbench each function name of a span-table entry
    ``("levitan.<module>", "<name>", ...)``."""
    used = set()
    for top in tree.body:
        if isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in top.targets):
            continue
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif (perfbench and isinstance(node, ast.Tuple)
                  and len(node.elts) >= 2
                  and all(isinstance(e, ast.Constant)
                          and isinstance(e.value, str)
                          for e in node.elts[:2])
                  and node.elts[0].value.startswith("levitan.")):
                name = node.elts[1].value
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_export_has_a_caller_outside_the_tests():
    # nothing in the package only the tests use: a test-only reference
    # belongs in tests/conftest.py
    root = Path(__file__).resolve().parents[1]
    used = set()
    for folder in ("src/levitan", "perfbench"):
        for path in sorted((root / folder).glob("*.py")):
            used |= _uses(ast.parse(path.read_text()), folder == "perfbench")
    exported = [name for module in (spectral, dubrovin, weyl, kernel, cli)
                for name in module.__all__]
    assert [name for name in exported if name not in used] == []


def test_solver_settings_are_not_options():
    # the tolerances, steps and gap margin of the Weyl and Jost layers are
    # module constants: a context is its band and trajectory, and no caller
    # passes a solver setting
    assert [f.name for f in dataclasses.fields(weyl.WeylContext)] == \
        ["band", "trajectory"]
    assert list(inspect.signature(kernel.jost_direct).parameters) == \
        ["ctx", "perturbation", "p", "x", "sign", "diagnostics"]
    assert list(inspect.signature(
        weyl.structural_identity_check).parameters) == ["ctx", "p", "x"]
    assert not hasattr(spectral.BandStructure, "branch_sign")


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Key path |", 1)[1].split("\n\n", 1)[0]
    paths = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.M)
    assert len(paths) == len(set(paths))
    # "band" and "divisor" have rows of their own: each may be a string
    assert set(paths) == set(cli._KEYS) | {"band", "divisor"}


def test_import_leaves_scipy_integrate_unloaded():
    # the package's one scipy name is dubrovin's CubicHermiteSpline; the
    # kernel layer needs numpy alone, so scipy.integrate is never loaded
    src = Path(levitan.__file__).resolve().parents[1]
    names = {alias.name
             for path in sorted((src / "levitan").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("scipy")
             for alias in node.names}
    assert names == {"CubicHermiteSpline"}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, levitan; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

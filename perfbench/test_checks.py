"""The benchmark's own tests: every check passes the program's real output
and rejects a deliberately perturbed copy of it; each workload runs a short
round cleanly; the traced run reports every per-layer metric.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402
from levitan import cli, dubrovin, kernel, spectral, weyl  # noqa: E402


def rejects(fn, *args, **kwargs):
    with pytest.raises(CheckFailure):
        fn(*args, **kwargs)


@pytest.fixture(scope="module")
def one_gap():
    cfg = cli.generate_fixture("one_gap")
    band = spectral.BandStructure(cfg.edges)
    traj = dubrovin.integrate_dubrovin(band, dubrovin.DirichletDivisor(
        cfg.divisor), -2.0, 10.5, cfg.flow_step, tol=cfg.flow_tol)
    ctx = weyl.WeylContext(band, traj)
    pert = kernel.PerturbationProfile.gaussian_bump(0.2, 0.0, 0.6)
    grid = kernel.solve_kernel(ctx, pert, "+", kernel.GridParams(cfg.x0, 0.05))
    return cfg, ctx, pert, grid


@pytest.fixture(scope="module")
def free_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("free")
    cfg = replace(cli.generate_fixture("free"), out_dir=str(out / "run"))
    cli.run_pipeline(cfg)
    cli.emit_plots(cfg.out_dir)
    return Path(cfg.out_dir)


def test_one_gap_divisor(one_gap):
    cfg, ctx, _, _ = one_gap
    x = ctx.trajectory.x_grid
    mu = ctx.trajectory.mu_grid[:, 0]
    (mu0, sigma0), = cfg.divisor
    assert checks.one_gap_divisor(x, mu, cfg.edges, mu0, sigma0) < 1e-12
    rejects(checks.one_gap_divisor, x, mu + 1e-8, cfg.edges, mu0, sigma0)
    rejects(checks.one_gap_divisor, x, mu, cfg.edges, mu0, -sigma0)


def test_kernel_diagonal_and_order(one_gap):
    _, _, _, grid = one_gap
    m = grid.half_width
    x, diag = grid.positions[:m + 1], grid.values[np.arange(m + 1), 0]
    err = checks.kernel_diagonal(x, diag, 0.2, 0.0, 0.6, grid.h, 0.2)
    budget = grid.h ** 2
    rejects(checks.kernel_diagonal, x, diag + 2 * budget, 0.2, 0.0, 0.6,
            grid.h, 0.2)
    assert checks.diagonal_order([16 * err, 4 * err, err]) == [4.0, 4.0]
    rejects(checks.diagonal_order, [4 * err, 2 * err, err])


def test_free_closed_forms(free_run):
    z, x = complex(0.5, 0.8), 0.7
    k = complex(np.sqrt(z))
    for sign in (1, -1):
        psi = np.exp(1j * sign * k * x)
        checks.free_psi(z, x, sign, psi)
        rejects(checks.free_psi, z, x, sign, psi * (1 + 1e-9))
        checks.free_m(z, sign, 1j * sign * k)
        rejects(checks.free_m, z, sign, -1j * sign * k)
    g = -1.0 / (2j * k)
    checks.free_green(z, g)
    rejects(checks.free_green, z, g * (1 + 1e-9))
    assert checks.free_probe_csv(free_run / "weyl_probes.csv") > 0


def test_free_probe_csv_rejects_edit(free_run, tmp_path):
    src = (free_run / "weyl_probes.csv").read_text().splitlines()
    cells = src[1].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-8))
    bad = tmp_path / "weyl_probes.csv"
    bad.write_text("\n".join([src[0], ",".join(cells)] + src[2:]) + "\n")
    rejects(checks.free_probe_csv, bad)


def test_routes_riccati_green(one_gap):
    _, ctx, _, _ = one_gap
    pt, x, sign = spectral.SpectralPoint(complex(1.3, 0.4)), 0.8, -1
    prod = weyl.eval_psi_product(ctx, pt, x, sign)
    ode = weyl.eval_psi_ode(ctx, pt, x, sign)
    checks.routes_agree(prod, ode)
    rejects(checks.routes_agree, prod * (1 + 1e-5), ode)

    d = 1e-3
    p = workloads.trace_formula_p(ctx.band.edges, ctx.trajectory.mu_at(x))
    m_lo, m, m_hi = (weyl.eval_m(ctx, pt, t, sign) for t in (x - d, x, x + d))
    checks.riccati(m_lo, m, m_hi, d, p, pt.z)
    rejects(checks.riccati, m_lo, m * (1 + 1e-3), m_hi, d, p, pt.z)
    rejects(checks.riccati, m_lo, m, m_hi, d, p + 1e-2, pt.z)

    g = weyl.eval_green(ctx, pt)
    checks.green_sign(g, on_rim=False)
    rejects(checks.green_sign, g.conjugate(), on_rim=False)
    rim = weyl.eval_green(ctx, spectral.SpectralPoint.upper(2.5))
    checks.green_sign(rim, on_rim=True)
    rejects(checks.green_sign, -rim, on_rim=True)
    rejects(checks.green_sign, rim + 1e-3 * abs(rim), on_rim=True)


def test_d_values(one_gap):
    _, ctx, _, _ = one_gap
    rng = np.random.default_rng(3)
    diag = [kernel.eval_D(ctx, x, y, y, x)
            for x, y in rng.uniform(-1.5, 4.0, (10, 2))]
    sym = [(kernel.eval_D(ctx, x, y, r, s), kernel.eval_D(ctx, y, x, s, r))
           for x, y, r, s in rng.uniform(-1.5, 4.0, (5, 4))]
    checks.d_diagonal(diag)
    rejects(checks.d_diagonal, np.array(diag) + 1e-7)
    checks.d_symmetry(sym)
    bad = np.array(sym)
    bad[2, 1] += 1e-9
    rejects(checks.d_symmetry, bad)


def test_kernel_bound_and_jost(one_gap):
    _, ctx, pert, grid = one_gap
    report = kernel.kernel_bound_check(ctx, grid, pert)
    checks.kernel_bound(len(report.violations), report.c_of_x_monotone)
    rejects(checks.kernel_bound, 1, True)
    rejects(checks.kernel_bound, 0, False)
    pt, x = spectral.SpectralPoint(complex(-1.0)), float(grid.positions[10])
    via = kernel.jost_from_kernel(ctx, grid, pt, x, "+")
    direct = kernel.jost_direct(ctx, pert, pt, x, "+")
    checks.jost_agree(via, direct)
    rejects(checks.jost_agree, via * 1.01, direct)


def test_pipeline_artifacts(free_run, tmp_path):
    doc = checks.load_json(free_run / "summary.json")
    returned = json.loads(json.dumps(doc["checks"]))
    checks.summary_rows(doc, returned)
    returned[sorted(returned)[-1]]["value"] += 1e-9
    rejects(checks.summary_rows, doc, returned)
    name = sorted(doc["checks"])[0]
    doc["checks"][name]["pass"] = False
    rejects(checks.summary_rows, doc, doc["checks"])

    copy = tmp_path / "copy"
    shutil.copytree(free_run, copy)
    first = checks.tree_digest(free_run)
    checks.same_bytes(checks.tree_digest(copy), first)
    with open(copy / "kernel.csv", "a") as fh:
        fh.write(" ")
    rejects(checks.same_bytes, checks.tree_digest(copy), first)

    x, diag = checks.kernel_csv_diagonal(free_run / "kernel.csv")
    checks.kernel_diagonal(x, diag, 0.0, 0.0, 1.0, 0.05, 0.0)
    rejects(checks.kernel_diagonal, x, diag + 0.01, 0.0, 0.0, 1.0, 0.05, 0.0)


def test_pipeline_check_rejects_changed_repeat(tmp_path):
    work = workloads.Pipeline(0, tmp_path)
    (label, call, check), = [op for op in work.round() if op[0] == "free"]
    check(call())
    summary = call()
    kernel_csv = Path(work.configs[0][1].out_dir) / "kernel.csv"
    kernel_csv.write_text(kernel_csv.read_text().replace("\n", "\r\n", 1))
    rejects(check, summary)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _declared(section: str) -> set:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_is_clean(workload):
    span_file = ROOT / "perfbench-out" / workload / "seed7-spans.jsonl"
    span_file.unlink(missing_ok=True)
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0
    assert set(doc["metrics"]) == _declared("end_to_end")
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert not span_file.exists()


def test_traced_run_reports_every_layer_metric():
    proc = _run(["--workload", "weyl_sweep", "--seed", "7", "--seconds", "1",
                 "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True
    assert set(doc["metrics"]) == _declared("per_layer")
    assert doc["metrics"]["weyl.psi_product_ms"]["value"] > 0
    assert (ROOT / "perfbench-out" / "weyl_sweep" / "seed7-spans.jsonl").exists()
    assert "tracing_overhead" in proc.stdout


def test_per_layer_metrics_take_only_timed_calls():
    tr = spans.Tracer()
    with tr.span("dubrovin.integrate"):            # set-up flow
        pass
    with tr.span("weyl.eval_m"):                   # set-up warm-up
        pass
    tr.end_setup()
    for op, kind in ((1, "a"), (2, "a"), (3, "b")):
        with tr.operation(op, "op.test", kind):
            tr.claim_profile()                     # profiles ops 1 and 3
            with tr.span("weyl.eval_m"):
                pass
            for _ in range(3):
                with tr.span("kernel.edge_amplitudes"):
                    pass
        with tr.span("weyl.eval_m"):               # a check's own call
            pass
    tr.spans[9][2] = tr.spans[9][1] + 0.002        # op 2's eval_m: 2 ms
    for i in (10, 11, 12):                         # op 2's edge amplitudes
        tr.spans[i][2] = tr.spans[i][1] + 0.001
    values = tr.metrics({1: 1.0, 2: 1.0, 3: 1.0}, 1.0)
    assert tr.profiled_ops == {1, 3}
    assert values["weyl.eval_m_ms"]["value"] == pytest.approx(2.0)
    assert values["kernel.edge_amplitudes_per_op_ms"]["value"] == \
        pytest.approx(3.0)
    assert values["dubrovin.integrate_ms"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "pipeline", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

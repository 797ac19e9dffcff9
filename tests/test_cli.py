"""Pipeline driver: fixture generation, staged runs and their artifacts,
verification summaries, exit codes, plot scripts, and byte determinism."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

import levitan
from levitan import (
    RunConfig,
    VerificationSummary,
    emit_plots,
    generate_fixture,
    require_hypothesis,
    run_pipeline,
    validate_band_structure,
)
from levitan.cli import _STAGE_FNS, STAGES, main
from levitan.errors import MissingArtifact, QuadratureFailure, TooCloseToGap

ARTIFACTS = ("band.json", "trajectory.csv", "potential.csv",
             "weyl_probes.csv", "kernel.csv", "kernel_meta.json",
             "jost.csv", "summary.json")


@pytest.fixture(scope="module")
def one_gap_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("one-gap-run")
    cfg = replace(generate_fixture("one_gap"), out_dir=str(out))
    summary = run_pipeline(cfg)
    return cfg, out, summary


# ---------------------------------------------------------------------------
# fixtures and configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,kwargs", [
    ("free", {}),
    ("one_gap", {}),
    ("periodic_like", {"n": 4}),
    ("random", {"n": 3, "seed": 7}),
])
def test_fixture_bands_pass_validator(kind, kwargs):
    cfg = generate_fixture(kind, **kwargs)
    require_hypothesis(validate_band_structure(
        cfg.edges, cfg.hyp_l, cfg.hyp_C, cfg.hyp_alpha))


def test_fixture_gap_count_capped():
    with pytest.raises(ValueError):
        generate_fixture("periodic_like", n=11)
    with pytest.raises(ValueError):
        generate_fixture("random", n=-1)
    with pytest.raises(ValueError):
        generate_fixture("no_such_kind")


def test_free_fixture_shape():
    cfg = generate_fixture("free")
    assert cfg.edges == (0.0,)
    assert cfg.divisor == ()
    assert cfg.perturbation["form"] == "zero"


def test_periodic_like_edge_values():
    cfg = generate_fixture("periodic_like", n=3)
    assert cfg.edges[0] == 0.0
    for j in range(1, 4):
        assert cfg.edges[2 * j - 1] == pytest.approx(j * j - 0.1 / j ** 2)
        assert cfg.edges[2 * j] == pytest.approx(j * j + 0.1 / j ** 2)


@pytest.mark.parametrize("kind,kwargs", [
    ("free", {}),
    ("one_gap", {}),
    ("periodic_like", {"n": 2}),
    ("random", {"n": 2, "seed": 3}),
    ("random", {"n": 10, "seed": 0}),
    ("every_key", {}),
])
def test_config_json_roundtrip(kind, kwargs):
    if kind == "every_key":
        cfg = RunConfig(
            edges=(0.0, 1.0, 2.0), hyp_l=3.0, hyp_C=2.0, hyp_alpha=0.5,
            divisor=((1.25, -1),),
            perturbation={"form": "compact_poly", "coeffs": [-1.0, 0.0, 1.0],
                          "support": [-1.0, 1.0]},
            h=0.025, x0=-2.0, x_max=1.5, tol=1e-10, max_iter=20,
            flow_step=0.02, flow_tol=1e-10,
            z_probes=((0.5, 0.0, "upper"), (2.5, 0.0, "lower"),
                      (1.5, 0.9, "off_axis")),
            x_probes=(0.25,), out_dir="elsewhere", seed=5)
        for f in fields(RunConfig):
            if f.default is not MISSING:
                assert getattr(cfg, f.name) != f.default, f.name
            elif f.default_factory is not MISSING:
                assert getattr(cfg, f.name) != f.default_factory(), f.name
    else:
        cfg = generate_fixture(kind, **kwargs)
    doc = json.loads(json.dumps(cfg.to_json_dict()))
    assert RunConfig.from_json_dict(doc) == cfg


@pytest.mark.parametrize("edit,key", [
    (lambda d: d.update(perturbaton={"form": "zero"}), "'perturbaton'"),
    (lambda d: d["grid"].update(hh=0.01), "'grid.hh'"),
    (lambda d: d["band"].update(alfa=1.0), "'band.alfa'"),
    (lambda d: d["flow"].update(tol_=1e-9), "'flow.tol_'"),
    (lambda d: d["probes"].update(xs=[0.0]), "'probes.xs'"),
    (lambda d: d["probes"]["z"][1].update(sid="upper"), "'probes.z[1].sid'"),
    (lambda d: d["perturbation"].update(widht=0.6), "'perturbation.widht'"),
    (lambda d: d["perturbation"].update(amplitud=d["perturbation"].pop(
        "amplitude")), "'perturbation.amplitud'"),
    (lambda d: d["perturbation"].pop("center"), "'perturbation.center'"),
    (lambda d: d["perturbation"].update(form="bogus"), "'perturbation.form'"),
    (lambda d: d.update(grid=5), "'grid'"),
    (lambda d: d.update(probes=[0.0]), "'probes'"),
    (lambda d: d.update(divisor={"entries": [[1.5]]}), "'divisor.entries[0]'"),
    (lambda d: d.update(divisor={"entries": [[1.5, 1], [4.0, -1.5]]}),
     "'divisor.entries[1]'"),
    (lambda d: d.update(divisor=[[1.5, 1]]), "'divisor'"),
    (lambda d: d["perturbation"].update(amplitude="abc"),
     "'perturbation.amplitude'"),
    (lambda d: d.update(perturbation={"form": "compact_poly", "coeffs": [1.0],
                                      "support": [-1.0]}),
     "'perturbation.support'"),
    (lambda d: d.update(perturbation={"form": "table", "xs": [0.0, "1"],
                                      "vals": [0.0, 0.0]}),
     "'perturbation.xs'"),
    (lambda d: d["grid"].update(h="0.05"), "'grid.h'"),
    (lambda d: d["probes"]["z"][0].update(re=None), "'probes.z[0].re'"),
    pytest.param(lambda d: d["grid"].update(h=math.nan), "'grid.h'",
                 id="grid.h-nan"),
    pytest.param(lambda d: d["grid"].update(h=0.0), "'grid.h'",
                 id="grid.h-zero"),
    pytest.param(lambda d: d["flow"].update(step=math.inf), "'flow.step'",
                 id="flow.step-inf"),
    pytest.param(lambda d: d["flow"].update(step=-0.01), "'flow.step'",
                 id="flow.step-negative"),
    (lambda d: d["band"].update(edges=[0.0, 1.0, -math.inf]), "'band.edges'"),
    (lambda d: d["perturbation"].update(width=math.nan),
     "'perturbation.width'"),
    (lambda d: d["probes"]["z"][1].update(side="uppr"), "'probes.z[1].side'"),
    (lambda d: d["probes"]["z"][1].update(im=0.5), "'probes.z[1].im'"),
    pytest.param(lambda d: d["grid"].update(tol=0.0, max_iter=-1),
                 "'grid.tol'", id="grid.tol-zero-max_iter-negative"),
    pytest.param(lambda d: d["grid"].update(tol=-1.0), "'grid.tol'",
                 id="grid.tol-negative"),
    pytest.param(lambda d: d["flow"].update(tol=-1.0), "'flow.tol'",
                 id="flow.tol-negative"),
    pytest.param(lambda d: d["grid"].update(max_iter=0), "'grid.max_iter'",
                 id="grid.max_iter-zero"),
    pytest.param(lambda d: d["grid"].update(x_max=-3.0),
                 "config key 'grid.x_max' must exceed grid.x0",
                 id="grid.x_max-left-of-x0"),
    pytest.param(lambda d: d["grid"].update(x_max=d["grid"]["x0"]),
                 "config key 'grid.x_max' must exceed grid.x0",
                 id="grid.x_max-at-x0"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, edit, key):
    doc = generate_fixture("one_gap").to_json_dict()
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(key)):
        RunConfig.from_json_dict(doc)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--out", str(tmp_path / "run")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_dotted_top_level_key_is_unknown():
    # key paths are spelled with dots, but a config nests them in sections
    doc = generate_fixture("one_gap").to_json_dict()
    doc["grid.h"] = doc["grid"].pop("h")
    with pytest.raises(ValueError, match=re.escape("unknown config key "
                                                   "'grid.h'")):
        RunConfig.from_json_dict(doc)


def test_absent_keys_take_field_defaults():
    assert RunConfig.from_json_dict({"band": {"edges": [0.0]}}) == \
        RunConfig(edges=(0.0,))


# sha256 of `levitan fixture <kind>` with the default -n and --seed
FIXTURE_SHA256 = {
    "free": "79e9444a6e0e954c9c3b180b41ef4f3bd13250ec2bcec074d2f714c428daf00f",
    "one_gap": "b9799c8bb174375a8031c654ec9abff4229297bb5a5fe4d53486a8ce05ab522d",
    "periodic_like":
        "07dd2753516356f2a8a437ffeae28f6a057b683063844e63eb1a8f28c65ae792",
    "random": "10dd7f7324490e5caf79390bba82e0c520bebeb573edd446fbab6b14b376e5e9",
}


@pytest.mark.parametrize("kind", sorted(FIXTURE_SHA256))
def test_fixture_output_pinned(kind, tmp_path, capsys):
    assert main(["fixture", kind]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_SHA256[kind]
    assert main(["fixture", kind, "--out", str(tmp_path / "c.json")]) == 0
    assert (tmp_path / "c.json").read_text() == text


def test_band_file_reference(tmp_path):
    doc = {"edges": [0.0, 1.0, 2.0], "l": 2.0, "C": 1.0, "alpha": 1.0}
    (tmp_path / "band.json").write_text(json.dumps(doc))
    cfg_doc = {"band": "band.json", "divisor": {"entries": [[1.5, 1]]},
               "out_dir": str(tmp_path / "out")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg_doc))
    cfg = RunConfig.from_file(path)
    assert cfg.edges == (0.0, 1.0, 2.0)
    assert cfg.divisor == ((1.5, 1),)


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------

def test_free_pipeline_all_checks_pass(tmp_path):
    cfg = replace(generate_fixture("free"), out_dir=str(tmp_path / "run"))
    summary = run_pipeline(cfg)
    assert summary.passed
    # zero perturbation: the kernel row shows K identically zero
    assert summary.checks["kernel_max_abs"]["value"] == 0.0
    for name in ARTIFACTS:
        assert (tmp_path / "run" / name).exists()


SUMMARY_ROWS = {
    "hypothesis_moment", "wronskian", "weyl_routes", "green_sign",
    "kernel_bound", "kernel_bound_monotone", "kernel_diagonal",
    "kernel_max_abs", "oracle_equivalence", "D_diagonal",
    "structural_identity", "reversibility", "moment"}


def test_one_gap_summary_rows(one_gap_run):
    _, _, summary = one_gap_run
    assert summary.passed
    assert set(summary.checks) == SUMMARY_ROWS
    for name, row in summary.checks.items():
        assert row["pass"], name


def _spoil_second_entry(orig):
    def spoiled(*args, **kwargs):
        out = np.array(orig(*args, **kwargs))
        out[1] = np.nan
        return out
    return spoiled


def _spoil_later_calls(orig):
    calls = itertools.count()
    return lambda *args, **kwargs: (orig(*args, **kwargs) if next(calls) == 0
                                    else math.nan)


def _spoil_second_probe(orig):
    def spoiled(*args, **kwargs):
        out = orig(*args, **kwargs)
        _, g, psi = out[1]
        out[1] = (math.nan, g, psi)
        return out
    return spoiled


@pytest.mark.parametrize("name,spoil,row", [
    ("jost_direct", _spoil_second_entry, "oracle_equivalence"),
    ("eval_D", _spoil_second_entry, "D_diagonal"),
    ("structural_identity_check", _spoil_later_calls, "structural_identity"),
    ("wronskian_check", _spoil_second_probe, "wronskian"),
], ids=["oracle_equivalence", "D_diagonal", "structural_identity",
        "wronskian"])
def test_nan_sample_fails_its_row(tmp_path, monkeypatch, name, spoil, row):
    # a NaN after the first sample of a row is its value, so the row and
    # the run fail; a running max(worst, sample) would drop it
    import levitan.cli as cli
    monkeypatch.setattr(cli, name, spoil(getattr(cli, name)))
    cfg = replace(generate_fixture("free"), out_dir=str(tmp_path / "run"))
    summary = run_pipeline(cfg)
    assert math.isnan(summary.checks[row]["value"])
    assert not summary.checks[row]["pass"]
    assert not summary.passed


def test_summary_json_on_disk(one_gap_run):
    _, out, summary = one_gap_run
    doc = json.loads((out / "summary.json").read_text())
    assert doc["pass"] is True
    assert set(doc["checks"]) == set(summary.checks)
    for row in doc["checks"].values():
        assert set(row) == {"value", "bound", "pass"}


def test_pipeline_byte_determinism(one_gap_run, tmp_path):
    cfg, out, _ = one_gap_run
    rerun = replace(cfg, out_dir=str(tmp_path / "rerun"))
    assert run_pipeline(rerun).passed
    for name in ARTIFACTS:
        assert (tmp_path / "rerun" / name).read_bytes() == \
            (out / name).read_bytes(), name


def test_potential_and_jost_csv_match_per_value_writers(tmp_path):
    # both writers format whole arrays at once; the per-value writers below
    # put every float through f17, one value at a time
    from levitan._numerics import f17
    from levitan.dubrovin import trace_potential
    from levitan.kernel import jost_profile
    cfg = replace(generate_fixture("one_gap"), out_dir=str(tmp_path))
    st = {}
    for stage in ("validate", "flow", "potential", "weyl", "kernel", "jost"):
        _STAGE_FNS[stage](cfg, st, {}, tmp_path)
    assert len(st["zpts"]) > 1

    p = trace_potential(st["band"], st["traj"])
    lines = ["x,p\n"] + ["%s,%s\n" % (f17(x), f17(v))
                         for x, v in zip(st["traj"].x_grid, p)]
    assert (tmp_path / "potential.csv").read_text() == "".join(lines)

    lines = ["re_z,im_z,side,x,re_phi,im_phi,abs_phi\n"]
    for i, pt in enumerate(st["zpts"]):
        if i:
            lines.append("\n\n")
        xs, vals = jost_profile(st["ctx"], st["grid"], pt)
        lines += [",".join([f17(pt.z.real), f17(pt.z.imag), pt.side.value,
                            f17(x), f17(v.real), f17(v.imag), f17(abs(v))])
                  + "\n" for x, v in zip(xs, vals)]
    assert (tmp_path / "jost.csv").read_text() == "".join(lines)


def _count_calls(monkeypatch, counts, owner, attr):
    """Count the calls of ``owner.attr`` (a function of a module, or a
    method of a class) in ``counts[attr]``, patched on ``owner`` and in
    every levitan module that holds the name, as its callers see it."""
    orig = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[attr] += 1
        return orig(*args, **kwargs)
    monkeypatch.setattr(owner, attr, counted)
    for mod in [m for n, m in sys.modules.items() if n.startswith("levitan")]:
        if getattr(mod, attr, None) is orig:
            monkeypatch.setattr(mod, attr, counted)
    counts[attr] = 0


def _per_stage_counts(monkeypatch, counts, stages):
    """{stage: counts over that stage alone} once the pipeline has run."""
    per_stage = {}
    for stage in stages:
        def staged(cfg, st, checks, out, _fn=_STAGE_FNS[stage], _stage=stage):
            counts.update(dict.fromkeys(counts, 0))
            _fn(cfg, st, checks, out)
            per_stage[_stage] = dict(counts)
        monkeypatch.setitem(_STAGE_FNS, stage, staged)
    return per_stage


def test_each_stage_computes_each_psi_once(tmp_path, monkeypatch):
    # the weyl stage makes one Magnus ladder and one flow-integral pass,
    # probe_csv's, for all its z probes; the jost stage reads phi via the
    # kernel off the profiles it writes, so its passes are one for all the
    # profiles and one per jost_direct call (one per z probe, for both
    # lattice points, on the first two probes)
    from levitan import kernel, weyl
    counts = {}
    for module, attr in ((weyl, "_ode_cs"), (weyl, "_flow_exponent"),
                         (kernel, "jost_from_kernel"),
                         (kernel, "jost_profile")):
        _count_calls(monkeypatch, counts, module, attr)
    per_stage = _per_stage_counts(monkeypatch, counts, ("weyl", "jost"))
    cfg = replace(generate_fixture("periodic_like", n=4),
                  out_dir=str(tmp_path))
    assert run_pipeline(cfg).passed
    nz = len(cfg.z_probes)
    assert nz == 3
    assert per_stage["weyl"] == {"_ode_cs": 1, "_flow_exponent": 1,
                                 "jost_from_kernel": 0, "jost_profile": 0}
    assert per_stage["jost"] == {"_ode_cs": 0, "_flow_exponent": 1 + 2,
                                 "jost_from_kernel": 0, "jost_profile": 1}


def test_trace_formula_runs_once_per_run(tmp_path, monkeypatch):
    # the flow stage evaluates p on the grid once, and potential.csv
    # repeats the x and p text of trajectory.csv
    from levitan import dubrovin
    counts = {}
    _count_calls(monkeypatch, counts, dubrovin, "trace_potential")
    cfg = replace(generate_fixture("periodic_like", n=4),
                  out_dir=str(tmp_path))
    assert run_pipeline(cfg).passed
    assert counts["trace_potential"] == 1
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert (tmp_path / "potential.csv").read_text().splitlines()[1:] == [
        row[:row.index(",")] + row[row.rindex(","):] for row in rows]


def test_probe_within_eps_gap_is_named(tmp_path):
    # the second of three z probes is within eps_gap of the gap [1, 2]: the
    # weyl stage raises what that probe's own product-route call raises,
    # after writing the first probe's rows, as probe by probe
    from levitan import SpectralPoint, WeylContext, eval_psi_product
    cfg = generate_fixture("one_gap")
    near = (2.0, 5e-4, "off_axis")   # eps_gap = 1e-3 of the gap width 1
    cfg = replace(cfg, out_dir=str(tmp_path / "run"),
                  z_probes=(cfg.z_probes[0], near, cfg.z_probes[1]))
    st = {}
    for stage in ("validate", "flow"):
        _STAGE_FNS[stage](cfg, st, {}, tmp_path)
    with pytest.raises(TooCloseToGap) as alone:
        eval_psi_product(WeylContext(st["band"], st["traj"]),
                         SpectralPoint(complex(2.0, 5e-4)), 0.7, +1)
    assert "z = (2+0.0005j)" in str(alone.value)
    with pytest.raises(TooCloseToGap) as exc:
        run_pipeline(cfg)
    assert str(exc.value) == str(alone.value)
    run = tmp_path / "run"
    err = json.loads((run / "error.json").read_text())
    assert err == {"error": {"stage": "weyl", "type": "TooCloseToGap",
                             "message": str(alone.value)}}
    rows = (run / "weyl_probes.csv").read_text().splitlines()[1:]
    assert len(rows) == len(cfg.x_probes)
    assert all(row.startswith("-1,0,off_axis,") for row in rows)


def test_reversed_z_probes_permute_the_probe_blocks(tmp_path):
    # the probes share only z-independent reads, so reversing probes.z
    # reverses the per-probe blocks of weyl_probes.csv and jost.csv and
    # changes no byte inside a block
    cfg = generate_fixture("periodic_like", n=4)
    runs = {}
    for name, zs in (("fwd", cfg.z_probes), ("rev", cfg.z_probes[::-1])):
        out = tmp_path / name
        assert run_pipeline(replace(cfg, out_dir=str(out),
                                    z_probes=zs)).passed
        probes = (out / "weyl_probes.csv").read_text().splitlines(True)
        n = len(cfg.x_probes)
        jost = (out / "jost.csv").read_text().split("\n", 1)[1]
        runs[name] = (["".join(probes[i:i + n])
                       for i in range(1, len(probes), n)],
                      [block.strip("\n") for block in jost.split("\n\n\n")])
    for fwd, rev in zip(runs["fwd"], runs["rev"]):
        assert len(fwd) == len(cfg.z_probes) == len(set(fwd))
        assert fwd == rev[::-1]


def test_verify_stage_checks_in_batches(tmp_path, monkeypatch):
    # one amplitude evaluation for the D_diagonal row's batch, one angle
    # read per structural-identity stencil, and no trajectory for the
    # reversibility row, which reads only the back flow's end angles
    from levitan import dubrovin, kernel, weyl
    counts = {}
    _count_calls(monkeypatch, counts, kernel, "_amplitudes")
    _count_calls(monkeypatch, counts, dubrovin, "integrate_dubrovin")
    _count_calls(monkeypatch, counts, dubrovin.DivisorTrajectory, "theta_at")
    stencils = []
    check = weyl.structural_identity_check

    def per_check(*args):
        before = counts["theta_at"]
        resid = check(*args)
        stencils.append(counts["theta_at"] - before)
        return resid
    monkeypatch.setattr(sys.modules["levitan.cli"],
                        "structural_identity_check", per_check)
    per_stage = _per_stage_counts(monkeypatch, counts, ("verify",))
    cfg = replace(generate_fixture("periodic_like", n=4),
                  out_dir=str(tmp_path))
    assert run_pipeline(cfg).passed
    assert per_stage["verify"]["_amplitudes"] == 1
    assert per_stage["verify"]["integrate_dubrovin"] == 0
    assert stencils == [1] * 8


def test_random_divisor_draw_is_seeded(tmp_path):
    base = RunConfig(edges=(0.0, 1.0, 2.0), divisor=None,
                     x_probes=(0.0,), seed=3)
    texts = []
    for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
        cfg = replace(base, out_dir=str(tmp_path / tag), seed=seed)
        run_pipeline(cfg, upto="flow")
        texts.append((tmp_path / tag / "trajectory.csv").read_bytes())
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_premature_truncation_fails_verification(tmp_path):
    cfg = replace(generate_fixture("one_gap"), x_max=0.4,
                  out_dir=str(tmp_path / "run"))
    path = tmp_path / "cfg.json"
    cfg.write(path)
    rc = main(["all", str(path)])
    assert rc == 1
    doc = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert doc["pass"] is False
    assert not doc["checks"]["oracle_equivalence"]["pass"]
    # a failed verification is not a stage error
    assert not (tmp_path / "run" / "error.json").exists()
    # plots are still emitted for inspection
    assert (tmp_path / "run" / "plots.gp").exists()


# ---------------------------------------------------------------------------
# stage errors
# ---------------------------------------------------------------------------

def test_corrupt_edges_writes_error_json(tmp_path, capsys):
    doc = {"band": {"edges": [0.0, 2.0, 1.0], "l": 2.0, "C": 1.0,
                    "alpha": 1.0},
           "divisor": {"entries": [[1.5, 1]]},
           "out_dir": str(tmp_path / "run")}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["validate", str(path)])
    assert rc == 2
    err = json.loads((tmp_path / "run" / "error.json").read_text())["error"]
    assert err["stage"] == "validate"
    assert err["type"] == "NonMonotonic"
    assert "NonMonotonic" in capsys.readouterr().err


def test_unknown_perturbation_form_is_a_validate_error(tmp_path):
    # the validate stage holds a Python config to the load rules, so the
    # form is refused there, before the flow stage builds the perturbation
    cfg = replace(generate_fixture("free"),
                  perturbation={"form": "bogus"},
                  out_dir=str(tmp_path / "run"))
    with pytest.raises(ValueError, match="'perturbation.form'"):
        run_pipeline(cfg)
    err = json.loads((tmp_path / "run" / "error.json").read_text())["error"]
    assert err["stage"] == "validate"
    assert err["type"] == "ValueError"


def test_flow_failure_writes_error_json(tmp_path, monkeypatch, capsys):
    # an Omega with a jump: no Chebyshev panel can resolve it
    monkeypatch.setattr("levitan.dubrovin._omega",
                        lambda band, theta: 1.0 + (theta > 2.0))
    cfg = replace(generate_fixture("one_gap"), out_dir=str(tmp_path / "run"))
    path = tmp_path / "cfg.json"
    cfg.write(path)
    assert main(["all", str(path)]) == 2
    err = json.loads((tmp_path / "run" / "error.json").read_text())["error"]
    assert err["stage"] == "flow"
    assert err["type"] == "QuadratureFailure"
    assert "QuadratureFailure" in capsys.readouterr().err


def test_ode_failure_writes_error_json(tmp_path, monkeypatch):
    # a NaN potential makes the first Magnus pass non-finite: the solve
    # stops there instead of refining up to the step cap
    calls = []

    def nan_potential(ctx, x):
        calls.append(np.size(x))
        return np.full(np.shape(x), np.nan)

    monkeypatch.setattr("levitan.weyl.WeylContext.p_of", nan_potential)
    cfg = replace(generate_fixture("one_gap"), out_dir=str(tmp_path / "run"))
    with pytest.raises(QuadratureFailure, match="non-finite"):
        run_pipeline(cfg)
    assert len(calls) == 1
    err = json.loads((tmp_path / "run" / "error.json").read_text())["error"]
    assert err["stage"] == "weyl"
    assert err["type"] == "QuadratureFailure"


def test_python_config_missing_perturbation_key_writes_error_json(tmp_path):
    # a RunConfig built in Python skips the loader; the validate stage makes
    # the loader's checks, so the failure is a stage error
    cfg = replace(generate_fixture("one_gap"), out_dir=str(tmp_path / "run"),
                  perturbation={"form": "gaussian_bump", "amplitude": 0.2,
                                "center": 0.0})
    with pytest.raises(ValueError, match="'perturbation.width'"):
        run_pipeline(cfg)
    err = json.loads((tmp_path / "run" / "error.json").read_text())["error"]
    assert err["stage"] == "validate"
    assert err["type"] == "ValueError"


def test_arithmetic_stage_error_exits_2(tmp_path, monkeypatch, capsys):
    def overflow(cfg, st, checks, out):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setitem(_STAGE_FNS, "potential", overflow)
    cfg = replace(generate_fixture("one_gap"), out_dir=str(tmp_path / "run"))
    path = tmp_path / "cfg.json"
    cfg.write(path)
    assert main(["all", str(path)]) == 2
    err = json.loads((tmp_path / "run" / "error.json").read_text())["error"]
    assert (err["stage"], err["type"]) == ("potential", "OverflowError")
    assert "OverflowError" in capsys.readouterr().err


@pytest.mark.parametrize("category", [RuntimeWarning, IntegrationWarning],
                         ids=["RuntimeWarning", "UserWarning_subclass"])
def test_runtime_warning_as_error_is_a_stage_error(tmp_path, monkeypatch,
                                                   capsys, category):
    # CI runs the pipelines with warnings as errors: one raised in a stage,
    # numpy's RuntimeWarning or scipy's IntegrationWarning (a UserWarning),
    # exits 2 with error.json, as any other stage error does
    def warn(cfg, st, checks, out):
        warnings.warn("overflow encountered in reduce", category)

    monkeypatch.setitem(_STAGE_FNS, "potential", warn)
    cfg = replace(generate_fixture("free"), out_dir=str(tmp_path / "run"))
    path = tmp_path / "cfg.json"
    cfg.write(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["all", str(path)]) == 2
    err = json.loads((tmp_path / "run" / "error.json").read_text())["error"]
    assert (err["stage"], err["type"]) == ("potential", category.__name__)
    assert category.__name__ in capsys.readouterr().err


def test_growth_violation_stops_the_run_in_validate(tmp_path, capsys):
    # E_3 - E_1 = 0.5 is not above C n^alpha = 1: the growth condition
    # fails, and the run stops before the flow stage writes
    cfg = replace(generate_fixture("one_gap"), out_dir=str(tmp_path / "run"),
                  edges=(0.0, 1.0, 1.1, 1.5, 1.6),
                  divisor=((1.05, 1), (1.55, 1)))
    path = tmp_path / "cfg.json"
    cfg.write(path)
    assert main(["all", str(path)]) == 2
    err = json.loads((tmp_path / "run" / "error.json").read_text())["error"]
    assert (err["stage"], err["type"]) == ("validate", "GrowthViolation")
    assert not (tmp_path / "run" / "trajectory.csv").exists()
    assert "GrowthViolation" in capsys.readouterr().err


def test_python_config_zero_step_writes_error_json(tmp_path):
    # h = 0 would reach the flow stage's tail cutoff, which divides by it;
    # the validate stage refuses it by the load rule of grid.h
    cfg = replace(generate_fixture("one_gap"), out_dir=str(tmp_path / "run"),
                  h=0.0)
    with pytest.raises(ValueError, match="'grid.h'"):
        run_pipeline(cfg)
    err = json.loads((tmp_path / "run" / "error.json").read_text())["error"]
    assert (err["stage"], err["type"]) == ("validate", "ValueError")


@pytest.mark.parametrize("change,key", [
    ({"x_max": -3.0}, "'grid.x_max'"),
    ({"tol": 0.0}, "'grid.tol'"),
    ({"max_iter": 0}, "'grid.max_iter'"),
], ids=["x_max", "tol", "max_iter"])
def test_python_config_meets_load_rules_before_any_artifact(tmp_path, change,
                                                            key):
    # each value is refused on load; a config built in Python meets the
    # same rule in the validate stage, before any stage writes an artifact
    out = tmp_path / "run"
    cfg = replace(generate_fixture("one_gap"), out_dir=str(out), **change)
    with pytest.raises(ValueError, match=key):
        run_pipeline(cfg)
    err = json.loads((out / "error.json").read_text())["error"]
    assert (err["stage"], err["type"]) == ("validate", "ValueError")
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_error_json_cleared_on_success(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "error.json").write_text("{}")
    cfg = replace(generate_fixture("free"), out_dir=str(out))
    assert run_pipeline(cfg, upto="validate").passed
    assert not (out / "error.json").exists()


def test_unreadable_config(tmp_path):
    assert main(["all", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("call, words", [
    (lambda out: RunConfig.from_json_dict([]), "must be a JSON object"),
    (lambda out: run_pipeline(replace(generate_fixture("free"),
                                      out_dir=str(out)), upto="bogus"),
     "unknown stage 'bogus'"),
], ids=["config_not_an_object", "unknown_stage"])
def test_wrong_call_fails_loudly(tmp_path, call, words):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=re.escape(words)):
        call(out)
    assert not out.exists()


def test_fixture_gap_count_over_ten_exits_2(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["fixture", "random", "-n", "11", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "between 0 and 10, got 11" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# plot scripts
# ---------------------------------------------------------------------------

def test_emit_plots_scripts(one_gap_run):
    _, out, _ = one_gap_run
    paths = emit_plots(out)
    assert len(paths) == 5
    flow = (out / "plot_flow.gp").read_text()
    # the single gap (1, 2) is shaded and mu_1 is column 3 of trajectory.csv
    assert "from graph 0, first 1" in flow
    assert "to graph 1, first 2" in flow
    assert '"trajectory.csv" skip 1 using 1:3' in flow
    assert '"kernel.csv"' in (out / "plot_kernel.gp").read_text()
    assert '"potential.csv"' in (out / "plot_potential.gp").read_text()
    jost = (out / "plot_jost.gp").read_text()
    assert '"jost.csv" index 0' in jost
    master = (out / "plots.gp").read_text()
    assert master.count("load ") == 4
    for p in paths:
        assert '"/' not in (out / p.split("/")[-1]).read_text()  # relative refs


def test_emit_plots_requires_artifacts(tmp_path):
    with pytest.raises(MissingArtifact):
        emit_plots(tmp_path)


# ---------------------------------------------------------------------------
# command-line entry
# ---------------------------------------------------------------------------

def test_main_fixture_to_stdout(capsys):
    assert main(["fixture", "free"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["band"]["edges"] == [0.0]


def test_main_prefix_stage_runs_predecessors(tmp_path, capsys):
    cfg = replace(generate_fixture("free"), out_dir=str(tmp_path / "run"))
    path = tmp_path / "cfg.json"
    cfg.write(path)
    assert main(["flow", str(path)]) == 0
    doc = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert set(doc["checks"]) == {"hypothesis_moment"}
    assert (tmp_path / "run" / "trajectory.csv").exists()
    assert not (tmp_path / "run" / "kernel.csv").exists()
    assert "overall: PASS" in capsys.readouterr().out


def test_main_out_override(tmp_path):
    cfg = generate_fixture("free")
    path = tmp_path / "cfg.json"
    cfg.write(path)
    other = tmp_path / "elsewhere"
    assert main(["validate", str(path), "--out", str(other)]) == 0
    assert (other / "band.json").exists()


def test_seed_flag_is_gone(tmp_path, capsys):
    # the run seed is set in the config; only ``fixture`` takes --seed
    path = tmp_path / "cfg.json"
    generate_fixture("free").write(path)
    with pytest.raises(SystemExit) as info:
        main(["all", str(path), "--seed", "5"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["fixture", "random", "-n", "3", "--seed", "5",
                 "--out", str(path)]) == 0
    assert RunConfig.from_file(path).seed == 5


def test_tol_flag_is_gone(tmp_path, capsys):
    # grid.tol is set in the config, where the loader checks it
    path = tmp_path / "cfg.json"
    generate_fixture("free").write(path)
    with pytest.raises(SystemExit) as info:
        main(["all", str(path), "--tol", "0"])
    assert info.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_stage_names_cover_parser():
    assert STAGES == ("validate", "flow", "potential", "weyl", "kernel",
                      "jost", "verify")


def _env_with_src(**extra):
    env = dict(os.environ, **extra)
    src = str(Path(levitan.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


_ENV_CHANGES_ON_IMPORT = """
import json, os
before = dict(os.environ)
import levitan
after = dict(os.environ)
print(json.dumps({k: [before.get(k), after.get(k)]
                  for k in sorted(set(before) | set(after))
                  if before.get(k) != after.get(k)}))
"""


def test_import_leaves_the_environment_alone():
    # thread caps are the libraries' own variables, set by the caller; no
    # package variable rewrites them
    env = _env_with_src(LEVITAN_THREADS="3", OMP_NUM_THREADS="7")
    out = subprocess.run([sys.executable, "-c", _ENV_CHANGES_ON_IMPORT],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {}


def test_python_m_levitan_writes_fixture(tmp_path):
    out = tmp_path / "one_gap.json"
    done = subprocess.run([sys.executable, "-m", "levitan", "fixture",
                           "one_gap", "--out", str(out)], env=_env_with_src(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    cfg = RunConfig.from_file(out)
    assert cfg.edges == generate_fixture("one_gap").edges


# ---------------------------------------------------------------------------
# summary semantics
# ---------------------------------------------------------------------------

def test_summary_pass_iff_every_check_passes(tmp_path):
    ok = {"value": 0.0, "bound": 1.0, "pass": True}
    bad = {"value": 2.0, "bound": 1.0, "pass": False}
    assert VerificationSummary({"a": ok}).passed
    assert not VerificationSummary({"a": ok, "b": bad}).passed
    s = VerificationSummary({"a": ok, "b": bad})
    s.write(tmp_path / "s.json")
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["pass"] is False
    assert doc["checks"] == s.checks


def test_summary_rejects_non_finite_values():
    from levitan.cli import _check
    assert not _check(math.inf, math.inf)["pass"]
    assert not _check(math.nan, 1.0)["pass"]
    assert _check(0.5, 0.5)["pass"]

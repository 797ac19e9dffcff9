"""Config-driven pipeline: fixtures, staged runs, verification, plot scripts.

A run is described by a :class:`RunConfig` -- plain JSON-serializable data,
no domain objects -- and executed stage by stage: ``validate`` -> ``flow`` ->
``potential`` -> ``weyl`` -> ``kernel`` -> ``jost`` -> ``verify``.  Each
stage writes its artifacts (CSV tables, metadata JSON) into the output
directory and contributes named rows to the verification summary; the run
passes if and only if every row passes.  A stage failure produces a
machine-readable ``error.json`` naming the stage and the exception, and the
command exits nonzero.

Everything random (divisor draws, probe placement in the verify stage) is
derived from the config seed, and every float is written through a fixed
17-significant-digit format, so two runs of the same config produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._numerics import f17, write_rows
from .errors import LevitanError, MissingArtifact
from .spectral import (
    BandStructure,
    Side,
    SpectralPoint,
    eval_Y,
    require_hypothesis,
    validate_band_structure,
)
from .dubrovin import (
    DirichletDivisor,
    flow_end_angles,
    integrate_dubrovin,
    trace_potential,
    trajectory_to_csv,
)
from .weyl import (
    WeylContext,
    classify_poles,
    eval_green,
    probe_csv,
    structural_identity_check,
    wronskian_check,
)
from .kernel import (
    GridParams,
    PerturbationProfile,
    eval_D,
    jost_direct,
    jost_profile,
    kernel_bound_check,
    moment_check,
    solve_kernel,
    tail_cutoff,
)

__all__ = [
    "STAGES",
    "RunConfig",
    "VerificationSummary",
    "generate_fixture",
    "run_pipeline",
    "emit_plots",
    "main",
]

#: Pipeline stages in execution order; running a stage runs its predecessors.
STAGES = ("validate", "flow", "potential", "weyl", "kernel", "jost", "verify")

_TAIL_EPS = 1e-12
_WINDOW_MARGIN = 0.5


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """One pipeline run, as plain data.

    The band edges and the perturbation are stored as plain data; the
    ``validate`` stage holds a config built in Python to the load rules,
    and the ``validate`` and ``flow`` stages turn the data into domain
    objects, so a band or perturbation that loads but is not admissible
    fails inside the pipeline with its stage named.  ``divisor`` is either
    a tuple of ``(mu, sigma)`` pairs or None, in which case the flow stage
    draws one uniformly in the gaps from the run seed.  ``_KEYS`` gives each
    field's JSON key path.
    """

    edges: tuple
    hyp_l: float = 2.0
    hyp_C: float = 1.0
    hyp_alpha: float = 1.0
    divisor: tuple | None = None
    perturbation: dict = field(default_factory=lambda: {"form": "zero"})
    h: float = 0.05
    x0: float = -1.0
    x_max: float | None = None
    tol: float = 1e-9
    max_iter: int = 50
    flow_step: float = 0.01
    flow_tol: float = 1e-11
    z_probes: tuple = ()
    x_probes: tuple = ()
    out_dir: str = "levitan-out"
    seed: int = 0

    def to_json_dict(self) -> dict:
        """The config document: every key path of ``_KEYS``, set from its
        field; a divisor of None is written "random"."""
        doc: dict = {}
        for path, (name, kind) in _KEYS.items():
            section, _, key = path.rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[key] = \
                _CONVERT[kind][1](getattr(self, name))
        if self.divisor is None:
            doc["divisor"] = "random"
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict, base: Path | None = None) -> "RunConfig":
        """Parse a config document; absent keys take the field defaults.

        Raises ValueError naming the key path of a key this schema does not
        know, of a required key that is absent, of a value not of its key's
        JSON type (a number must be finite, grid.h, grid.tol, flow.step and
        flow.tol positive, grid.max_iter a positive integer, a probe side
        off_axis, upper or lower, with im 0 on a rim), of an unknown
        perturbation form, and of a grid.x_max not beyond grid.x0, so a typo
        fails instead of running on a default."""
        if not isinstance(doc, dict):
            raise ValueError("a config must be a JSON object")
        doc = dict(doc)
        if isinstance(doc.get("band"), str):
            path = Path(doc["band"])
            if base is not None and not path.is_absolute():
                path = base / path
            doc["band"] = json.loads(path.read_text())
        if doc.get("divisor") == "random":
            del doc["divisor"]
        _check_keys(doc, "", dict.fromkeys(p.partition(".")[0] for p in _KEYS),
                    required=("band",))
        flat = {}  # every value by its key path
        for key, value in doc.items():
            if key in _SECTIONS:
                flat.update((key + "." + k, v)
                            for k, v in _expect(value, key, _OBJ).items())
            else:
                flat[key] = value
        _check_keys(flat, "", {path: kind for path, (_, kind) in _KEYS.items()},
                    required=[p for p in _REQUIRED
                              if p.partition(".")[0] in doc])
        for i, pair in enumerate(flat.get("divisor.entries", ())):
            _expect(pair, "divisor.entries[%d]" % i, _MU_SIGMA)
        for i, p in enumerate(flat.get("probes.z", ())):
            where = "probes.z[%d]" % i
            _check_keys(_expect(p, where, _OBJ), where + ".", _PROBE_KEYS,
                        required=("re",))
            if p.get("side", "off_axis") != "off_axis" and p.get("im", 0.0):
                raise ValueError("config key '%s.im' must be 0 on a rim, "
                                 "got %r" % (where, p["im"]))
        if "perturbation" in flat:
            _check_perturbation(flat["perturbation"])
        cfg = cls(**{name: _CONVERT[kind][0](flat[path])
                     for path, (name, kind) in _KEYS.items() if path in flat})
        if cfg.x_max is not None and cfg.x_max <= cfg.x0:
            raise ValueError("config key 'grid.x_max' must exceed grid.x0 "
                             "(%r), got %r" % (cfg.x0, cfg.x_max))
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        return cls.from_json_dict(json.loads(path.read_text()), base=path.parent)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json())


def _is_number(v) -> bool:
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


def _is_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_number, v))


# the JSON types of config values, by the name an error message gives them
_OBJ, _INT, _STR = "an object", "an integer", "a string"
_POS_INT = "a positive integer"
_NUM, _POS = "a finite number", "a positive number"
_NUM_OR_NULL, _NUMS = "a finite number or null", "a list of numbers"
_PAIR = "a pair of numbers"
_MU_SIGMA = "a [mu, sigma] pair with sigma +1 or -1"
_PAIRS = "a list of [mu, sigma] pairs"
_PROBES = "a list of probe objects"
_SIDE = "one of %s" % ", ".join(repr(s.value) for s in Side)
_KINDS = {
    _OBJ: lambda v: isinstance(v, dict),
    _NUM: _is_number,
    _POS: lambda v: _is_number(v) and v > 0,
    _NUM_OR_NULL: lambda v: v is None or _is_number(v),
    _INT: lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    _POS_INT: lambda v: _KINDS[_INT](v) and v > 0,
    _STR: lambda v: isinstance(v, str),
    _NUMS: _is_numbers,
    _PAIR: lambda v: _is_numbers(v) and len(v) == 2,
    _MU_SIGMA: lambda v: _is_numbers(v) and len(v) == 2 and v[1] in (1, -1),
    # each entry checked where parsed, to name its index
    _PAIRS: lambda v: isinstance(v, (list, tuple)),
    _PROBES: lambda v: isinstance(v, (list, tuple)),
    _SIDE: lambda v: v in [s.value for s in Side],
}

# every config key path with its RunConfig field and the JSON type of its
# value; a dotted path lies in a section object ("band" may instead name a
# band.json file, and "divisor" may instead be "random")
_KEYS = {
    "band.edges": ("edges", _NUMS), "band.l": ("hyp_l", _NUM),
    "band.C": ("hyp_C", _NUM), "band.alpha": ("hyp_alpha", _NUM),
    "divisor.entries": ("divisor", _PAIRS),
    "perturbation": ("perturbation", _OBJ),
    "grid.h": ("h", _POS), "grid.x0": ("x0", _NUM),
    "grid.x_max": ("x_max", _NUM_OR_NULL), "grid.tol": ("tol", _POS),
    "grid.max_iter": ("max_iter", _POS_INT),
    "flow.step": ("flow_step", _POS), "flow.tol": ("flow_tol", _POS),
    "probes.z": ("z_probes", _PROBES), "probes.x": ("x_probes", _NUMS),
    "out_dir": ("out_dir", _STR), "seed": ("seed", _INT),
}
_SECTIONS = {path.partition(".")[0] for path in _KEYS if "." in path}
# the keys a section must hold wherever it is given ("band" always is)
_REQUIRED = ("band.edges", "divisor.entries")
_PROBE_KEYS = {"re": _NUM, "im": _NUM, "side": _SIDE}

# each field type's conversion from its JSON value, and back
_CONVERT = {
    _NUM: (float, float), _POS: (float, float), _INT: (int, int),
    _POS_INT: (int, int),
    _STR: (str, str), _OBJ: (dict, dict),
    _NUM_OR_NULL: (lambda v: None if v is None else float(v),) * 2,
    _NUMS: (lambda v: tuple(map(float, v)), lambda v: list(map(float, v))),
    _PAIRS: (lambda v: tuple((float(m), int(s)) for m, s in v),
             lambda v: [[float(m), int(s)] for m, s in v or ()]),
    _PROBES: (lambda v: tuple((float(p["re"]), float(p.get("im", 0.0)),
                               p.get("side", "off_axis")) for p in v),
              lambda v: [{"re": re, "im": im, "side": side}
                         for re, im, side in v]),
}


def _expect(value, path: str, kind: str):
    """``value`` if it is of the JSON type ``kind``, else ValueError naming
    its key path."""
    if not _KINDS[kind](value):
        raise ValueError("config key %r must be %s, got %r"
                         % (path, kind, value))
    return value


def _check_keys(doc: dict, where: str, kinds: dict,
                required: tuple = ()) -> None:
    """ValueError naming the key path of a key of ``doc`` not in ``kinds``,
    of a ``required`` key it lacks, or of a value not of its key's type."""
    for what, keys in (("unknown", sorted(set(doc) - set(kinds))),
                       ("missing", [k for k in required if k not in doc])):
        if keys:
            raise ValueError("%s config key%s %s" % (
                what, "s" if len(keys) > 1 else "",
                ", ".join(repr(where + k) for k in keys)))
    for key, kind in kinds.items():
        if kind is not None and key in doc:
            _expect(doc[key], where + key, kind)


# each perturbation form: its keys besides "form" with their types, in the
# order its constructor takes them, and the constructor
_PERTURBATIONS = {
    "zero": ({}, PerturbationProfile.zero),
    "gaussian_bump": ({"amplitude": _NUM, "center": _NUM, "width": _NUM},
                      lambda a, c, w: PerturbationProfile.gaussian_bump(
                          float(a), float(c), float(w))),
    "compact_poly": ({"coeffs": _NUMS, "support": _PAIR},
                     lambda c, s: PerturbationProfile.compact_poly(
                         tuple(map(float, c)), (float(s[0]), float(s[1])))),
    "table": ({"xs": _NUMS, "vals": _NUMS},
              lambda xs, vals: PerturbationProfile.from_table(
                  np.asarray(xs, dtype=float), np.asarray(vals, dtype=float))),
}


def _check_perturbation(params: dict) -> None:
    """ValueError naming the key path of an unknown form, of a key the form
    does not know or needs but lacks, or of a value of the wrong type."""
    form = params.get("form", "zero")
    if form not in _PERTURBATIONS:
        raise ValueError("unknown perturbation form %r at "
                         "'perturbation.form'" % (form,))
    kinds = _PERTURBATIONS[form][0]
    _check_keys(params, "perturbation.", {"form": None, **kinds},
                required=tuple(kinds))


def _build_perturbation(params: dict) -> PerturbationProfile:
    kinds, build = _PERTURBATIONS[params.get("form", "zero")]
    return build(*(params[k] for k in kinds))


# ---------------------------------------------------------------------------
# verification summary
# ---------------------------------------------------------------------------

def _check(samples, bound: float) -> dict:
    """A row: the largest of ``samples`` (a number or a sequence of them)
    against ``bound``.  np.max keeps a NaN sample, so the row fails on it."""
    value = float(np.max(samples))
    bound = float(bound)
    ok = math.isfinite(value) and value <= bound
    return {"value": value, "bound": bound, "pass": bool(ok)}


@dataclass
class VerificationSummary:
    """Named check rows (value, bound, pass); the run passes iff all do."""

    checks: dict

    @property
    def passed(self) -> bool:
        return all(row["pass"] for row in self.checks.values())

    def to_json(self) -> str:
        doc = {"checks": self.checks, "pass": self.passed}
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json())


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _periodic_like_edges(n: int) -> tuple:
    edges = [0.0]
    for j in range(1, n + 1):
        edges.append(j * j - 0.1 / (j * j))
        edges.append(j * j + 0.1 / (j * j))
    return tuple(edges)


def generate_fixture(kind: str, n: int = 2, seed: int = 0) -> RunConfig:
    """A ready-to-run config: ``free``, ``one_gap``, ``periodic_like``,
    ``random``.

    ``n`` is the gap count for the last two kinds (at most 10 -- the probe
    and window heuristics are tuned for small spectra); ``seed`` shapes the
    ``random`` kind and is stored in every config so downstream draws are
    reproducible.  Every emitted band passes the validator.
    """
    if kind == "free":
        return RunConfig(
            edges=(0.0,),
            divisor=(),
            perturbation={"form": "zero"},
            x0=-1.0,
            z_probes=((-1.0, 0.0, "off_axis"), (1.0, 0.0, "upper"),
                      (0.5, 0.8, "off_axis")),
            x_probes=(-0.5, 0.0, 0.5),
            out_dir="levitan-free",
            seed=seed,
        )
    if kind == "one_gap":
        return RunConfig(
            edges=(0.0, 1.0, 2.0),
            divisor=((1.5, 1),),
            perturbation={"form": "gaussian_bump", "amplitude": 0.2,
                          "center": 0.0, "width": 0.6},
            x0=-1.5,
            z_probes=((-1.0, 0.0, "off_axis"), (0.4, 0.0, "upper"),
                      (2.5, 0.0, "upper"), (1.5, 0.9, "off_axis")),
            x_probes=(-1.0, 0.0, 0.7),
            out_dir="levitan-one-gap",
            seed=seed,
        )
    if not 0 <= n <= 10:
        raise ValueError("gap count must be between 0 and 10, got %d" % n)
    if kind == "periodic_like":
        edges = _periodic_like_edges(n)
        divisor = tuple(((edges[2 * j - 1] + edges[2 * j]) / 2.0,
                         1 if j % 2 == 1 else -1)
                        for j in range(1, n + 1))
        bump = {"amplitude": 0.15, "center": 0.0, "width": 0.5}
        out_dir = "levitan-periodic-%d" % n
    elif kind == "random":
        rng = np.random.default_rng(seed)
        edges = [0.05 * float(rng.uniform())]
        for j in range(1, n + 1):
            center = j * j + 0.2 * float(rng.uniform(-1.0, 1.0))
            half = (0.08 + 0.04 * float(rng.uniform())) / (j * j)
            edges.extend([center - half, center + half])
        edges = tuple(edges)
        require_hypothesis(validate_band_structure(edges, 2.0, 1.0, 1.0))
        divisor = None
        bump = {"amplitude": 0.1 + 0.1 * float(rng.uniform()),
                "center": 0.2 * float(rng.uniform(-1.0, 1.0)),
                "width": 0.4 + 0.2 * float(rng.uniform())}
        out_dir = "levitan-random-%d-%d" % (n, seed)
    else:
        raise ValueError("unknown fixture kind %r" % (kind,))
    mid = (edges[0] + edges[1]) / 2.0 if n else edges[0] + 1.0
    return RunConfig(
        edges=edges,
        divisor=divisor,
        perturbation={"form": "gaussian_bump", **bump},
        x0=-1.0,
        z_probes=((edges[0] - 1.0, 0.0, "off_axis"), (mid, 0.0, "upper"),
                  (0.3, 0.7, "off_axis")),
        x_probes=(-0.5, 0.0, 0.5),
        out_dir=out_dir,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def _stage_validate(cfg: RunConfig, st: dict, checks: dict, out: Path) -> None:
    # the load rules hold for a RunConfig built in Python too, before any
    # artifact is written
    RunConfig.from_json_dict(cfg.to_json_dict())
    report = validate_band_structure(cfg.edges, cfg.hyp_l, cfg.hyp_C,
                                     cfg.hyp_alpha)
    require_hypothesis(report)
    band = BandStructure(tuple(float(e) for e in cfg.edges),
                         hyp_l=cfg.hyp_l, hyp_C=cfg.hyp_C,
                         hyp_alpha=cfg.hyp_alpha)
    (out / "band.json").write_text(band.to_json() + "\n")
    st["band"] = band
    checks["hypothesis_moment"] = _check(report.partial_sum, math.inf)


def _stage_flow(cfg: RunConfig, st: dict, checks: dict, out: Path) -> None:
    band = st["band"]
    if cfg.divisor is None:
        divisor = DirichletDivisor.random_in_gaps(
            band, np.random.default_rng(cfg.seed))
    else:
        divisor = DirichletDivisor(tuple((float(m), int(s))
                                         for m, s in cfg.divisor))
    pert = _build_perturbation(cfg.perturbation)
    x_cut = cfg.x_max if cfg.x_max is not None else tail_cutoff(
        pert, cfg.x0, cfg.h, _TAIL_EPS)
    xs = cfg.x_probes or (0.0,)
    hi = max(2.0 * x_cut - cfg.x0, 0.0, max(xs), pert.support[1]) + _WINDOW_MARGIN
    lo = min(cfg.x0, 0.0, min(xs), pert.support[0]) - _WINDOW_MARGIN
    traj = integrate_dubrovin(band, divisor, lo, hi, cfg.flow_step,
                              tol=cfg.flow_tol)
    p = trace_potential(band, traj)
    xp_text = trajectory_to_csv(band, traj, out / "trajectory.csv", p)
    st.update(pert=pert, x_cut=float(x_cut), traj=traj, xp_text=xp_text)


def _stage_potential(cfg: RunConfig, st: dict, checks: dict, out: Path) -> None:
    # the trace formula ran once, in the flow stage; its x and p text is
    # the trajectory table's own
    with open(out / "potential.csv", "w") as fh:
        fh.write("x,p\n")
        write_rows(fh, "%s,%s\n", st["xp_text"])


def _stage_weyl(cfg: RunConfig, st: dict, checks: dict, out: Path) -> None:
    band = st["band"]
    ctx = WeylContext(band, st["traj"])
    zpts = [SpectralPoint(complex(re, im), side)
            for re, im, side in cfg.z_probes] or \
        [SpectralPoint(complex(band.edges[0] - 1.0))]
    xs = cfg.x_probes or (0.0,)
    psi_x1 = probe_csv(ctx, zpts, xs, out / "weyl_probes.csv")[:, :, 0]
    classify_poles(ctx)

    # one Magnus ladder for all z probes; each probe's (c, s), m+-(z, 0) and
    # g serve the Wronskian and the ODE side of the psi routes at x1 = xs[0];
    # the product side is probe_csv's first row (it refused z near a gap)
    x1 = float(xs[0])
    w_err, r_err = [], []
    for (resid, g, ode), product in zip(wronskian_check(ctx, zpts, x1),
                                        psi_x1.tolist()):
        w_err.append(resid * abs(g))
        r_err += [abs(a - b) / max(abs(a), abs(b))
                  for a, b in zip(product, ode)]
    checks["wronskian"] = _check(w_err, 1e-6)
    checks["weyl_routes"] = _check(r_err, 1e-6)

    # (1/i) g > 0 at each band's midpoint on the upper rim
    mids = [0.5 * (a + b) if math.isfinite(b) else a + 1.0
            for a, b in band.bands()]
    checks["green_sign"] = _check(
        [-(eval_green(ctx, SpectralPoint.upper(m)) / 1j).real for m in mids],
        0.0)
    st.update(ctx=ctx, zpts=zpts)


def _stage_kernel(cfg: RunConfig, st: dict, checks: dict, out: Path) -> None:
    ctx, pert = st["ctx"], st["pert"]
    # the truncation radius is the flow stage's, which sized the window
    grid = solve_kernel(ctx, pert, "+",
                        GridParams(cfg.x0, cfg.h, st["x_cut"], _TAIL_EPS),
                        tol=cfg.tol, max_iter=cfg.max_iter)
    grid.to_csv(out / "kernel.csv")
    grid.write_metadata(out / "kernel_meta.json")

    report = kernel_bound_check(ctx, grid, pert)
    checks["kernel_bound"] = _check(len(report.violations), 0.0)
    # K(x, x) = 1/2 int_x^inf q_tilde, to the solver's O(h^2)
    half_tail = 0.5 * pert.tails(grid.positions[:grid.half_width + 1])[0]
    budget = grid.h ** 2 * max(1.0, float(np.max(np.abs(pert(grid.positions)))))
    checks["kernel_diagonal"] = _check(
        np.abs(grid.values[:, 0] - half_tail), budget)
    checks["kernel_max_abs"] = _check(np.abs(grid.values), math.inf)
    st["grid"] = grid


def _stage_jost(cfg: RunConfig, st: dict, checks: dict, out: Path) -> None:
    ctx, grid, pert = st["ctx"], st["grid"], st["pert"]
    with open(out / "jost.csv", "w") as fh:
        fh.write("re_z,im_z,side,x,re_phi,im_phi,abs_phi\n")
        xs, profiles = jost_profile(ctx, grid, st["zpts"])
        for i, (pt, vals) in enumerate(zip(st["zpts"], profiles)):
            if i:
                fh.write("\n\n")  # double blank line: next gnuplot index
            fmt = "%.17g,%.17g,%s,%%.17g,%%.17g,%%.17g,%%.17g\n" % (
                pt.z.real, pt.z.imag, pt.side.value)
            # hypot, as abs() of each value: np.abs of a complex array can
            # differ from it in the last bit
            write_rows(fh, fmt, np.column_stack([
                xs, vals.real, vals.imag, np.hypot(vals.real, vals.imag)]))

    # phi via the kernel at lattice points 0 and m // 2, read off the profiles
    # just written, against the independent Volterra oracle: one call per z
    # probe, whose single product-route pass serves both points
    idx = [0, grid.half_width // 2]
    rel = []
    for pt, phi in zip(st["zpts"][:2], profiles):
        direct = jost_direct(ctx, pert, pt, grid.positions[idx], "+")
        rel += [abs(a - b) / max(abs(b), 1e-30)
                for a, b in zip(phi[idx].tolist(), direct.tolist())]
    checks["oracle_equivalence"] = _check(rel, 5e-3)


def _stage_verify(cfg: RunConfig, st: dict, checks: dict, out: Path) -> None:
    band, ctx, traj = st["band"], st["ctx"], st["traj"]
    pert, x_cut = st["pert"], st["x_cut"]
    rng = np.random.default_rng(cfg.seed + 1)

    # one eval_D call for the batch; each entry is its scalar call's float
    x, y = rng.uniform(cfg.x0, x_cut, size=(40, 2)).T
    checks["D_diagonal"] = _check(np.abs(eval_D(ctx, x, y, y, x) + 0.25),
                                  1e-8)

    rel = []
    e_hi = band.edges[-1] + 1.0
    for _ in range(8):
        z = complex(rng.uniform(band.edges[0] - 1.0, e_hi),
                    rng.uniform(0.3, 1.2))
        x = float(rng.uniform(traj.x_min + 0.1, traj.x_max - 0.1))
        rel.append(structural_identity_check(ctx, z, x)
                   / (1.0 + abs(eval_Y(band, z))))
    checks["structural_identity"] = _check(rel, 1e-5)

    # the flow back from the window's right end: only its end angles are
    # read, so no output grid or spline is built for it.  Its panels start
    # their sweeps from the forward trajectory along the same path; the
    # sweeps still stop at the back flow's own fixed point
    hi_node = float(traj.x_grid[-1])
    theta_back = flow_end_angles(band, traj.divisor_at(hi_node), -hi_node,
                                 tol=cfg.flow_tol,
                                 guess=lambda s: traj.theta_at(hi_node + s))
    round_trip = float(np.max(np.abs(traj.mu_of_theta(theta_back)
                                     - traj.mu_at(0.0)), initial=0.0))
    checks["reversibility"] = _check(round_trip, 10.0 * cfg.flow_tol)

    checks["moment"] = _check(moment_check(pert), math.inf)


_STAGE_FNS = {
    "validate": _stage_validate,
    "flow": _stage_flow,
    "potential": _stage_potential,
    "weyl": _stage_weyl,
    "kernel": _stage_kernel,
    "jost": _stage_jost,
    "verify": _stage_verify,
}

# what a failing stage may raise (any warning, where warnings are errors):
# written to error.json, exit code 2
_STAGE_ERRORS = (LevitanError, ValueError, ArithmeticError, OSError, Warning)


def _write_error(out: Path, stage: str, exc: Exception) -> None:
    doc = {"error": {"stage": stage, "type": type(exc).__name__,
                     "message": str(exc)}}
    (out / "error.json").write_text(json.dumps(doc, indent=1, sort_keys=True)
                                    + "\n")


def run_pipeline(config: RunConfig, upto: str | None = None) -> VerificationSummary:
    """Run the stages through ``upto`` (default: all), returning the summary.

    Artifacts land in ``config.out_dir``; the summary is also written there
    as ``summary.json``.  A failing stage writes ``error.json`` naming the
    stage and re-raises, leaving earlier artifacts in place.
    """
    if upto is None or upto == "all":
        wanted = STAGES
    elif upto in STAGES:
        wanted = STAGES[: STAGES.index(upto) + 1]
    else:
        raise ValueError("unknown stage %r" % (upto,))
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stale = out / "error.json"
    if stale.exists():
        stale.unlink()
    checks: dict = {}
    state: dict = {}
    for name in wanted:
        try:
            _STAGE_FNS[name](config, state, checks, out)
        except _STAGE_ERRORS as exc:
            _write_error(out, name, exc)
            raise
    summary = VerificationSummary(checks=checks)
    summary.write(out / "summary.json")
    return summary


# ---------------------------------------------------------------------------
# plot scripts
# ---------------------------------------------------------------------------

_GP_PRELUDE = (
    'set datafile separator ","\n'
    "set terminal pngcairo size 900,540\n"
    'set grid\nset xlabel "x"\n'
)


def emit_plots(out_dir) -> tuple:
    """Write gnuplot scripts beside the run artifacts; returns their paths.

    Scripts reference the CSVs by bare filename, so they render from inside
    the output directory with ``gnuplot plots.gp``.  Raises MissingArtifact
    if a required CSV (or band.json, for the gap shading) is absent.
    """
    out = Path(out_dir)
    for name in ("band.json", "trajectory.csv", "potential.csv",
                 "kernel.csv", "jost.csv"):
        if not (out / name).exists():
            raise MissingArtifact("%s not found in %s (run the pipeline "
                                  "first)" % (name, out))
    band = BandStructure.from_json((out / "band.json").read_text())
    n = band.gap_count
    written = []

    script = out / "plot_potential.gp"
    script.write_text(
        _GP_PRELUDE + 'set output "potential.png"\nset ylabel "p(x)"\n'
        'plot "potential.csv" skip 1 using 1:2 with lines lw 2 '
        'title "p(x)"\n')
    written.append(script)

    script = out / "plot_flow.gp"
    lines = [_GP_PRELUDE, 'set output "flow.png"\n']
    if n:
        lines.append('set ylabel "mu_j(x)"\n')
        for j, (glo, ghi) in enumerate(band.gaps, start=1):
            lines.append(
                "set object %d rectangle from graph 0, first %s "
                "to graph 1, first %s fc rgb \"#e8e8f2\" fs solid 0.6 "
                "noborder behind\n" % (j, f17(glo), f17(ghi)))
        parts = ['"trajectory.csv" skip 1 using 1:%d with lines lw 2 '
                 'title "mu_%d"' % (1 + n + j, j) for j in range(1, n + 1)]
        lines.append("plot " + ", \\\n     ".join(parts) + "\n")
    else:
        lines.append('set ylabel "p(x)"\n'
                     'plot "trajectory.csv" skip 1 using 1:2 with lines lw 2 '
                     'title "p(x)"\n')
    script.write_text("".join(lines))
    written.append(script)

    script = out / "plot_kernel.gp"
    script.write_text(
        _GP_PRELUDE + 'set output "kernel.png"\nset ylabel "s"\n'
        "set view map\n"
        'plot "kernel.csv" skip 1 using 1:2:3 with points pt 5 ps 0.6 '
        'palette title "K(x, s)"\n')
    written.append(script)

    script = out / "plot_jost.gp"
    # one block per z probe, each after the first behind a double blank line
    n_blocks = (out / "jost.csv").read_text().count("\n\n\n") + 1
    parts = []
    for i in range(n_blocks):
        skip = " skip 1" if i == 0 else ""
        parts.append('"jost.csv" index %d%s using 4:7 with lines lw 2 '
                     'title "z probe %d"' % (i, skip, i + 1))
    script.write_text(
        _GP_PRELUDE + 'set output "jost.png"\nset ylabel "|phi(z, x)|"\n'
        "plot " + ", \\\n     ".join(parts) + "\n")
    written.append(script)

    master = out / "plots.gp"
    master.write_text("".join('load "%s"\n' % s.name for s in written))
    written.append(master)
    return tuple(str(p) for p in written)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levitan",
        description="Spectral pipeline for almost periodic backgrounds: "
                    "divisor flow, Weyl solutions, transformation kernel, "
                    "verification.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in STAGES + ("all",):
        summary = ("run every stage, verify, and emit plot scripts"
                   if name == "all"
                   else "run the pipeline through the %s stage" % name)
        p = sub.add_parser(name, help=summary)
        p.add_argument("config", help="run config (JSON), seed included")
        p.add_argument("--out", help="override the output directory")
    fx = sub.add_parser("fixture", help="write a ready-made config")
    fx.add_argument("kind", choices=("free", "one_gap", "periodic_like",
                                     "random"))
    fx.add_argument("-n", "--gaps", type=int, default=2,
                    help="gap count for periodic_like/random (max 10)")
    fx.add_argument("--seed", type=int, default=0)
    fx.add_argument("--out", help="config file to write (default: stdout)")
    return ap


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)

    if ns.command == "fixture":
        try:
            cfg = generate_fixture(ns.kind, n=ns.gaps, seed=ns.seed)
        except (LevitanError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if ns.out:
            cfg.write(ns.out)
        else:
            sys.stdout.write(cfg.to_json())
        return 0

    try:
        cfg = RunConfig.from_file(ns.config)
    except (OSError, ValueError, KeyError) as exc:
        print("error: could not load %s: %s" % (ns.config, exc),
              file=sys.stderr)
        return 2
    if ns.out is not None:
        cfg = replace(cfg, out_dir=ns.out)

    try:
        summary = run_pipeline(cfg, upto=None if ns.command == "all"
                               else ns.command)
    except _STAGE_ERRORS as exc:
        print("error [%s]: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    if ns.command == "all":
        emit_plots(cfg.out_dir)

    width = max(len(name) for name in summary.checks) if summary.checks else 0
    for name, row in summary.checks.items():
        print("[%s] %-*s value=%.6g bound=%.6g"
              % ("PASS" if row["pass"] else "FAIL", width, name,
                 row["value"], row["bound"]))
    print("overall: %s" % ("PASS" if summary.passed else "FAIL"))
    return 0 if summary.passed else 1


if __name__ == "__main__":
    sys.exit(main())

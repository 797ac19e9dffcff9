"""The benchmark's three workloads.

Each workload is built by ``setup(seed, work_dir)`` into an object whose
``round()`` yields ``(kind, call, check)`` triples.  The runner times
``call()``, then hands its result to ``check``, which raises
:class:`checks.CheckFailure` if the output is wrong.  A round is the same list
of operations every time, so every run attempts whole rounds.

The program is called through its module attributes (``weyl.eval_m``, not an
imported name), so the traced run's patches see every call the benchmark
makes.  The seed shapes only the generated inputs: probe placement, the
``random`` fixture's seed and the checks' random draws.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from levitan import cli, dubrovin, kernel, spectral, weyl

# random n=6 fixture seeds that pass every verify row and every benchmark
# check, and whose pipeline runs cost within a few percent of each other
RANDOM_SEEDS = (1, 4, 12, 23, 26, 27, 28, 32)

WORKLOADS = ("pipeline", "weyl_sweep", "kernel_fine")


def setup(name: str, seed: int, work_dir: Path):
    """Build the named workload's inputs from the seed."""
    builder = {"pipeline": Pipeline, "weyl_sweep": WeylSweep,
               "kernel_fine": KernelFine}[name]
    return builder(seed, Path(work_dir))


def _bump(cfg) -> tuple:
    """(amplitude, center, width) of a fixture's perturbation; zero form ->
    amplitude 0."""
    p = cfg.perturbation
    if p["form"] == "zero":
        return 0.0, 0.0, 1.0
    return float(p["amplitude"]), float(p["center"]), float(p["width"])


def trace_formula_p(edges, mu) -> float:
    """p = E0 + sum_j (E_{2j-1} + E_{2j} - 2 mu_j), independently of the
    package's own potential evaluator."""
    e = np.asarray(edges, dtype=float)
    return float(e[0] + np.sum(e[1:]) - 2.0 * np.sum(mu))


# ---------------------------------------------------------------------------
# pipeline: levitan all, one fixture per operation
# ---------------------------------------------------------------------------

class Pipeline:
    """``run_pipeline`` then ``emit_plots``, rotating over five fixtures."""

    NAME = "pipeline"
    FIXTURES = (("free", 0), ("one_gap", 0), ("periodic_like", 4),
                ("random", 6), ("periodic_like", 10))

    def __init__(self, seed: int, work_dir: Path):
        self.configs = []
        for kind, n in self.FIXTURES:
            fseed = RANDOM_SEEDS[seed % len(RANDOM_SEEDS)] if kind == "random" \
                else seed
            cfg = cli.generate_fixture(kind, n=n, seed=fseed)
            label = kind if kind in ("free", "one_gap") else "%s-%d" % (kind, n)
            self.configs.append(
                (label, replace(cfg, out_dir=str(work_dir / label))))
        self.first_digest = {}
        # first-call costs: one untimed run of the cheapest fixture
        label, cfg = self.configs[0]
        self._run(cfg)
        shutil.rmtree(cfg.out_dir)

    @staticmethod
    def _run(cfg):
        # a failed operation skips its check, which is what deletes the
        # directory; never let its leftovers mix into the next run
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        summary = cli.run_pipeline(cfg)
        cli.emit_plots(cfg.out_dir)
        return summary

    def round(self):
        for label, cfg in self.configs:
            yield (label, lambda cfg=cfg: self._run(cfg),
                   lambda summary, label=label, cfg=cfg:
                   self._check(label, cfg, summary))

    def _check(self, label, cfg, summary) -> dict:
        """Checks one run's artifacts, deletes them, and counts their bytes."""
        out = Path(cfg.out_dir)
        try:
            doc = checks.load_json(out / "summary.json")
            checks.summary_rows(doc, summary.checks)
            amp, center, width = _bump(cfg)
            x, diag = checks.kernel_csv_diagonal(out / "kernel.csv")
            checks.kernel_diagonal(x, diag, amp, center, width, cfg.h, abs(amp))
            if label == "one_gap":
                cols = checks.read_csv_columns(out / "trajectory.csv")
                (mu0, sigma0), = cfg.divisor
                checks.one_gap_divisor(np.array(cols["x"], dtype=float),
                                       np.array(cols["mu_1"], dtype=float),
                                       cfg.edges, mu0, sigma0)
            if label == "free":
                checks.free_probe_csv(out / "weyl_probes.csv")
            digest = checks.tree_digest(out)
            checks.same_bytes(digest, self.first_digest.setdefault(label,
                                                                   digest))
            return {"cli.artifact_bytes": sum(
                f.stat().st_size for f in out.rglob("*") if f.is_file())}
        finally:
            shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------------------
# weyl_sweep: point evaluations of the Weyl layer
# ---------------------------------------------------------------------------

class WeylSweep:
    """``eval_psi_product``, ``eval_psi_ode``, ``eval_m`` and ``eval_green``
    at seeded probes on four prepared backgrounds."""

    NAME = "weyl_sweep"
    BACKGROUNDS = (("free", 0), ("one_gap", 0), ("periodic_like", 4),
                   ("periodic_like", 10))
    PROBES = 16          # per background and round
    WINDOW = 3.0         # trajectory covers [-3, 3]; probes sit in [-2, 2]
    DELTA = 1e-3         # Riccati difference step

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng([seed, 1])
        self.backgrounds = []
        for kind, n in self.BACKGROUNDS:
            cfg = cli.generate_fixture(kind, n=n, seed=seed)
            band = spectral.BandStructure(cfg.edges)
            traj = dubrovin.integrate_dubrovin(
                band, dubrovin.DirichletDivisor(cfg.divisor), -self.WINDOW,
                self.WINDOW, cfg.flow_step, tol=cfg.flow_tol)
            traj.flip_points()
            ctx = weyl.WeylContext(band, traj)
            label = kind if n == 0 else "%s-%d" % (kind, n)
            self.backgrounds.append((label, ctx, self._probes(band, rng)))
        # first-call costs: one untimed evaluation of each kind
        label, ctx, probes = self.backgrounds[1]
        pt, x, sign, _ = probes[0]
        for fn in (weyl.eval_psi_product, weyl.eval_psi_ode, weyl.eval_m):
            fn(ctx, pt, x, sign)
        weyl.eval_green(ctx, pt)

    def _probes(self, band, rng) -> list:
        """A fixed stratified design, jittered by the seed: probe i takes
        the i-th slice of x in [-2, 2] and fixed-permutation slices of
        Re z and Im z, so that every seed spreads its probes, and their
        cost, the same way.  Every fourth probe sits on an upper band rim,
        in a band picked by slice of the band list, away from the edges."""
        lo, top = band.edges[0], band.edges[-1]
        bands = [(a, b if math.isfinite(b) else a + 3.0) for a, b in band.bands()]
        n = self.PROBES
        cell = lambda k: (k + rng.uniform()) / n
        probes = []
        for i in range(n):
            x = -2.0 + 4.0 * cell(i)
            sign = 1 if i % 2 == 0 else -1
            if i % 4 == 3:
                a, b = bands[int(len(bands) * (i // 4 + rng.uniform()) / (n // 4))]
                pt = spectral.SpectralPoint.upper(
                    a + (b - a) * rng.uniform(0.05, 0.95))
            else:
                pt = spectral.SpectralPoint(complex(
                    lo - 2.0 + (top - lo + 4.0) * cell(5 * i % n),
                    0.1 + 1.4 * cell(3 * i % n)))
            probes.append((pt, float(x), sign, pt.side.value == "upper"))
        return probes

    def round(self):
        for i in range(self.PROBES):
            for label, ctx, probes in self.backgrounds:
                yield from self._probe_ops(label, ctx, *probes[i])

    def _probe_ops(self, label, ctx, pt, x, sign, on_rim):
        free = ctx.band.gap_count == 0
        z = pt.z
        seen = {}

        def check_product(psi):
            seen["product"] = psi
            if free:
                checks.free_psi(z, x, sign, psi)

        def check_ode(psi):
            if "product" in seen:      # absent only if that operation failed
                checks.routes_agree(seen["product"], psi)
            if free:
                checks.free_psi(z, x, sign, psi)

        def check_m(m):
            if free:
                checks.free_m(z, sign, m)
                return
            d = self.DELTA
            p = trace_formula_p(ctx.band.edges, ctx.trajectory.mu_at(x))
            checks.riccati(weyl.eval_m(ctx, pt, x - d, sign), m,
                           weyl.eval_m(ctx, pt, x + d, sign), d, p, z)

        def check_green(g):
            checks.green_sign(g, on_rim)
            if free:
                checks.free_green(z, g)

        yield ("psi_product@" + label,
               lambda: weyl.eval_psi_product(ctx, pt, x, sign), check_product)
        yield ("psi_ode@" + label,
               lambda: weyl.eval_psi_ode(ctx, pt, x, sign), check_ode)
        yield "eval_m@" + label, lambda: weyl.eval_m(ctx, pt, x, sign), check_m
        yield "green@" + label, lambda: weyl.eval_green(ctx, pt), check_green


# ---------------------------------------------------------------------------
# kernel_fine: kernel solves on fine lattices
# ---------------------------------------------------------------------------

class KernelFine:
    """``solve_kernel`` at three lattice steps on three backgrounds, each
    solve followed by its bound check, an ``eval_D`` batch and two Jost
    comparisons."""

    NAME = "kernel_fine"
    BACKGROUNDS = (("one_gap", 0), ("periodic_like", 4), ("periodic_like", 10))
    STEPS = (0.05, 0.025, 0.0125)
    TAIL_EPS = 1e-12

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng([seed, 2])
        self.cases = []
        for kind, n in self.BACKGROUNDS:
            cfg = cli.generate_fixture(kind, n=n, seed=seed)
            band = spectral.BandStructure(cfg.edges)
            amp, center, width = _bump(cfg)
            pert = kernel.PerturbationProfile.gaussian_bump(amp, center, width)
            cuts = [kernel.tail_cutoff(pert, cfg.x0, h, self.TAIL_EPS)
                    for h in self.STEPS]
            traj = dubrovin.integrate_dubrovin(
                band, dubrovin.DirichletDivisor(cfg.divisor),
                min(cfg.x0, 0.0) - 0.5, 2.0 * max(cuts) - cfg.x0 + 0.5,
                cfg.flow_step, tol=cfg.flow_tol)
            traj.flip_points()
            label = kind if n == 0 else "%s-%d" % (kind, n)
            top = band.edges[-1]
            for h, x_cut in zip(self.STEPS, cuts):
                m = max(1, round((x_cut - cfg.x0) / h))
                z = [spectral.SpectralPoint(complex(
                    rng.uniform(band.edges[0] - 1.0, top + 1.0),
                    rng.uniform(0.2, 1.0))) for _ in range(2)]
                self.cases.append({
                    "label": "%s/h%g" % (label, h), "band": band,
                    "traj": traj, "pert": pert, "cfg": cfg, "h": h,
                    "bump": (amp, center, width),
                    "pairs": rng.uniform(cfg.x0, x_cut, size=(40, 2)),
                    "quads": rng.uniform(cfg.x0, x_cut, size=(20, 4)),
                    "z": z,
                    # lattice indices for the Jost comparisons: near a
                    # quarter and a half of the diagonal's span
                    "i_point": int(round(m * rng.uniform(0.2, 0.3))),
                    "i_profile": (0, int(round(m * rng.uniform(0.45, 0.55)))),
                })
        self.errors = {}
        # first-call costs: one untimed coarse solve
        first = self.cases[0]
        kernel.solve_kernel(weyl.WeylContext(first["band"], first["traj"]),
                            first["pert"], "+",
                            kernel.GridParams(first["cfg"].x0, first["h"],
                                              None, self.TAIL_EPS),
                            tol=first["cfg"].tol, max_iter=first["cfg"].max_iter)

    def round(self):
        for case in self.cases:
            yield from self._case_ops(case)

    def _case_ops(self, case):
        label, cfg, pert = case["label"], case["cfg"], case["pert"]
        state = {}

        def solve():
            ctx = weyl.WeylContext(case["band"], case["traj"])
            grid = kernel.solve_kernel(
                ctx, pert, "+",
                kernel.GridParams(cfg.x0, case["h"], None, self.TAIL_EPS),
                tol=cfg.tol, max_iter=cfg.max_iter)
            state.update(ctx=ctx, grid=grid)
            return grid

        def check_solve(grid):
            amp, center, width = case["bump"]
            m = grid.half_width
            err = checks.kernel_diagonal(
                grid.positions[:m + 1], grid.values[np.arange(m + 1), 0],
                amp, center, width, grid.h, abs(amp))
            errs = self.errors.setdefault(label.split("/")[0], {})
            errs[case["h"]] = err
            if len(errs) == len(self.STEPS):
                checks.diagonal_order([errs.pop(h) for h in self.STEPS])

        def bound():
            return kernel.kernel_bound_check(state["ctx"], state["grid"], pert)

        def check_bound(report):
            checks.kernel_bound(len(report.violations), report.c_of_x_monotone)

        def d_batch():
            ctx = state["ctx"]
            diag = [kernel.eval_D(ctx, x, y, y, x) for x, y in case["pairs"]]
            sym = [(kernel.eval_D(ctx, x, y, r, s), kernel.eval_D(ctx, y, x, s, r))
                   for x, y, r, s in case["quads"]]
            return diag, sym

        def check_d(out):
            checks.d_diagonal(out[0])
            checks.d_symmetry(out[1])

        def jost_point():
            ctx, grid = state["ctx"], state["grid"]
            x = float(grid.positions[case["i_point"]])
            pt = case["z"][0]
            return (kernel.jost_from_kernel(ctx, grid, pt, x, "+"),
                    kernel.jost_direct(ctx, pert, pt, x, "+"))

        def jost_profile():
            ctx, grid = state["ctx"], state["grid"]
            pt = case["z"][1]
            xs, vals = kernel.jost_profile(ctx, grid, pt)
            return [(vals[i], kernel.jost_direct(ctx, pert, pt, float(xs[i]),
                                                 "+"))
                    for i in case["i_profile"]]

        def check_jost(pairs):
            for via_kernel, direct in pairs:
                checks.jost_agree(via_kernel, direct)

        yield "solve@" + label, solve, check_solve
        yield "bound_check@" + label, bound, check_bound
        yield "eval_D@" + label, d_batch, check_d
        yield "jost_point@" + label, jost_point, lambda out: check_jost([out])
        yield "jost_profile@" + label, jost_profile, check_jost

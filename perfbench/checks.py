"""Output checks for the benchmark, written apart from the program.

Nothing here imports ``levitan``: each check compares what the program
returned or wrote against a closed form, an exact identity, or a second,
independent route, and raises :class:`CheckFailure` when the output is off.
The tolerances are the package's own acceptance tolerances where it has one.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ellipj, ellipk, ellipkinc, erfc


class CheckFailure(Exception):
    """An output the benchmark timed is not correct."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def one_gap_divisor(x, mu, edges, mu0: float, sigma0: int,
                    tol: float = 1e-9) -> float:
    """mu_1(x) against the Jacobi-elliptic solution of the one-gap flow.

    mu(x) = E2 - (E2 - E1) sn^2(sqrt(E2 - E0) (x - x*) | k),
    k^2 = (E2 - E1) / (E2 - E0) (DLMF 22.2), with x* fixed by mu(0) and the
    sheet sign: sigma = +1 means mu increasing at 0, i.e. the argument lies on
    the descending half (K, 2K) of sn^2.
    """
    e0, e1, e2 = (float(e) for e in edges)
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    m = (e2 - e1) / (e2 - e0)
    s0 = math.sqrt(min(1.0, max(0.0, (e2 - mu0) / (e2 - e1))))
    f0 = float(ellipkinc(math.asin(s0), m))
    u0 = 2.0 * float(ellipk(m)) - f0 if sigma0 > 0 else f0
    sn = ellipj(math.sqrt(e2 - e0) * x + u0, m)[0]
    ref = e2 - (e2 - e1) * sn ** 2
    err = float(np.max(np.abs(mu - ref)))
    _require(err <= tol * (e2 - e1),
             "one-gap divisor off the elliptic solution by %.3g" % err)
    return err


def bump_half_tail(x, amplitude: float, center: float, width: float):
    """(1/2) int_x^inf of A exp(-(t-c)^2 / (2 w^2)) dt."""
    x = np.asarray(x, dtype=float)
    return 0.25 * amplitude * width * math.sqrt(2.0 * math.pi) * erfc(
        (x - center) / (math.sqrt(2.0) * width))


def kernel_diagonal(x, diag, amplitude: float, center: float, width: float,
                    h: float, q_max: float) -> float:
    """K(x, x) against (1/2) int_x^inf q for a Gaussian bump, within
    h^2 max(1, max|q|)."""
    err = float(np.max(np.abs(np.asarray(diag) - bump_half_tail(
        x, amplitude, center, width))))
    budget = h * h * max(1.0, q_max)
    _require(err <= budget,
             "kernel diagonal off the closed form by %.3g (budget %.3g, h=%g)"
             % (err, budget, h))
    return err


def diagonal_order(errors, min_ratio: float = 3.0) -> list:
    """Second-order convergence: each halving of h must shrink the diagonal
    error by at least ``min_ratio`` (4 for a clean h^2 law)."""
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    _require(all(r >= min_ratio for r in ratios),
             "kernel diagonal error ratios %s per halving of h, want >= %g"
             % (["%.3g" % r for r in ratios], min_ratio))
    return ratios


def free_psi(z: complex, x: float, sign: int, psi: complex,
             tol: float = 1e-10) -> None:
    """psi_+- = exp(+- i sqrt(z) x) on the free background."""
    ref = cmath.exp(1j * sign * cmath.sqrt(z) * x)
    _require(_rel(psi, ref) <= tol,
             "free psi%s(%s, %g) = %s, expected %s" % ("+-"[sign < 0], z, x,
                                                       psi, ref))


def free_m(z: complex, sign: int, m: complex, tol: float = 1e-10) -> None:
    """m_+- = +- i sqrt(z) on the free background."""
    ref = 1j * sign * cmath.sqrt(z)
    _require(_rel(m, ref) <= tol, "free m%s(%s) = %s, expected %s"
             % ("+-"[sign < 0], z, m, ref))


def free_green(z: complex, g: complex, tol: float = 1e-10) -> None:
    """g = -1 / (2 i sqrt(z)) on the free background."""
    ref = -1.0 / (2j * cmath.sqrt(z))
    _require(_rel(g, ref) <= tol, "free g(%s) = %s, expected %s" % (z, g, ref))


# ---------------------------------------------------------------------------
# independent routes and exact properties
# ---------------------------------------------------------------------------

def routes_agree(product: complex, ode: complex, tol: float = 1e-6) -> float:
    """The product-formula and ODE Weyl solutions at one (z, x, sign)."""
    rel = _rel(product, ode)
    _require(rel <= tol, "psi routes differ by %.3g relative" % rel)
    return rel


def riccati(m_lo: complex, m: complex, m_hi: complex, delta: float,
            p: float, z: complex, tol: float = 1e-4) -> float:
    """m = psi'/psi obeys m' = p - z - m^2; m' by a central difference over
    +-delta, the residual scaled by 1 + |m|^2."""
    resid = abs((m_hi - m_lo) / (2.0 * delta) - (p - z - m * m))
    scaled = resid / (1.0 + abs(m) ** 2)
    _require(scaled <= tol, "Weyl m fails the Riccati equation by %.3g" % scaled)
    return scaled


def green_sign(g: complex, on_rim: bool) -> None:
    """g is Herglotz: Im g > 0 above the axis; (1/i) g > 0 on upper rims."""
    if on_rim:
        w = g / 1j
        _require(w.real > 0.0 and abs(w.imag) <= 1e-8 * abs(w),
                 "(1/i) g = %s on an upper rim is not positive" % (w,))
    else:
        _require(g.imag > 0.0, "Im g = %.3g is not positive above the axis"
                 % g.imag)


def d_diagonal(values, tol: float = 1e-8) -> float:
    """D(x, y, y, x) = -1/4 exactly."""
    err = float(np.max(np.abs(np.asarray(values) + 0.25)))
    _require(err <= tol, "D(x,y,y,x) off -1/4 by %.3g" % err)
    return err


def d_symmetry(pairs, tol: float = 1e-10) -> float:
    """D(x, y, r, s) = D(y, x, s, r)."""
    a = np.asarray(pairs, dtype=float)
    err = float(np.max(np.abs(a[:, 0] - a[:, 1])))
    _require(err <= tol, "D exchange symmetry broken by %.3g" % err)
    return err


def kernel_bound(violations: int, monotone: bool) -> None:
    """Zero envelope-bound violations, and C(x) non-increasing."""
    _require(violations == 0, "%d kernel-bound violations" % violations)
    _require(monotone, "kernel-bound constant C(x) is not monotone")


def jost_agree(via_kernel: complex, direct: complex,
               tol: float = 5e-3) -> float:
    """Kernel-route against direct-Volterra Jost solution."""
    rel = _rel(via_kernel, direct)
    _require(rel <= tol, "Jost routes differ by %.3g relative" % rel)
    return rel


# ---------------------------------------------------------------------------
# pipeline artifacts
# ---------------------------------------------------------------------------

def summary_rows(doc: dict, returned: dict) -> None:
    """Every row of summary.json passes, so does the run, and the file holds
    the rows the call returned."""
    bad = sorted(name for name, row in doc["checks"].items() if not row["pass"])
    _require(not bad and doc["pass"] is True,
             "summary rows fail: %s" % (", ".join(bad) or "overall flag"))
    _require(doc["checks"] == returned,
             "summary.json differs from the returned summary")


def tree_digest(path: Path) -> str:
    """sha256 over every file name and its bytes, in sorted order."""
    digest = hashlib.sha256()
    for item in sorted(Path(path).rglob("*")):
        if item.is_file():
            digest.update(item.relative_to(path).as_posix().encode())
            digest.update(b"\0")
            digest.update(item.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def same_bytes(digest: str, first: str) -> None:
    """A repeat of a fixture writes exactly the bytes of its first run."""
    _require(digest == first, "artifacts differ from the first repeat")


def read_csv_columns(path: Path) -> dict:
    """CSV with a header row, as name -> list of strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    body = [r for r in rows[1:] if r]
    return {name: [r[i] for r in body] for i, name in enumerate(header)}


def kernel_csv_diagonal(path: Path):
    """(x, K(x, x)) from the rows of kernel.csv with y == x."""
    cols = read_csv_columns(path)
    x = np.array(cols["x"], dtype=float)
    y = np.array(cols["y"], dtype=float)
    k = np.array(cols["K"], dtype=float)
    on = x == y
    return x[on], k[on]


def free_probe_csv(path: Path, tol: float = 1e-10) -> int:
    """Every row of the free background's weyl_probes.csv against the closed
    forms for psi_+-, m_+ and g.  Returns the row count."""
    cols = read_csv_columns(path)
    n = len(cols["x"])
    _require(n > 0, "weyl_probes.csv has no rows")
    for i in range(n):
        _require(cols["side"][i] in ("off_axis", "upper"),
                 "unexpected rim tag %r" % cols["side"][i])
        z = complex(float(cols["re_z"][i]), float(cols["im_z"][i]))
        x = float(cols["x"][i])
        val = lambda key: complex(float(cols["re_" + key][i]),
                                  float(cols["im_" + key][i]))
        free_psi(z, x, +1, val("psi_plus"), tol)
        free_psi(z, x, -1, val("psi_minus"), tol)
        free_m(z, +1, val("m_plus"), tol)
        free_green(z, val("g"), tol)
    return n


def load_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())

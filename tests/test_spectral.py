"""Band-structure validation, Y, and the square-root branch."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levitan import (
    BandStructure,
    SpectralPoint,
    eval_Y,
    eval_sqrtY,
    require_hypothesis,
    validate_band_structure,
)
from levitan.errors import (
    BranchAtEdge,
    EmptyGap,
    GrowthViolation,
    MalformedEdges,
    NegativeGround,
    NonMonotonic,
)

from conftest import edge_products, periodic_edges, richardson


# ---------------------------------------------------------------------------
# validation and the admissibility report
# ---------------------------------------------------------------------------

def test_single_gap_report():
    rep = validate_band_structure((0.0, 1.0, 2.0), l=2.0, C=0.5, alpha=1.0)
    assert rep.partial_sum == 1.0  # 1^2 * (2 - 1)
    assert rep.growth_ok == ()     # no representable n, vacuously fine
    assert rep.all_growth_ok
    assert rep.min_growth_ratio == math.inf


def test_periodic_like_report():
    # partial sum and minimal growth ratio evaluated by direct summation
    # beforehand and frozen here.
    rep = validate_band_structure(periodic_edges(6), l=2.0, C=1.0, alpha=1.0)
    assert rep.partial_sum == pytest.approx(18.14237909708453, rel=1e-15)
    assert rep.growth_ok == (True,) * 5
    assert rep.min_growth_ratio == pytest.approx(2.2002444444444444, rel=1e-14)


def test_rejects_unordered_edges():
    with pytest.raises(NonMonotonic):
        validate_band_structure((0.0, 2.0, 1.0), l=2.0, C=1.0, alpha=1.0)


def test_rejects_collapsed_gap():
    with pytest.raises(EmptyGap):
        BandStructure((0.0, 1.0, 1.0))


def test_rejects_negative_ground():
    with pytest.raises(NegativeGround):
        BandStructure((-0.5, 1.0, 2.0))


def test_rejects_even_edge_count_and_empty():
    with pytest.raises(MalformedEdges):
        BandStructure((0.0, 1.0))
    with pytest.raises(MalformedEdges):
        BandStructure(())


def test_repeated_band_edge_is_nonmonotonic():
    # equality at a band boundary (E_2 == E_3) is an ordering defect, not a gap
    with pytest.raises(NonMonotonic):
        BandStructure((0.0, 1.0, 2.0, 2.0, 3.0))


def test_growth_violation_raises_only_on_require():
    rep = validate_band_structure(periodic_edges(6), l=2.0, C=5.0, alpha=1.0)
    assert not rep.all_growth_ok
    with pytest.raises(GrowthViolation):
        require_hypothesis(rep)
    good = validate_band_structure(periodic_edges(6), l=2.0, C=1.0, alpha=1.0)
    assert require_hypothesis(good) is good


# ---------------------------------------------------------------------------
# Y
# ---------------------------------------------------------------------------

def test_edge_weights_and_scales_match_explicit_products(n2_band):
    e = n2_band.edges
    w = n2_band.edge_weight
    assert w.tolist() == [1.0, 1.0 / e[1], 1.0 / e[1], 1.0 / e[3], 1.0 / e[3]]
    scale = n2_band.edge_scale
    assert scale.shape == (len(e), n2_band.gap_count)
    for row, prod in zip(scale, edge_products(n2_band)):
        assert math.prod(row) == pytest.approx(abs(prod) ** -0.5, rel=1e-14)
    assert n2_band.edge_weight is w and n2_band.edge_scale is scale


@pytest.mark.parametrize("name", ["edge_array", "gap_mid", "gap_half",
                                  "edge_weight", "edge_scale"])
def test_cached_band_arrays_are_read_only(n2_band, name):
    arr = getattr(n2_band, name)
    with pytest.raises(ValueError):
        arr[0] = 5.0
    assert getattr(n2_band, name) is arr


def test_Y_free_case(free_band):
    assert eval_Y(free_band, 4.0) == -4.0
    assert eval_Y(free_band, 3 + 1j) == -(3 + 1j)


def test_Y_zero_at_every_edge(n2_band):
    for e in n2_band.edges:
        assert eval_Y(n2_band, complex(e)) == 0.0


def test_Y_against_polynomial_expansion(n2_band):
    # brute-force degree-5 expansion oracle, coefficients via np.poly
    z = 3 + 1j
    coeffs = np.poly(n2_band.edges)  # monic, roots at the edges
    norm = (n2_band.edges[1] * n2_band.edges[3]) ** 2
    expected = -np.polyval(coeffs, z) / norm
    got = eval_Y(n2_band, z)
    assert got == pytest.approx(expected, rel=1e-13)
    # frozen from the oracle script
    assert got == pytest.approx(-2.3422181592480786 + 0.7773851538338661j, rel=1e-12)


def test_Y_positive_left_of_spectrum(free_band, one_gap_band, n2_band):
    for band in (free_band, one_gap_band, n2_band):
        val = eval_Y(band, -0.7)
        assert val.imag == 0.0
        assert val.real > 0.0


# ---------------------------------------------------------------------------
# the square-root branch
# ---------------------------------------------------------------------------

def test_sqrtY_free_left_of_spectrum(free_band):
    # i * sqrt(-1) = i * i = -1
    assert eval_sqrtY(free_band, -1.0) == pytest.approx(-1.0, abs=1e-15)


def test_sqrtY_edge_needs_rim_tag(one_gap_band):
    with pytest.raises(BranchAtEdge):
        eval_sqrtY(one_gap_band, 1.0)
    assert eval_sqrtY(one_gap_band, SpectralPoint.upper(1.0)) == 0.0
    assert eval_sqrtY(one_gap_band, SpectralPoint.lower(2.0)) == 0.0


def test_sqrtY_rim_tag_requires_band(one_gap_band):
    with pytest.raises(ValueError):
        eval_sqrtY(one_gap_band, SpectralPoint.upper(1.5))  # gap interior


def test_rim_tag_requires_real_z():
    with pytest.raises(ValueError):
        SpectralPoint(1 + 1j, "upper")


def test_sqrtY_upper_lower_conjugate(n2_band):
    # purely imaginary on band rims, with per-band sign (-1)^(N-j); the
    # divisor product G alternates identically, which is what makes the Green
    # function (1/i) g positive on every band.
    for x, sign in ((0.45, +1), (2.0, -1), (5.0, +1)):  # bands 0, 1, 2
        up = eval_sqrtY(n2_band, SpectralPoint.upper(x))
        lo = eval_sqrtY(n2_band, SpectralPoint.lower(x))
        assert lo == up.conjugate()
        assert up.real == pytest.approx(0.0, abs=1e-15)
        assert sign * up.imag > 0.0


def test_sqrtY_gap_interior_signs(one_gap_band, n2_band):
    # real in gap interiors, alternating sign (-1)^(N-j+1)
    v = eval_sqrtY(one_gap_band, 1.5)
    assert v.imag == 0.0 and v.real < 0.0
    v1 = eval_sqrtY(n2_band, 1.0)    # gap 1 of N=2: positive
    v2 = eval_sqrtY(n2_band, 4.0)    # gap 2 of N=2: negative
    assert v1.imag == 0.0 and v1.real > 0.0
    assert v2.imag == 0.0 and v2.real < 0.0


def test_sqrtY_band_limit_oracle(one_gap_band):
    # upper-rim value vs Richardson limit of off-axis evaluations z + i*eps
    z = 0.37
    eps = [1e-4, 1e-5, 1e-6]
    seq = [eval_sqrtY(one_gap_band, complex(z, e)) for e in eps]
    limit, err = richardson(seq, ratio=10.0)
    direct = eval_sqrtY(one_gap_band, SpectralPoint.upper(z))
    assert err < 1e-10
    assert abs(limit - direct) < 1e-10


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=50.0))
def test_sqrt_squares_back_and_conjugates(z):
    band = BandStructure(periodic_edges(2))
    if z.imag == 0.0:
        z = z + 1e-6j
    v = eval_sqrtY(band, z)
    y = eval_Y(band, z)
    assert v * v == pytest.approx(y, rel=1e-12, abs=1e-300)
    assert eval_sqrtY(band, z.conjugate()) == pytest.approx(v.conjugate(), rel=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_bit_exact(n2_band):
    doc = n2_band.to_json()
    back = BandStructure.from_json(doc)
    assert back.edges == n2_band.edges          # float equality, i.e. bitwise
    assert back.to_json() == doc
    assert (back.hyp_l, back.hyp_C, back.hyp_alpha) == \
        (n2_band.hyp_l, n2_band.hyp_C, n2_band.hyp_alpha)
    d = json.loads(doc)
    assert set(d) == {"edges", "l", "C", "alpha"}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=3, max_size=9).filter(lambda v: len(set(v)) % 2 == 1))
def test_json_round_trip_random_edges(vals):
    edges = tuple(sorted(set(vals)))
    if len(edges) % 2 == 0:
        edges = edges[:-1]
    if len(edges) < 1:
        return
    band = BandStructure(edges)
    back = BandStructure.from_json(band.to_json())
    assert back.edges == band.edges

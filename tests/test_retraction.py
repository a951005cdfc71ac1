"""Cayley retraction: exactness, well-definedness, kernel agreement, curvature."""

from __future__ import annotations

import numpy as np
import pytest

from indefstiefel import (
    CayleyCurve,
    ManifoldSpec,
    WellDefinednessError,
    feasibility,
    make_point,
)
from indefstiefel import retraction
from indefstiefel.linalg import skew

from conftest import CURVES, DenseCayleyCurve, random_spd, random_spec, woodbury_curve
from theory import (
    cayley_radius_bound,
    definedness_radius,
    random_tangent,
    retraction_axioms_check,
    s_matrix,
    second_order_defect,
    solve_a,
    spectrum_is_imaginary,
    tangency_residual,
)

FORMS = tuple(CURVES)


def hyperbola():
    """One-column manifold x^T diag(-1,1) x = -1: the unit hyperbola."""
    spec = ManifoldSpec(np.diag([-1.0, 1.0]), np.array([[-1.0]]))
    x = np.array([[1.0], [0.0]])
    z = np.array([[0.0], [1.0]])
    return spec, x, z


def defect_instance():
    """3x3 instance with a closed-form second-order defect matrix."""
    s5, s3 = np.sqrt(5.0), np.sqrt(3.0)
    a = np.array([
        [-7 / 3, -2 / 3, 4 / 3],
        [-2 / 3, -23 / 15, -14 / 15],
        [4 / 3, -14 / 15, -2 / 15],
    ])
    j = np.array([[0.0, -1.0], [-1.0, 0.0]])
    x = np.array([
        [(s5 - s3) / 6, (s5 + s3) / 6],
        [(s5 + 5 * s3) / 30, (s5 - 5 * s3) / 30],
        [-(s5 + 5 * s3) / 15, (-s5 + 5 * s3) / 15],
    ])
    spec = ManifoldSpec(a, j)
    w = np.diag([1.0, -1.0])  # J W is skew
    x_perp = np.array([[0.0], [2.0], [1.0]])
    k_free = np.array([[1.0, 0.0]])
    z = x @ w + solve_a(spec, x_perp @ k_free)
    return spec, x, z


# ------------------------------------------------------------------- S matrix


def test_s_matrix_is_skew_and_generates_direction():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        p = int(rng.integers(1, n))
        kp, km = min(p, 2), min(n - p, 1)
        if kp + km == 0:
            continue
        spec = random_spec(rng, n, p, kp, km)
        x = make_point(spec)
        z = random_tangent(spec, x, rng)
        s = s_matrix(spec, x, z)
        assert np.allclose(s, -s.T, atol=1e-10 * max(np.linalg.norm(s), 1.0))
        # the curve through X with generator S A has initial velocity Z
        assert np.allclose(s @ (spec.A @ x), z, atol=1e-8 * max(np.linalg.norm(z), 1.0))


# ------------------------------------------------------- hyperbola closed form


def test_hyperbola_s_matrix_exact():
    spec, x, z = hyperbola()
    s = s_matrix(spec, x, z)
    assert np.array_equal(s @ spec.A, np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("form", FORMS)
def test_hyperbola_step_closed_form(form):
    spec, x, z = hyperbola()
    y = CURVES[form](spec, x, z).at(1.0)
    assert np.allclose(y.ravel(), [5.0 / 3.0, 4.0 / 3.0], atol=1e-14)
    assert feasibility(spec, y) <= 1e-14


@pytest.mark.parametrize("form", FORMS)
def test_hyperbola_breakdown_raises(form):
    spec, x, z = hyperbola()
    with pytest.raises(WellDefinednessError):
        CURVES[form](spec, x, z).at(2.0)


def test_hyperbola_definedness_radius():
    spec, x, _ = hyperbola()
    assert definedness_radius(spec, x) == pytest.approx(1.0 / 3.0)


def test_hyperbola_spectrum_not_imaginary():
    spec, x, z = hyperbola()
    s = s_matrix(spec, x, z)
    assert not spectrum_is_imaginary(s, spec.A)


# ------------------------------------------------------------ retraction axioms


@pytest.mark.parametrize("form", FORMS)
def test_retraction_fixes_base(form):
    rng = np.random.default_rng(1)
    spec = random_spec(rng, 8, 5, 2, 1)
    x = make_point(spec)
    z = random_tangent(spec, x, rng)
    assert np.linalg.norm(CURVES[form](spec, x, z).at(0.0) - x) <= 1e-13


def test_retraction_slope_first_order_decay():
    rng = np.random.default_rng(2)
    spec = random_spec(rng, 7, 4, 1, 2)
    x = make_point(spec)
    z = random_tangent(spec, x, rng)
    z = z / np.linalg.norm(z)
    _, r2_coarse = retraction_axioms_check(spec, x, z, 1e-3)
    _, r2_fine = retraction_axioms_check(spec, x, z, 1e-5)
    assert r2_fine <= 1e-3
    assert r2_coarse / r2_fine == pytest.approx(100.0, rel=0.2)


def test_retraction_central_difference_second_order():
    rng = np.random.default_rng(3)
    spec = random_spec(rng, 7, 4, 1, 2)
    x = make_point(spec)
    z = random_tangent(spec, x, rng)
    # norm 3 keeps the h=1e-5 truncation error above the rounding floor
    z = 3.0 * z / np.linalg.norm(z)
    curve = CayleyCurve(spec, x, z)
    errors = [
        np.linalg.norm((curve.at(h) - curve.at(-h)) / (2.0 * h) - z)
        for h in (1e-3, 1e-4, 1e-5)
    ]
    assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.3)
    assert errors[1] / errors[2] == pytest.approx(100.0, rel=0.3)


# ----------------------------------------------------- feasibility and agreement


def test_feasibility_preserved_and_forms_agree():
    rng = np.random.default_rng(4)
    worst_feas, worst_cross = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(2, 14))
        p = int(rng.integers(1, n))
        kp = int(rng.integers(0, min(p, 3) + 1))
        km = int(rng.integers(0 if kp else 1, min(n - p, 3) + 1))
        if kp + km == 0:
            kp = 1
        spec = random_spec(rng, n, p, kp, km, diagonal=bool(rng.integers(2)))
        x = make_point(spec)
        z = random_tangent(spec, x, rng)
        z = z / max(np.linalg.norm(z), 1e-300)
        t = float(rng.uniform(0.05, 1.5))
        try:
            ys = [CURVES[f](spec, x, z).at(t) for f in FORMS]
        except WellDefinednessError:
            continue
        scale = max(np.linalg.norm(spec.J), 1.0)
        worst_feas = max(worst_feas, max(feasibility(spec, y) for y in ys) / scale)
        ref = max(np.linalg.norm(ys[0]), 1.0)
        worst_cross = max(worst_cross, np.linalg.norm(ys[0] - ys[1]) / ref)
    assert worst_feas <= 1e-8
    assert worst_cross <= 1e-9


def test_compact_forms_exact_off_the_manifold():
    # the Cayley transform is a congruence at any base point: from an X whose
    # X^T A X misses J by about 1e-6, both kernels must give the same point and
    # keep X^T A X itself, so roundoff drift cannot grow along a run
    rng = np.random.default_rng(11)
    worst_cross, worst_gram, evaluated = 0.0, 0.0, 0
    for _ in range(100):
        n = int(rng.integers(4, 14))
        p = int(rng.integers(1, n))
        kp = int(rng.integers(0, min(p, 3) + 1))
        km = int(rng.integers(0 if kp else 1, min(n - p, 3) + 1))
        if kp + km == 0:
            kp = 1
        spec = random_spec(rng, n, p, kp, km, diagonal=bool(rng.integers(2)))
        x = make_point(spec)
        z = random_tangent(spec, x, rng)
        z = z / max(np.linalg.norm(z), 1e-300)
        x = x + 1e-6 * rng.standard_normal(x.shape)
        assert feasibility(spec, x) >= 1e-8
        t = float(rng.uniform(0.05, 1.5))
        try:
            ys = {f: CURVES[f](spec, x, z).at(t) for f in FORMS}
        except WellDefinednessError:
            continue
        evaluated += 1
        gram = x.T @ (spec.A @ x)
        gram_scale = max(np.linalg.norm(gram), 1.0)
        ref = max(np.linalg.norm(ys["dense"]), 1.0)
        y = ys["woodbury"]
        worst_cross = max(worst_cross, np.linalg.norm(y - ys["dense"]) / ref)
        worst_gram = max(worst_gram, np.linalg.norm(y.T @ (spec.A @ y) - gram) / gram_scale)
    assert evaluated >= 50
    assert worst_cross <= 1e-12
    assert worst_gram <= 1e-12


def test_curve_with_given_a_x_gives_the_same_bits():
    # the solver passes the A X of its point to the curve it builds there;
    # (12, 5) takes the dense kernel and (40, 5) the Woodbury one
    rng = np.random.default_rng(12)
    for n, p in ((12, 7), (40, 25)):
        spec = random_spec(rng, n, p, 3, 2)
        x = make_point(spec)
        z = random_tangent(spec, x, rng)
        x = x + 1e-6 * rng.standard_normal(x.shape)
        given = CayleyCurve(spec, x, z, spec.apply_a(x)).at(0.4)
        assert np.array_equal(given, CayleyCurve(spec, x, z).at(0.4))


def test_retraction_curve_stays_feasible_along_path():
    rng = np.random.default_rng(5)
    spec = random_spec(rng, 9, 5, 2, 2)
    x = make_point(spec)
    z = random_tangent(spec, x, rng)
    curve = CayleyCurve(spec, x, z / np.linalg.norm(z))
    for t in np.linspace(-1.2, 1.2, 9):
        assert feasibility(spec, curve.at(float(t))) <= 1e-10


def test_default_form_switches_on_width():
    # lehmer200 (200, 5) and tridiag2000 (2000, 10) take the 2k x 2k kernel,
    # procrustes200 (k = n = 200) the dense one
    assert retraction._woodbury(1000, 10)
    assert not retraction._woodbury(12, 5)
    assert not retraction._woodbury(200, 200)
    assert retraction._woodbury(200, 5)
    assert retraction._woodbury(2000, 10)
    # k <= n/3, below the measured crossover (k near 17 at n = 50)
    assert retraction._woodbury(50, 16)
    assert not retraction._woodbury(50, 17)
    # the curve runs the kernel the rule picks, bit for bit
    rng = np.random.default_rng(10)
    for (n, p, kp, km), reference in (((12, 7, 3, 2), DenseCayleyCurve), ((40, 25, 3, 2), woodbury_curve)):
        spec = random_spec(rng, n, p, kp, km)
        x = make_point(spec)
        z = random_tangent(spec, x, rng)
        assert np.array_equal(CayleyCurve(spec, x, z).at(0.4), reference(spec, x, z).at(0.4))


# ------------------------------------------------------------- definedness radius


def test_radius_bound_formula_and_monotonicity():
    assert cayley_radius_bound(1.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert cayley_radius_bound(2.0, 1.0, 1.0) < cayley_radius_bound(1.0, 1.0, 1.0)
    assert cayley_radius_bound(1.0, 1.0, 5.0) < cayley_radius_bound(1.0, 1.0, 1.0)


@pytest.mark.parametrize("form", FORMS)
def test_retraction_defined_inside_radius(form):
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n))
        kp, km = min(p, 1), min(n - p, 1)
        if kp + km == 0:
            continue
        spec = random_spec(rng, n, p, kp, km)
        x = make_point(spec)
        delta = definedness_radius(spec, x)
        z = random_tangent(spec, x, rng)
        z = z * (0.99 * delta / np.linalg.norm(z, 2))
        y = CURVES[form](spec, x, z).at(1.0)  # must not raise
        assert feasibility(spec, y) <= 1e-8


# --------------------------------------------------------- spd-A global existence


def test_spectrum_imaginary_for_definite_a():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        a = random_spd(rng, n)
        s = skew(rng.standard_normal((n, n)))
        assert spectrum_is_imaginary(s, a)


def test_definite_a_curve_never_breaks_down():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, min(n, 4) + 1))
        a = random_spd(rng, n)
        spec = ManifoldSpec(a, np.eye(k))
        x = make_point(spec)
        z = random_tangent(spec, x, rng)
        curve = CayleyCurve(spec, x, z / max(np.linalg.norm(z), 1e-300))
        for t in (1.0, 10.0, 100.0, 1000.0):
            y = curve.at(t)
            assert feasibility(spec, y) <= 1e-7


# ------------------------------------------------------------ second-order defect


def test_second_order_defect_closed_form():
    spec, x, z = defect_instance()
    assert feasibility(spec, x) <= 1e-14
    assert tangency_residual(spec, x, z) <= 1e-14
    d = second_order_defect(spec, x, z)
    expected = np.array([[2.0, -2.0 / 3.0], [-3.0 / 2.0, 1.0 / 3.0]])
    assert np.allclose(d, expected, atol=1e-12)
    # the asymmetry is the witness: the curve is not a second-order retraction
    assert np.linalg.norm(d - d.T) > 0.5


def test_second_order_defect_zero_direction():
    rng = np.random.default_rng(9)
    spec = random_spec(rng, 6, 4, 2, 1)
    x = make_point(spec)
    d = second_order_defect(spec, x, np.zeros((6, 3)))
    assert np.linalg.norm(d) == 0.0


def test_well_definedness_error_is_runtime_error():
    assert issubclass(WellDefinednessError, RuntimeError)

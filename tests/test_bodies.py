import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthlab import (
    NumericalFailureError,
    PreconditionError,
    RejectedInputError,
    check_quadratic_convexity,
    dual_body,
    dual_gauge,
    legendre,
    legendre_inverse,
    make_ellipsoid,
    make_power_mean,
    project_to_surface,
    scale_body,
)
from girthlab import bodies
from girthlab.bodies import tangent_basis

from oracles import brute_support, fd_gradient, fd_hessian

RNG = np.random.default_rng(42)


def unit_vectors(m, dim=3, seed=0):
    v = np.random.default_rng(seed).standard_normal((m, dim))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# import


def test_import_leaves_scipy_unloaded():
    src = str(Path(bodies.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, girthlab; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.split() == ["False"]


# ---------------------------------------------------------------------------
# constructors


def test_ellipsoid_rejects_non_symmetric():
    A = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(RejectedInputError):
        make_ellipsoid(A)


def test_ellipsoid_rejects_indefinite():
    with pytest.raises(RejectedInputError):
        make_ellipsoid(np.diag([1.0, -1.0, 1.0]))


def test_power_mean_rejects_odd_exponent():
    with pytest.raises(RejectedInputError):
        make_power_mean([np.eye(3)], 3)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (
            lambda pm: pm.gauge(np.zeros((2, 3))),
            PreconditionError,
            "undefined at the origin",
        ),
        (
            lambda pm: make_ellipsoid(np.eye(3)).gauge(np.zeros(3)),
            PreconditionError,
            "undefined at the origin",
        ),
        (
            lambda pm: make_ellipsoid(np.eye(3)).jet(np.zeros((2, 3)), 1),
            PreconditionError,
            "undefined at the origin",
        ),
        (
            lambda pm: project_to_surface(make_ellipsoid(np.eye(3)), np.zeros((1, 3))),
            PreconditionError,
            "undefined at the origin",
        ),
        (lambda pm: make_ellipsoid(np.ones((2, 3))), RejectedInputError, "must be square"),
        (lambda pm: make_power_mean([], 4), RejectedInputError, "at least one quadratic term"),
        (
            lambda pm: make_power_mean([np.eye(3), np.eye(2)], 4),
            RejectedInputError,
            "share one dimension",
        ),
        (lambda pm: scale_body(pm, 0.0), RejectedInputError, "scale factor must be positive"),
        (lambda pm: scale_body(pm, -2.0), RejectedInputError, "scale factor must be positive"),
        (lambda pm: scale_body(pm, np.nan), RejectedInputError, "scale factor must be positive"),
        (lambda pm: scale_body(pm, np.inf), RejectedInputError, "scale factor must be positive"),
        (
            lambda pm: make_ellipsoid(np.diag([1.0, 1.0, np.inf])),
            RejectedInputError,
            "ellipsoid matrix must be finite",
        ),
        (
            lambda pm: make_ellipsoid(np.diag([1.0, np.nan, 1.0])),
            RejectedInputError,
            "ellipsoid matrix must be finite",
        ),
        (
            lambda pm: make_power_mean([np.eye(3), np.diag([1.0, 1.0, np.inf])], 4),
            RejectedInputError,
            "matrices must be finite",
        ),
        (
            lambda pm: legendre_inverse(pm, np.array([[0.1, 0.0, 0.0]])),
            PreconditionError,
            r"requires F\*\(xi\) = 1",
        ),
        (
            lambda pm: check_quadratic_convexity(pm, 0, seed=0),
            RejectedInputError,
            "at least one sample",
        ),
    ],
    ids=[
        "gauge-at-origin",
        "ellipsoid-gauge-at-origin",
        "ellipsoid-jet-at-origin",
        "ellipsoid-projection-at-origin",
        "ellipsoid-not-square",
        "power-mean-no-terms",
        "power-mean-mixed-dims",
        "scale-zero",
        "scale-negative",
        "scale-nan",
        "scale-inf",
        "ellipsoid-inf",
        "ellipsoid-nan",
        "power-mean-inf",
        "legendre-inverse-off-dual-sphere",
        "convexity-no-samples",
    ],
)
def test_rejected_inputs_raise_typed_errors(pm_body, call, error, match):
    with pytest.raises(error, match=match):
        call(pm_body)


def test_power_mean_p2_is_ellipsoid():
    mats = [np.diag([1.0, 2.0, 0.5]), np.eye(3)]
    pm = make_power_mean(mats, 2)
    el = make_ellipsoid(mats[0] + mats[1])
    x = RNG.standard_normal((50, 3))
    np.testing.assert_allclose(pm.gauge(x), el.gauge(x), rtol=1e-12)


def test_gauge_homogeneity(pm_body, aniso_ellipsoid):
    x = RNG.standard_normal((20, 3))
    lam = RNG.uniform(0.1, 10.0, size=20)
    for b in (pm_body, aniso_ellipsoid):
        np.testing.assert_allclose(
            b.gauge(lam[:, None] * x), lam * b.gauge(x), rtol=1e-12
        )


def test_gauge_symmetry(pm_body6):
    x = RNG.standard_normal((20, 3))
    np.testing.assert_allclose(pm_body6.gauge(-x), pm_body6.gauge(x), rtol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gauge_triangle_inequality(seed):
    mats = [np.diag([1.0, 2.0, 0.5]), np.eye(3)]
    b = make_power_mean(mats, 4)
    r = np.random.default_rng(seed)
    x, y = r.standard_normal(3), r.standard_normal(3)
    assert b.gauge(x + y) <= b.gauge(x) + b.gauge(y) + 1e-12


def test_gradient_matches_finite_differences(pm_body, pm_body6, tilted_ellipsoid):
    for b in (pm_body, pm_body6, tilted_ellipsoid):
        for x in RNG.standard_normal((5, 3)):
            g = b.gradient(x)
            gfd = fd_gradient(lambda y: float(b.gauge(y)), x)
            np.testing.assert_allclose(g, gfd, rtol=0, atol=5e-8)


def test_hessian_matches_finite_differences(pm_body, pm_body6):
    for b in (pm_body, pm_body6):
        for x in RNG.standard_normal((4, 3)):
            H = b.hessian_half_sq(x)

            def grad_half_sq(y):
                return b.gauge(y) * b.gradient(y)

            Hfd = fd_hessian(grad_half_sq, x)
            np.testing.assert_allclose(H, Hfd, rtol=0, atol=5e-7)


def test_euler_identity(pm_body):
    # 1-homogeneity: <grad F(x), x> = F(x)
    x = RNG.standard_normal((100, 3))
    lhs = np.einsum("ij,ij->i", pm_body.gradient(x), x)
    np.testing.assert_allclose(lhs, pm_body.gauge(x), rtol=1e-12)


def test_scale_body(pm_body):
    doubled = scale_body(pm_body, 2.0)
    x = RNG.standard_normal((10, 3))
    np.testing.assert_allclose(doubled.gauge(x), 2.0 * pm_body.gauge(x), rtol=1e-12)
    np.testing.assert_allclose(
        doubled.gradient(x), 2.0 * pm_body.gradient(x), rtol=1e-12
    )


@pytest.fixture(params=["ellipsoid", "power_mean_p2", "power_mean_p6", "scaled", "numeric_dual"])
def any_body(request, tilted_ellipsoid, pm_body, pm_body6):
    return {
        "ellipsoid": lambda: tilted_ellipsoid,
        "power_mean_p2": lambda: make_power_mean([np.diag([1.0, 2.0, 0.5])], 2),
        "power_mean_p6": lambda: pm_body6,
        "scaled": lambda: scale_body(pm_body, 1.7),
        "numeric_dual": lambda: dual_body(pm_body6),
    }[request.param]()


def _bits(*arrays):
    return [None if a is None else np.asarray(a).tobytes() for a in arrays]


def test_jet_orders_share_bits_with_the_evaluators(any_body):
    x = np.random.default_rng(8).standard_normal((9, 3))
    F0, g0, H0 = any_body.jet(x, 0)
    F1, g1, H1 = any_body.jet(x, 1)
    F2, g2, H2 = any_body.jet(x, 2)
    assert g0 is None and H0 is None and H1 is None
    # asking for more orders leaves the lower ones bit for bit as they were
    assert _bits(F0, F1, g1) == _bits(F2, F2, g2)
    # the evaluator fields are the jet's components
    assert _bits(any_body.gauge(x), any_body.gradient(x), any_body.hessian_half_sq(x)) == _bits(
        F2, g2, H2
    )


def test_jet_batch_equals_rows(any_body):
    # a row has the bits of its batch, as a batch of one and as one 1-D
    # point (the power mean evaluates a point as a batch of one, where
    # numpy's power on a 0-d sum could differ in the last bit).  The
    # 32768-row batch is the maps batch: the ellipsoid's x @ A^T runs on
    # BLAS, which may pick other kernels for large products
    rng = np.random.default_rng(9)
    for m in (9, 32768):
        x = rng.standard_normal((m, 3))
        batch = any_body.jet(x, 2)
        for i in sorted({*range(min(m, 9)), m // 3, m // 2, m - 1}):
            assert _bits(*any_body.jet(x[i : i + 1], 2)) == _bits(*(a[i : i + 1] for a in batch))
            assert _bits(*any_body.jet(x[i], 2)) == _bits(*(a[i] for a in batch))


def test_tangent_basis_orthonormal_complement():
    g = RNG.standard_normal((50, 3))
    T = tangent_basis(g)
    gram = np.einsum("kia,kib->kab", T, T)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-12)
    np.testing.assert_allclose(np.einsum("ki,kia->ka", g, T), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# duality


def test_dual_ellipsoid_closed_form(tilted_ellipsoid):
    Ainv = np.linalg.inv(tilted_ellipsoid.params["A"])
    xi = RNG.standard_normal((30, 3))
    expect = np.sqrt(np.einsum("ki,ij,kj->k", xi, Ainv, xi))
    np.testing.assert_allclose(dual_gauge(tilted_ellipsoid, xi), expect, rtol=1e-10)


def test_dual_gauge_matches_brute_support(pm_body):
    xi = RNG.standard_normal((10, 3))
    vals = dual_gauge(pm_body, xi)
    for x, v in zip(xi, vals):
        oracle = brute_support(pm_body.gauge, x)
        assert abs(v - oracle) <= 2e-3 * abs(v)
        assert v >= oracle - 1e-9  # support mesh only undershoots


def test_dual_gauge_even(pm_body):
    xi = RNG.standard_normal((20, 3))
    np.testing.assert_allclose(
        dual_gauge(pm_body, -xi), dual_gauge(pm_body, xi), rtol=1e-10
    )


def test_biduality_round_trip(pm_body, pm_body6, tilted_ellipsoid):
    for b in (pm_body, pm_body6, tilted_ellipsoid):
        dd = dual_body(dual_body(b))
        x = RNG.standard_normal((200, 3))
        np.testing.assert_allclose(dd.gauge(x), b.gauge(x), rtol=1e-8)


def test_legendre_round_trip(pm_body):
    x = RNG.standard_normal((200, 3))
    q = x / pm_body.gauge(x)[:, None]
    xi = legendre(pm_body, q)
    q2 = legendre_inverse(pm_body, xi)
    np.testing.assert_allclose(q2, q, atol=1e-8)
    # supporting hyperplane normalization: <xi, q> = 1
    np.testing.assert_allclose(np.einsum("ij,ij->i", xi, q), 1.0, rtol=1e-10)


def test_legendre_requires_surface_point(pm_body):
    with pytest.raises(PreconditionError):
        legendre(pm_body, np.array([2.0, 0.0, 0.0]))


def test_dual_hessians_are_inverse(pm_body):
    d = dual_body(pm_body)
    xi = RNG.standard_normal((5, 3))
    for x in xi:
        Hd = d.hessian_half_sq(x)
        x_primal = legendre_inverse(pm_body, x / d.gauge(x)) * d.gauge(x)
        # gradient-inverse point of x
        Hp = pm_body.hessian_half_sq(x_primal)
        np.testing.assert_allclose(Hd @ Hp, np.eye(3), atol=1e-7)


# power means anisotropic enough that many rows take halved Newton steps
DAMPED = {
    "p8": ([np.diag([1.0, 100.0, 0.01]), np.eye(3)], 8),
    "p10": ([np.diag([1.0, 400.0, 0.0025]), np.diag([50.0, 1.0, 1.0])], 10),
}


@pytest.mark.parametrize("section", [False, True], ids=["full", "section"])
@pytest.mark.parametrize("name", sorted(DAMPED))
def test_damped_gradient_inverse_solves_the_gradient_equation(name, section):
    mats, p = DAMPED[name]
    body = make_power_mean(mats, p)
    rng = np.random.default_rng(p)
    xi = rng.standard_normal((2000, 3))
    T = tangent_basis(rng.standard_normal((2000, 3))) if section else None

    def check(x):
        F, g, _ = body.jet(x, 1)
        r = F[:, None] * g - xi
        if section:
            r = np.einsum("kia,ki->ka", T, r)
        assert np.all(np.linalg.norm(r, axis=-1) <= 1e-12 * np.linalg.norm(xi, axis=-1))

    check(bodies._solve_gradient_inverse(body, xi, T))
    # warm-started from the solution for a perturbed xi, a quarter of the
    # rows cold
    start = bodies._solve_gradient_inverse(body, xi + 0.05 * rng.standard_normal(xi.shape), T)
    start[rng.random(len(xi)) < 0.25] = np.nan
    check(bodies._solve_gradient_inverse(body, xi, T, start))


def _counting_body(name):
    """A body of the damped cases (or an anisotropic ellipsoid) whose jet
    logs each call's order and points.  The views bind the jet in
    __post_init__, so replace() rebuilds them around the counting jet."""
    if name == "ellipsoid":
        base = make_ellipsoid(np.diag([1.0, 100.0, 0.01]))
    else:
        base = make_power_mean(*DAMPED[name])
    calls = []

    def counting(x, order):
        calls.append((order, np.array(x)))
        return base.jet(x, order)

    return dataclasses.replace(base, jet=counting), calls


@pytest.mark.parametrize("name", ["ellipsoid", "p8"])
def test_gradient_inverse_takes_one_order_2_jet_per_trial(name):
    # one order-2 jet at the start, then one per trial point set: it gives
    # the trials' residuals and the Newton steps from them, so no jet
    # revisits a point already evaluated and no order-1 jet is taken
    body, calls = _counting_body(name)
    rng = np.random.default_rng(3)
    xi = rng.standard_normal((200, 3))
    for T in (None, tangent_basis(rng.standard_normal((200, 3)))):
        calls.clear()
        bodies._solve_gradient_inverse(body, xi, T)
        seen = set()
        for order, x in calls:
            rows = {row.tobytes() for row in x}
            assert order == 2 and rows.isdisjoint(seen)
            seen |= rows
        if name == "ellipsoid":
            # the quadratic-model start is exact: the start and its check
            assert len(calls) == 2


@pytest.mark.parametrize("name", ["ellipsoid", "p8"])
def test_gradient_inverse_from_its_solution_takes_one_jet(name):
    # a start at the solution is already accepted: its one order-2 jet is
    # the residual check, with no quadratic-model jet before it
    body, calls = _counting_body(name)
    rng = np.random.default_rng(4)
    xi = 3.0 * rng.standard_normal((200, 3))
    for T in (None, tangent_basis(rng.standard_normal((200, 3)))):
        x = bodies._solve_gradient_inverse(body, xi, T)
        calls.clear()
        again = bodies._solve_gradient_inverse(body, xi, T, x)
        assert [order for order, _ in calls] == [2]
        np.testing.assert_allclose(again, x, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_unconverged_dual_inverse_raises(monkeypatch, pm_body, warm):
    # no Newton pass leaves the start's residual standing: the quadratic
    # model's, or an off warm start's, which is not retried cold
    monkeypatch.setattr(bodies, "_DUAL_MAXIT", 0)
    xi = np.array([0.3, -0.5, 0.8])
    start = np.array([1.0, 0.2, -0.4]) if warm else None
    with pytest.raises(NumericalFailureError) as info:
        bodies.numeric_dual_jet(pm_body, xi, 0, start)
    assert np.isfinite(info.value.best_bound)


def test_convexity_certificate_positive(pm_body, pm_body6, tilted_ellipsoid):
    for b in (pm_body, pm_body6, tilted_ellipsoid):
        assert check_quadratic_convexity(b, 500, seed=0) > 0.0

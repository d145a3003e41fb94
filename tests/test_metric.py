import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthlab import (
    EmbeddedSphere,
    NumericalFailureError,
    PreconditionError,
    cosphere_lift,
    dual_body,
    induced_hamiltonian,
    induced_length,
    make_ellipsoid,
    project_to_surface,
    restrict_covector,
    sample_cosphere,
)
from girthlab import bodies, geodesics, metric
from girthlab.bodies import legendre, legendre_inverse, numeric_dual
from girthlab.geodesics import characteristic_flow
from girthlab.maps import phi
from girthlab.metric import (
    _line_jet,
    _line_minimum,
    _safeguarded_newton,
    CoSpherePoint,
    conormal,
    line_exit_root,
    minimize_along_conormal,
    radial_chart,
)

from oracles import polygon_length

RNG = np.random.default_rng(7)


def test_project_to_surface(pm_body):
    x = RNG.standard_normal((40, 3))
    q = project_to_surface(pm_body, x)
    np.testing.assert_allclose(pm_body.gauge(q), 1.0, rtol=1e-12)


def test_dimension_mismatch_rejected(euclid):
    other = make_ellipsoid(np.eye(4))
    with pytest.raises(PreconditionError):
        EmbeddedSphere(euclid, other)


def test_conormal_pairing(round_sphere, pm_body, euclid):
    # <n_q, q> = 1 by homogeneity
    s = EmbeddedSphere(pm_body, euclid)
    q = project_to_surface(pm_body, RNG.standard_normal((30, 3)))
    n = conormal(s, q)
    np.testing.assert_allclose(np.einsum("ij,ij->i", n, q), 1.0, rtol=1e-12)


def test_conormal_requires_surface_point(round_sphere):
    with pytest.raises(PreconditionError):
        conormal(round_sphere, np.array([1.5, 0.0, 0.0]))


def test_conormal_and_hamiltonian_take_one_base_jet(pm_body, euclid):
    calls = []

    def jet(x, order):
        calls.append(order)
        return pm_body.jet(x, order)

    s = EmbeddedSphere(dataclasses.replace(pm_body, jet=jet), euclid)
    q, p = sample_cosphere(EmbeddedSphere(pm_body, euclid), 20, RNG)
    conormal(s, q)
    assert calls == [1]
    calls.clear()
    induced_hamiltonian(s, q, p)
    assert calls == [1]
    for f in (lambda: conormal(s, 1.5 * q), lambda: induced_hamiltonian(s, 1.5 * q, p)):
        with pytest.raises(PreconditionError):
            f()


@pytest.fixture(params=["tilted_ellipsoid", "pm_body", "numeric_dual"])
def chart_body(request):
    if request.param == "numeric_dual":
        return dual_body(request.getfixturevalue("pm_body6"))
    return request.getfixturevalue(request.param)


def test_radial_chart_derivatives_are_tangent_and_match_differences(chart_body):
    r = np.random.default_rng(11)
    x = r.standard_normal((40, 3)) * r.uniform(0.5, 2.0, (40, 1))
    d1, d2 = r.standard_normal((2, 40, 3))
    q, g, dq1, dq2 = radial_chart(chart_body, x, d1, d2)
    np.testing.assert_array_equal(q, x / chart_body.gauge(x)[:, None])
    np.testing.assert_array_equal(g, chart_body.gradient(x))
    h = 1e-6
    for d, dq in ((d1, dq1), (d2, dq2)):
        fd = project_to_surface(chart_body, x + h * d) - project_to_surface(chart_body, x - h * d)
        err = np.linalg.norm(fd / (2.0 * h) - dq, axis=-1)
        size = np.linalg.norm(dq, axis=-1)
        assert np.all(err <= 1e-7 * size)
        # Euler's relation: dq is tangent at q, with grad F taken at x or at q
        for grad in (g, chart_body.gradient(q)):
            assert np.all(np.abs(np.einsum("ij,ij->i", grad, dq)) <= 1e-14 * size)


def test_radial_chart_batch_equals_rows(chart_body):
    r = np.random.default_rng(12)
    x, d = r.standard_normal((2, 33, 3))
    full = radial_chart(chart_body, x, d)
    rows = [radial_chart(chart_body, x[i : i + 1], d[i : i + 1]) for i in range(33)]
    for k, a in enumerate(full):
        assert np.concatenate([row[k] for row in rows]).tobytes() == a.tobytes()


def test_restrict_covector_is_canonical_and_idempotent(pm_body, euclid):
    s = EmbeddedSphere(pm_body, euclid)
    q = project_to_surface(pm_body, RNG.standard_normal((30, 3)))
    P = RNG.standard_normal((30, 3))
    p = restrict_covector(s, P, q)
    np.testing.assert_allclose(np.einsum("ij,ij->i", p, q), 0.0, atol=1e-12)
    np.testing.assert_allclose(restrict_covector(s, p, q), p, atol=1e-12)


def test_line_minimization_zero_covector(round_sphere):
    t, val = minimize_along_conormal(
        round_sphere.dual2, np.zeros(3), np.array([1.0, 0.0, 0.0])
    )
    assert t == 0.0 and val == 0.0


def _conormal_lines(body1, m, seed):
    """Random canonical covectors p and conormals n on the unit surface of body1."""
    r = np.random.default_rng(seed)
    s = EmbeddedSphere(body1, body1)
    q = project_to_surface(body1, r.standard_normal((m, 3)))
    return restrict_covector(s, r.standard_normal((m, 3)), q), conormal(s, q)


_NAN_SITES = ["conormal", "legendre", "legendre_inverse", "induced_hamiltonian", "phi", "flow"]


@pytest.mark.parametrize("site", _NAN_SITES)
def test_nan_input_raises_precondition_error(site, monkeypatch, pm_body):
    # each precondition check fails a NaN point or covector (NaN > tol is
    # False, so a check written as any(err > tol) would let it through);
    # pm4 in e-amb, as in the crofton workload
    s = EmbeddedSphere(pm_body, make_ellipsoid(np.diag([1.0, 1.4, 0.7])))
    q, p = sample_cosphere(s, 1, np.random.default_rng(18))
    q, p, nan = q[0], p[0], np.full(3, np.nan)
    if site == "flow":
        with pytest.raises(PreconditionError):
            characteristic_flow(s, CoSpherePoint(q, nan), 1.0, 0.1)
        # the flow's own start check, reached with a NaN level
        monkeypatch.setattr(geodesics, "induced_hamiltonian", lambda *_: np.nan)
    calls = {
        "conormal": lambda: conormal(s, nan),
        "legendre": lambda: legendre(pm_body, nan),
        "legendre_inverse": lambda: legendre_inverse(pm_body, nan),
        "induced_hamiltonian": lambda: induced_hamiltonian(s, q, nan),
        "phi": lambda: phi(s, q, nan),
        "flow": lambda: characteristic_flow(s, CoSpherePoint(q, p), 1.0, 0.1),
    }
    with pytest.raises(PreconditionError):
        calls[site]()


@pytest.mark.parametrize("which", ["numeric_dual", "power_mean", "ellipsoid"])
def test_line_minimization_batch_equals_rows(which, pm_body, aniso_ellipsoid, tilted_ellipsoid):
    # evaluators and the ellipsoid's closed form are row-independent, so a
    # batched call gives every row the bits of its own scalar call,
    # whichever entries share its batch, also in a batch the size of the
    # maps batch (the ellipsoid's products run on BLAS)
    duals = {
        "numeric_dual": dual_body(pm_body),
        "power_mean": pm_body,
        "ellipsoid": dual_body(tilted_ellipsoid),
    }
    dual = duals[which]
    for m, seed in ((12, 11), (32768, 12)):
        p, n = _conormal_lines(aniso_ellipsoid, m, seed)
        t, val = minimize_along_conormal(dual, p, n)
        for i in sorted({*range(min(m, 12)), m // 3, m // 2, m - 1}):
            ti, vi = minimize_along_conormal(dual, p[i], n[i])
            assert ti.tobytes() == t[i].tobytes() and vi.tobytes() == val[i].tobytes()


def test_line_minimization_skips_converged_entries(pm_body):
    # m - 1 entries start at their minimum (n tangent to the level set of p)
    # and converge on the first Newton pass; one generic entry needs more.
    # A solver that re-evaluates the whole batch evaluates m points a pass.
    counts = {"calls": 0, "points": 0}

    def counted(x, order):
        if order:  # the slope evaluations; order 0 is the closing gauge
            counts["calls"] += 1
            counts["points"] += np.atleast_2d(x).shape[0]
        return pm_body.jet(x, order)

    body = dataclasses.replace(pm_body, jet=counted)
    r = np.random.default_rng(5)
    p = r.standard_normal((16, 3))
    n = np.cross(pm_body.gradient(p), r.standard_normal((16, 3)))
    p[0], n[0] = [1.0, 0.2, -0.3], [0.1, 1.0, 0.4]
    t, _ = minimize_along_conormal(body, p, n)
    assert np.all(np.abs(t[1:]) < 1e-9) and abs(t[0]) > 1e-3
    assert counts["points"] < len(p) * counts["calls"]


def _as_kind(dual, kind):
    """The dual itself, or a copy whose kind sends it down the Newton path."""
    return dual if kind == "ellipsoid" else dataclasses.replace(dual, kind=kind)


_BOTH_PATHS = [
    (w, k) for k in ("ellipsoid", "generic") for w in ("tilted_ellipsoid", "aniso_ellipsoid")
]


@pytest.mark.parametrize(
    "which, kind", _BOTH_PATHS, ids=[w if k == "ellipsoid" else f"{w}-{k}" for w, k in _BOTH_PATHS]
)
def test_line_minimization_matches_ellipsoid_closed_form(which, kind, request):
    # the dual of an ellipsoid x'Ax is the ellipsoid xi'Bxi with B = A^-1,
    # and t -> (p + t n)'B(p + t n) is least at t* = -(n'Bp) / (n'Bn); the
    # generic copy checks the safeguarded Newton against the same closed form
    dual = _as_kind(dual_body(request.getfixturevalue(which)), kind)
    B = dual.params["A"]
    r = np.random.default_rng(3)
    p, n = r.standard_normal((2000, 3)), r.standard_normal((2000, 3))
    t_star = -np.einsum("ki,ij,kj->k", n, B, p) / np.einsum("ki,ij,kj->k", n, B, n)
    t, _ = minimize_along_conormal(dual, p, n)
    assert np.all(np.abs(t - t_star) <= 1e-13 * (1.0 + np.abs(t_star)))
    for i in range(0, len(p), 10):
        ti, _ = minimize_along_conormal(dual, p[i], n[i])
        assert abs(ti - t_star[i]) <= 1e-13 * (1.0 + abs(t_star[i]))


@pytest.mark.parametrize("which", ["pm_body", "pm_body6", "tilted_ellipsoid"])
def test_numeric_dual_line_minimum_takes_the_primal_section(
    which, monkeypatch, request, aniso_ellipsoid
):
    # on a numeric dual, min_t F*(p + t n) is the support of the primal's
    # section n'x = 0 in the direction p: one section solve, no 1-D Newton
    # iteration.  A generic copy of the same dual takes the safeguarded
    # Newton; measured over these 1000 lines the two differ by at most
    # 1.2e-13 in t, 1.8e-15 in the value and 1.3e-13 in grad F*, and on
    # e-tilt the section route is within 1.5e-15 of the closed-form dual
    newton = []
    solver = metric._safeguarded_newton

    def counted(*args):
        newton.append(1)
        return solver(*args)

    monkeypatch.setattr(metric, "_safeguarded_newton", counted)
    primal = request.getfixturevalue(which)
    dual = numeric_dual(primal)
    p, n = _conormal_lines(aniso_ellipsoid, 1000, 13)
    t, G, m = _line_minimum(dual, p, n, 1)
    assert newton == []
    refs = [_line_minimum(dataclasses.replace(dual, kind="generic"), p, n, 1)]
    assert newton
    if which == "tilted_ellipsoid":
        refs.append(_line_minimum(dual_body(primal), p, n, 1))
    for (t_ref, G_ref, m_ref), tol in zip(refs, (1e-12, 1e-14)):
        assert np.abs(t - t_ref).max() <= tol
        assert np.abs(G - G_ref).max() <= 1e-14
        assert np.abs(m - m_ref).max() <= tol
    # grad F* at the minimum is x / F(x) for x on the section: <x, n> = 0
    dot = np.abs(np.einsum("ij,ij->i", m, n))
    assert np.all(dot <= 1e-14 * np.linalg.norm(m, axis=-1) * np.linalg.norm(n, axis=-1))


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("route", ["section", "newton", "closed-form"])
def test_line_minimum_zero_rows(route, order, pm_body, aniso_ellipsoid):
    # p = 0 rows short-circuit on every route: t = 0, value 0, NaN gradient;
    # the live rows keep the bits of a call without the zero rows
    dual = {
        "section": numeric_dual(pm_body),
        "newton": pm_body,
        "closed-form": dual_body(aniso_ellipsoid),
    }[route]
    p, n = _conormal_lines(aniso_ellipsoid, 6, 17)
    p[[1, 4]] = 0.0
    live = [0, 2, 3, 5]
    t, G, m = _line_minimum(dual, p, n, order)
    t_ref, G_ref, m_ref = _line_minimum(dual, p[live], n[live], order)
    assert np.all(t[[1, 4]] == 0.0) and np.all(G[[1, 4]] == 0.0)
    assert t[live].tobytes() == t_ref.tobytes() and G[live].tobytes() == G_ref.tobytes()
    if order:
        assert np.isnan(m[[1, 4]]).all() and np.isfinite(m[live]).all()
        assert m[live].tobytes() == m_ref.tobytes()
    else:
        assert m is None and m_ref is None
    t, G, m = _line_minimum(dual, p[[1, 4]], n[[1, 4]], order)
    assert np.all(t == 0.0) and np.all(G == 0.0)
    assert m is None if order == 0 else np.isnan(m).all()
    t, G, m = _line_minimum(dual, np.zeros((0, 3)), np.zeros((0, 3)), order)
    assert t.shape == G.shape == (0,)
    assert m is None if order == 0 else m.shape == (0, 3)


def test_numeric_dual_line_minimum_failure(monkeypatch, pm_body, aniso_ellipsoid):
    # with no Newton pass the section solve stops at the quadratic-model
    # start and raises with its support value, a lower bound of the minimum
    dual = numeric_dual(pm_body)
    p, n = _conormal_lines(aniso_ellipsoid, 6, 17)
    _, G = minimize_along_conormal(dual, p[:1], n[:1])
    monkeypatch.setattr(bodies, "_DUAL_MAXIT", 0)
    with pytest.raises(NumericalFailureError) as info:
        _line_minimum(dual, p[:1], n[:1], 0)
    assert np.isfinite(info.value.best_bound)
    assert info.value.best_bound <= G[0] + 1e-12


def test_safeguarded_newton_keeps_exact_root():
    # the first iterate is an exact root: its Newton step lands on the end of
    # the bracket it closes, and the solver must keep it after one pass
    calls = []

    def f(xi, n):
        calls.append(len(xi))
        return xi[:, 0] - 0.5, np.ones(len(xi))

    t = np.array([0.5])
    ones = np.ones(1)
    _safeguarded_newton(f, np.zeros((1, 1)), np.ones((1, 1)), t, np.zeros(1), ones, 1e-13, ones)
    assert t[0] == 0.5 and calls == [1]


def test_settled_line_skips_bracket(tilted_ellipsoid):
    # the ellipsoid's closed form takes no bracket and no slope evaluation
    # at all, only its closing jet; a generic copy of the same dual takes
    # the bracketed Newton path to the same minimum
    for kind in ("ellipsoid", "generic"):
        dual = _as_kind(dual_body(tilted_ellipsoid), kind)
        counts = {"gradient": 0}

        def counted(x, order):
            counts["gradient"] += order > 0
            return dual.jet(x, order)

        body = dataclasses.replace(dual, jet=counted)
        p, n = np.array([0.3, -0.7, 0.2]), np.array([0.5, 0.4, 1.1])
        t, _ = minimize_along_conormal(body, p, n)
        if kind == "ellipsoid":
            assert counts["gradient"] <= 2
        B = dual.params["A"]
        assert t == pytest.approx(-(n @ B @ p) / (n @ B @ n), rel=1e-13)


def test_line_exit_root_raises_when_unconverged(aniso_ellipsoid):
    # a NaN derivative never gives a converged Newton step; the solver
    # raises instead of returning its last iterate
    def nan_gradient(x, order):
        F, g, H = aniso_ellipsoid.jet(x, order)
        return F, None if g is None else np.full(np.shape(x), np.nan), H

    broken = dataclasses.replace(aniso_ellipsoid, jet=nan_gradient)
    p, n = np.array([[0.0, 0.3, 0.0]]), np.array([[1.0, 0.0, 0.0]])
    assert line_exit_root(aniso_ellipsoid, p, n, np.zeros(1))[0] == pytest.approx(np.sqrt(1.0 - 0.09 * 1.5625))
    with pytest.raises(NumericalFailureError):
        line_exit_root(broken, p, n, np.zeros(1))


def test_line_jet_matches_differences_along_the_line(chart_body):
    # F and the t-derivatives of 0.5 F(p + t n)^2 at xi = p + t n; a lower
    # order leaves the values it shares with a higher one bit for bit
    r = np.random.default_rng(13)
    xi, n = r.standard_normal((2, 30, 3))
    F1, d1, none = _line_jet(chart_body, xi, n, 1)
    F, D1, D2 = _line_jet(chart_body, xi, n, 2)
    assert none is None and F1.tobytes() == F.tobytes() and d1.tobytes() == D1.tobytes()
    np.testing.assert_array_equal(F, chart_body.gauge(xi))
    h = 1e-5
    Fp, d1p, _ = _line_jet(chart_body, xi + h * n, n, 1)
    Fm, d1m, _ = _line_jet(chart_body, xi - h * n, n, 1)
    np.testing.assert_allclose((Fp**2 - Fm**2) / (4.0 * h), D1, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose((d1p - d1m) / (2.0 * h), D2, rtol=1e-7, atol=1e-9)


def test_round_hamiltonian_is_tangent_norm(round_sphere):
    # Euclidean sphere in Euclidean space: G(q, p) = |p| for tangent p
    q = project_to_surface(round_sphere.body1, RNG.standard_normal((50, 3)))
    p = restrict_covector(round_sphere, RNG.standard_normal((50, 3)), q)
    G = induced_hamiltonian(round_sphere, q, p)
    np.testing.assert_allclose(G, np.linalg.norm(p, axis=-1), rtol=1e-9)


def test_hamiltonian_positive_homogeneity(pm_body, aniso_ellipsoid):
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    q, p = sample_cosphere(s, 20, RNG)
    lam = RNG.uniform(0.3, 3.0, size=20)
    G = induced_hamiltonian(s, q, lam[:, None] * p)
    np.testing.assert_allclose(G, lam, rtol=1e-9)


def test_hamiltonian_rejects_noncanonical(round_sphere):
    q = np.array([1.0, 0.0, 0.0])
    with pytest.raises(PreconditionError):
        induced_hamiltonian(round_sphere, q, np.array([1.0, 1.0, 0.0]))


def test_ellipsoid_ambient_hamiltonian_closed_form(euclid):
    # base = Euclidean sphere, ambient gauge sqrt(x^T A x): the fiber shadow
    # gauge has the closed form G^2 = p^T A^-1 p - (q^T A^-1 p)^2 / (q^T A^-1 q)
    A = np.diag([1.0, 2.5, 0.4])
    s = EmbeddedSphere(euclid, make_ellipsoid(A))
    Ainv = np.linalg.inv(A)
    q = project_to_surface(euclid, RNG.standard_normal((40, 3)))
    p = restrict_covector(s, RNG.standard_normal((40, 3)), q)
    G = induced_hamiltonian(s, q, p)
    quad = np.einsum("ki,ij,kj->k", p, Ainv, p)
    cross = np.einsum("ki,ij,kj->k", q, Ainv, p)
    qq = np.einsum("ki,ij,kj->k", q, Ainv, q)
    np.testing.assert_allclose(G, np.sqrt(quad - cross**2 / qq), rtol=1e-9)


def test_cosphere_lift_unit_level(pm_body, aniso_ellipsoid):
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    q = project_to_surface(aniso_ellipsoid, RNG.standard_normal((30, 3)))
    n = conormal(s, q)
    v = RNG.standard_normal((30, 3))
    # make v tangent: subtract the normal component
    v = v - (np.einsum("ij,ij->i", n, v) / np.einsum("ij,ij->i", n, q))[:, None] * q
    v = v / pm_body.gauge(v)[:, None]
    p = cosphere_lift(s, q, v)
    G = induced_hamiltonian(s, q, p)
    np.testing.assert_allclose(G, 1.0, rtol=1e-9)
    # the lift supports its own velocity: <p, v> = F2(v) = 1
    np.testing.assert_allclose(np.einsum("ij,ij->i", p, v), 1.0, rtol=1e-9)


def test_sample_cosphere_level(pm_body6, tilted_ellipsoid):
    s = EmbeddedSphere(tilted_ellipsoid, pm_body6)
    q, p = sample_cosphere(s, 50, np.random.default_rng(3))
    np.testing.assert_allclose(induced_hamiltonian(s, q, p), 1.0, rtol=1e-9)


def test_sample_cosphere_takes_one_conormal(pm_body, euclid):
    # the projection's gauge and one conormal serve the restriction and the
    # line minimum; on a numeric-dual base each jet is a gradient-inverse
    # solve, and the restriction and the Hamiltonian took one each
    calls = []
    base = dual_body(pm_body)

    def jet(x, order):
        calls.append((order, len(x)))
        return base.jet(x, order)

    s = EmbeddedSphere(dataclasses.replace(base, jet=jet), euclid)
    q, p = sample_cosphere(s, 100, np.random.default_rng(4))
    assert calls == [(0, 100), (1, 100)]
    # the same bits as the public steps taken one by one
    rng = np.random.default_rng(4)
    q_ref = project_to_surface(base, rng.standard_normal((100, 3)))
    p_ref = restrict_covector(s, rng.standard_normal((100, 3)), q_ref)
    p_ref = p_ref / induced_hamiltonian(s, q_ref, p_ref)[:, None]
    assert q.tobytes() == q_ref.tobytes() and p.tobytes() == p_ref.tobytes()


def test_induced_length_matches_oracle(aniso_ellipsoid, pm_body):
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    pts = project_to_surface(aniso_ellipsoid, RNG.standard_normal((12, 3)))
    L = induced_length(s, pts, closed=True)
    assert abs(L - polygon_length(pm_body.gauge, pts)) <= 1e-12 * L


def test_induced_length_reversal_invariance(aniso_ellipsoid, pm_body):
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    pts = project_to_surface(aniso_ellipsoid, RNG.standard_normal((9, 3)))
    assert induced_length(s, pts, closed=True) == pytest.approx(
        induced_length(s, pts[::-1], closed=True), rel=1e-14
    )


@pytest.mark.parametrize("shape", [(3,), (2, 4, 3)], ids=["one-point", "3-d"])
def test_induced_length_needs_a_2d_point_list(round_sphere, shape):
    with pytest.raises(PreconditionError, match="expected a 2-D array of points"):
        induced_length(round_sphere, np.ones(shape), closed=False)


def test_induced_length_needs_three_points(round_sphere):
    pts = project_to_surface(round_sphere.body1, RNG.standard_normal((2, 3)))
    with pytest.raises(PreconditionError):
        induced_length(round_sphere, pts, closed=True)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_swapped_is_involutive_on_gauges(seed):
    r = np.random.default_rng(seed)
    d = np.exp(r.uniform(-1.0, 1.0, size=3))
    s = EmbeddedSphere(make_ellipsoid(np.diag(d)), make_ellipsoid(np.diag(d[::-1])))
    ss = s.swapped().swapped()
    x = r.standard_normal((20, 3))
    np.testing.assert_allclose(ss.body1.gauge(x), s.body1.gauge(x), rtol=1e-8)
    np.testing.assert_allclose(ss.body2.gauge(x), s.body2.gauge(x), rtol=1e-8)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthlab import (
    EmbeddedSphere,
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
from girthlab.bodies import half_sq_jet
from girthlab.metric import conormal, minimize_along_conormal

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


@pytest.mark.parametrize("which", ["numeric_dual", "power_mean"])
def test_line_minimization_batch_equals_rows(which, pm_body, aniso_ellipsoid):
    # evaluators are row-independent, so a batched call gives every row the
    # bits of its own scalar call, whichever entries share its batch
    dual = dual_body(pm_body) if which == "numeric_dual" else pm_body
    p, n = _conormal_lines(aniso_ellipsoid, 12, 11)
    t, val = minimize_along_conormal(dual, p, n)
    for i in range(len(p)):
        ti, vi = minimize_along_conormal(dual, p[i], n[i])
        assert ti.tobytes() == t[i].tobytes() and vi.tobytes() == val[i].tobytes()


def test_line_minimization_skips_converged_entries(pm_body):
    # m - 1 entries start at their minimum (n tangent to the level set of p)
    # and converge on the first Newton pass; one generic entry needs more.
    # A solver that re-evaluates the whole batch evaluates m points a pass.
    counts = {"calls": 0, "points": 0}

    def counted(x):
        counts["calls"] += 1
        counts["points"] += np.atleast_2d(x).shape[0]
        return pm_body.gradient(x)

    body = dataclasses.replace(pm_body, gradient=counted)
    r = np.random.default_rng(5)
    p = r.standard_normal((16, 3))
    n = np.cross(pm_body.gradient(p), r.standard_normal((16, 3)))
    p[0], n[0] = [1.0, 0.2, -0.3], [0.1, 1.0, 0.4]
    t, _ = minimize_along_conormal(body, p, n)
    assert np.all(np.abs(t[1:]) < 1e-9) and abs(t[0]) > 1e-3
    assert counts["points"] < len(p) * counts["calls"]


@pytest.mark.parametrize("which", ["numeric_dual", "power_mean"])
def test_half_sq_jet_matches_evaluators(which, pm_body):
    body = dual_body(pm_body) if which == "numeric_dual" else pm_body
    x = np.random.default_rng(2).standard_normal((30, 3))
    g, H = half_sq_jet(body, x)
    np.testing.assert_allclose(g, body.gauge(x)[:, None] * body.gradient(x), rtol=0, atol=1e-13)
    np.testing.assert_allclose(H, body.hessian_half_sq(x), rtol=0, atol=1e-13)


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

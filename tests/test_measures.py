import numpy as np
import pytest

from girthlab import (
    EmbeddedSphere,
    UnsupportedInputError,
    action,
    crofton_line_measure,
    ht_volume,
    induced_hamiltonian,
    make_ellipsoid,
    sample_cosphere,
)
from girthlab.measures import fiber_support_gauge

RNG = np.random.default_rng(23)


# ---------------------------------------------------------------------------
# action


def test_action_of_straight_segment():
    # constant covector: action = <p, q1 - q0>
    q = np.linspace(0.0, 1.0, 17)[:, None] * np.array([1.0, 2.0, 0.0])
    p = np.broadcast_to(np.array([3.0, 1.0, 5.0]), q.shape)
    assert action(q, p) == pytest.approx(5.0, rel=1e-14)


def test_action_reparameterization_invariance():
    t = np.linspace(0.0, 1.0, 4001)
    q = np.stack([np.cos(t), np.sin(t), t], axis=-1)
    p = np.stack([t, t**2, np.ones_like(t)], axis=-1)
    a1 = action(q, p)
    # resample the same curve non-uniformly
    s = t**2
    qs = np.stack([np.cos(s), np.sin(s), s], axis=-1)
    ps = np.stack([s, s**2, np.ones_like(s)], axis=-1)
    a2 = action(qs, ps)
    assert abs(a1 - a2) <= 1e-7


def test_closed_action_orientation_flip():
    t = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    q = np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=-1)
    p = np.stack([-np.sin(t), np.cos(t), 0.0 * t], axis=-1)
    a = action(q, p, closed=True)
    assert action(q[::-1], p[::-1], closed=True) == pytest.approx(-a, rel=1e-12)


# ---------------------------------------------------------------------------
# fiber support gauge vs the Hamiltonian


def test_fiber_support_matches_hamiltonian(aniso_ellipsoid, pm_body):
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    q, p = sample_cosphere(s, 10, RNG)
    G = induced_hamiltonian(s, q, p)
    for i in range(10):
        assert fiber_support_gauge(s, q[i], p[i]) == pytest.approx(G[i], rel=1e-6)


# ---------------------------------------------------------------------------
# Holmes-Thompson volume


def test_round_sphere_volume(round_sphere):
    rep = ht_volume(round_sphere)
    assert rep.value == pytest.approx(4.0 * np.pi, rel=1e-6)


def test_volume_dimension_restriction():
    E = make_ellipsoid(np.eye(4))
    with pytest.raises(UnsupportedInputError):
        ht_volume(EmbeddedSphere(E, E))


def test_volume_linear_isometry_class(tilted_ellipsoid):
    # body measured in its own norm: isometric to the round sphere
    rep = ht_volume(EmbeddedSphere(tilted_ellipsoid, tilted_ellipsoid))
    assert rep.value == pytest.approx(4.0 * np.pi, rel=1e-6)


def test_volume_scaling(euclid, aniso_ellipsoid):
    # doubling the ambient norm doubles lengths, quadrupling the 2-volume
    s1 = EmbeddedSphere(euclid, aniso_ellipsoid)
    A = aniso_ellipsoid.params["A"]
    s2 = EmbeddedSphere(euclid, make_ellipsoid(4.0 * A))
    v1 = ht_volume(s1).value
    v2 = ht_volume(s2).value
    assert v2 == pytest.approx(4.0 * v1, rel=1e-8)


def test_volume_duality(aniso_ellipsoid, pm_body):
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    v1 = ht_volume(s)
    v2 = ht_volume(s.swapped())
    tol = max(1e-6 * v1.value, 3.0 * (v1.error_estimate + v2.error_estimate))
    assert abs(v1.value - v2.value) <= tol


# ---------------------------------------------------------------------------
# lines and the Crofton measure


def test_crofton_euclidean_ball(euclid):
    # Euclidean unit sphere: measure of meeting lines = pi * (HT volume) = 4 pi^2
    rep = crofton_line_measure(euclid, euclid, 300_000, seed=0)
    target = 4.0 * np.pi**2
    assert abs(rep.value - target) <= max(3.0 * rep.error_estimate, 0.01 * target)


def test_crofton_determinism(euclid, aniso_ellipsoid):
    r1 = crofton_line_measure(euclid, aniso_ellipsoid, 50_000, seed=9)
    r2 = crofton_line_measure(euclid, aniso_ellipsoid, 50_000, seed=9)
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate


def test_crofton_matches_quadrature_volume(aniso_ellipsoid, pm_body):
    rep = crofton_line_measure(pm_body, aniso_ellipsoid, 400_000, seed=1)
    vol = ht_volume(EmbeddedSphere(aniso_ellipsoid, pm_body))
    ratio = rep.value / (np.pi * vol.value)
    assert abs(ratio - 1.0) <= max(3.0 * rep.error_estimate / rep.value, 0.01)


def test_crofton_dimension_restriction():
    E = make_ellipsoid(np.eye(4))
    with pytest.raises(UnsupportedInputError):
        crofton_line_measure(E, E, 100, seed=0)

import numpy as np
import pytest

from girthlab import (
    EmbeddedSphere,
    PreconditionError,
    UnsupportedInputError,
    action,
    crofton_line_measure,
    ht_volume,
    induced_hamiltonian,
    make_ellipsoid,
    make_power_mean,
    sample_cosphere,
)
from girthlab.bodies import dual_body, numeric_dual, scale_body, tangent_basis
from girthlab.measures import _FLOOR_MARGIN, _gauge_floor, _ht_volume_once, _polar_area
from girthlab.metric import minimize_along_conormal

from oracles import crofton_radius, dense_section_support, draw_lines, unculled_crofton

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


def fiber_support_gauge(sphere, q, p):
    """Gauge of the co-disc fiber at one point as the support value of the
    ambient-ball section by the tangent plane, max over unit tangent v of
    <p, v>, with the dense section scan on a 4096-point grid.  Same
    function as ``induced_hamiltonian``, different route."""
    T = tangent_basis(sphere.body1.gradient(np.asarray(q, dtype=float)))
    a, b = np.asarray(p, dtype=float) @ T
    beta = np.array([np.arctan2(b, a)])
    h = dense_section_support(sphere.body2, T[None, :, 0], T[None, :, 1], beta, 4096)
    return float(np.hypot(a, b) * h[0, 0])


def test_fiber_support_matches_hamiltonian(aniso_ellipsoid, pm_body):
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    q, p = sample_cosphere(s, 10, RNG)
    G = induced_hamiltonian(s, q, p)
    for i in range(10):
        assert fiber_support_gauge(s, q[i], p[i]) == pytest.approx(G[i], rel=1e-6)


# ---------------------------------------------------------------------------
# the fiber area against the closed form, the line minimum and the dense scan


@pytest.fixture(scope="module")
def named_bodies(euclid, aniso_ellipsoid, tilted_ellipsoid, pm_body, pm_body6):
    return {
        "ball": euclid,
        "e-086": aniso_ellipsoid,
        "e-tilt": tilted_ellipsoid,
        "e-amb": make_ellipsoid(np.diag([1.0, 1.4, 0.7])),
        "pm4": pm_body,
        "pm6": pm_body6,
        "pm8": make_power_mean([np.diag([1.0, 2.0, 0.5]), np.eye(3)], 8),
        "dual(pm4)": dual_body(pm_body),
    }


def _sections():
    """Tangent planes of random normals, then the coordinate planes in
    every order and one with a flipped axis."""
    T = tangent_basis(np.random.default_rng(3).standard_normal((40, 3)))
    E = np.eye(3)
    pairs = [(0, 1), (1, 2), (0, 2), (1, 0), (2, 0), (2, 1)]
    e1 = np.concatenate([T[..., 0], E[[a for a, _ in pairs]], E[[0]]])
    e2 = np.concatenate([T[..., 1], E[[b for _, b in pairs]], -E[[1]]])
    return e1, e2


@pytest.mark.parametrize("name", ["ball", "e-086", "e-tilt", "e-amb"])
def test_polar_area_of_an_ellipsoid_section_is_closed_form(named_bodies, name):
    # the polar of {z : z'Bz <= 1}, B = E'AE, is an ellipse of area pi sqrt(det B)
    body = named_bodies[name]
    e1, e2 = _sections()
    E = np.stack([e1, e2], axis=-1)
    B = np.swapaxes(E, -1, -2) @ body.params["A"] @ E
    exact = np.pi * np.sqrt(np.linalg.det(B))
    for n_beta in (64, 128):
        np.testing.assert_allclose(_polar_area(body, e1, e2, n_beta), exact, rtol=1e-13)


@pytest.mark.parametrize("name", ["pm4", "pm6", "pm8", "dual(pm4)"])
def test_polar_area_equals_the_line_minimum_route(named_bodies, name):
    # h(u) = min_t F2*(u + t n) is the section's support function, and the
    # polar's area is 0.5 * integral of h^-2
    body = named_bodies[name]
    e1, e2 = _sections()
    n_beta = 128
    beta = 2.0 * np.pi * np.arange(n_beta) / n_beta
    d = np.cos(beta)[:, None, None] * e1 + np.sin(beta)[:, None, None] * e2
    n = np.broadcast_to(np.cross(e1, e2), d.shape)
    _, h = minimize_along_conormal(dual_body(body), d.reshape(-1, 3), n.reshape(-1, 3))
    ref = 0.5 * np.sum(h.reshape(n_beta, -1) ** -2.0, axis=0) * (2.0 * np.pi / n_beta)
    np.testing.assert_allclose(_polar_area(body, e1, e2, n_beta), ref, rtol=1e-13)


@pytest.mark.parametrize(
    "name", ["ball", "e-086", "e-tilt", "e-amb", "pm4", "pm6", "pm8", "dual(pm4)"]
)
def test_polar_area_agrees_with_the_dense_scan(named_bodies, name):
    # the scan's parabola-refined maximum is off by at most 1.3e-6 (256
    # points) and 1e-7 (512 points) relative on these bodies
    body = named_bodies[name]
    e1, e2 = _sections()
    for n_beta, n_scan, rtol in ((64, 256, 3e-6), (128, 512, 3e-7)):
        beta = 2.0 * np.pi * np.arange(n_beta) / n_beta
        h = dense_section_support(body, e1, e2, beta, n_scan)
        ref = 0.5 * np.sum(h**-2.0, axis=-1) * (2.0 * np.pi / n_beta)
        np.testing.assert_allclose(_polar_area(body, e1, e2, n_beta), ref, rtol=rtol)


def test_ht_volume_is_pinned(aniso_ellipsoid, pm_body):
    # pm4 in e-amb, the crofton workload's volume, and the coarse pass of a
    # numeric-dual side (the volume experiment's dual side of that sphere)
    s = EmbeddedSphere(pm_body, make_ellipsoid(np.diag([1.0, 1.4, 0.7])))
    rep = ht_volume(s)
    assert rep.value == pytest.approx(8.373107117607569, rel=1e-13)
    assert rep.error_estimate == pytest.approx(5.329070518200751e-15, rel=1e-13)
    assert _ht_volume_once(s.swapped(), 1) == pytest.approx(8.3731071190645, rel=1e-13)


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


def test_crofton_rejects_a_nonpositive_sample_count(euclid):
    for n in (0, -5):
        with pytest.raises(PreconditionError, match="n_samples must be >= 1"):
            crofton_line_measure(euclid, euclid, n, seed=0)


def test_crofton_rejects_bodies_of_another_dimension(euclid):
    for dim in (2, 4):
        M = make_ellipsoid(np.eye(dim))
        with pytest.raises(PreconditionError, match="share the ambient dimension"):
            crofton_line_measure(euclid, M, 100, seed=0)


def test_crofton_is_pinned(named_bodies):
    # pm4 in e-amb at the crofton workload's batch of 200k lines
    rep = crofton_line_measure(named_bodies["e-amb"], named_bodies["pm4"], 200_000, seed=0)
    assert rep.value == pytest.approx(26.148594037562447, rel=1e-13)
    assert rep.error_estimate == pytest.approx(0.19549336890603086, rel=1e-13)


# ---------------------------------------------------------------------------
# the gauge floor that culls Crofton lines


def test_gauge_floor_bounds_the_gauge(aniso_ellipsoid, tilted_ellipsoid, pm_body, pm_body6):
    u = np.random.default_rng(31).standard_normal((10_000, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    for body in (aniso_ellipsoid, tilted_ellipsoid, pm_body, pm_body6, scale_body(pm_body, 1.7)):
        m = _gauge_floor(body)
        assert m > 0.0
        assert np.all(body.gauge(u) >= m), body.label


def test_gauge_floor_is_tight_on_an_ellipsoid(aniso_ellipsoid, tilted_ellipsoid):
    for body in (aniso_ellipsoid, tilted_ellipsoid):
        v = np.linalg.eigh(body.params["A"])[1][:, 0]
        assert body.gauge(v) == pytest.approx(_gauge_floor(body), rel=1e-15, abs=0.0)


def test_gauge_floor_of_a_numeric_dual_is_zero(pm_body):
    assert _gauge_floor(numeric_dual(pm_body)) == 0.0
    assert _gauge_floor(dual_body(pm_body)) == 0.0


@pytest.mark.parametrize("name", ["pm4", "pm6"])
def test_culled_lines_miss_the_body(named_bodies, name):
    ambient, M = named_bodies["e-amb"], named_bodies[name]
    Q, gs, _, _ = draw_lines(
        dual_body(ambient), crofton_radius(ambient, M), 50_000, np.random.default_rng(4)
    )
    s = np.einsum("ij,ij->i", Q, gs) / np.einsum("ij,ij->i", gs, gs)
    d = np.linalg.norm(Q - s[:, None] * gs, axis=-1)
    dropped = _gauge_floor(M) * (1.0 - _FLOOR_MARGIN) * d >= 1.0
    assert 0.5 < dropped.mean() < 1.0
    _, val = minimize_along_conormal(M, Q[dropped], gs[dropped])
    assert val.min() >= 1.0


@pytest.mark.parametrize("ambient, M", [("e-amb", "pm4"), ("ball", "e-086"), ("pm4", "e-tilt")])
def test_crofton_equals_the_unculled_loop(named_bodies, ambient, M):
    args = named_bodies[ambient], named_bodies[M], 50_000, 2
    rep, ref = crofton_line_measure(*args), unculled_crofton(*args)
    assert (rep.value, rep.error_estimate, rep.details) == (
        ref.value,
        ref.error_estimate,
        ref.details,
    )

import numpy as np
import pytest

from girthlab import (
    EmbeddedSphere,
    GirthOptions,
    UnsupportedInputError,
    characteristic_flow,
    diameter_probe,
    dual_girth,
    girth,
    induced_hamiltonian,
    length_spectrum_probe,
    make_ellipsoid,
    shortest_path_length,
)
from girthlab.geodesics import (
    DiscreteSymmetricCurve,
    _energy_and_grad,
    _random_circle,
    _slerp_arc,
    symmetric_length,
)
from girthlab.metric import CoSpherePoint, cosphere_lift, project_to_surface

from oracles import ellipse_perimeter

FAST = GirthOptions(N=16, starts=3, seed=0)


def test_round_girth_is_two_pi(round_sphere):
    res = girth(round_sphere, FAST)
    assert res.girth == pytest.approx(2.0 * np.pi, rel=1e-5)
    assert res.certificate["certified"]


def test_ellipsoid_girth_matches_perimeter_oracle(euclid, aniso_ellipsoid):
    s = EmbeddedSphere(aniso_ellipsoid, euclid)
    res = girth(s, FAST)
    assert res.girth == pytest.approx(ellipse_perimeter(0.8, 0.6), rel=1e-5)


def test_girth_linear_invariance(tilted_ellipsoid):
    # an ellipsoid measured in its own norm is linearly isometric to the
    # round sphere, so its girth is exactly 2 pi
    g1 = girth(EmbeddedSphere(tilted_ellipsoid, tilted_ellipsoid), FAST).girth
    assert g1 == pytest.approx(2.0 * np.pi, rel=1e-6)


def test_girth_requires_symmetric_bodies(round_sphere):
    round_sphere.body1.symmetric = False
    try:
        with pytest.raises(UnsupportedInputError):
            girth(round_sphere, FAST)
    finally:
        round_sphere.body1.symmetric = True


def test_symmetric_curve_needs_three_points():
    with pytest.raises(Exception):
        DiscreteSymmetricCurve(np.zeros((2, 3)))


def test_dual_girth_round_sphere(round_sphere):
    res = dual_girth(round_sphere, FAST)
    assert res.girth == pytest.approx(2.0 * np.pi, rel=1e-5)


def test_girth_duality_mixed_pair(aniso_ellipsoid, pm_body):
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    opts = GirthOptions(N=16, starts=4, seed=0)
    g = girth(s, opts).girth
    gd = dual_girth(s, opts).girth
    assert abs(g - gd) / g <= 5e-4


def test_spectrum_probe_round_sphere(round_sphere):
    lengths = length_spectrum_probe(round_sphere, 4, seed=0, N=16)
    assert lengths
    assert min(abs(v - 2.0 * np.pi) for v in lengths) <= 1e-5


def test_spectrum_probe_ellipsoid_principal_ellipses(euclid, aniso_ellipsoid):
    s = EmbeddedSphere(aniso_ellipsoid, euclid)
    lengths = length_spectrum_probe(s, 3, seed=0, N=16)
    expected = [
        ellipse_perimeter(0.8, 0.6),
        ellipse_perimeter(1.0, 0.6),
        ellipse_perimeter(1.0, 0.8),
    ]
    for e in expected:
        assert min(abs(v - e) for v in lengths) <= 1e-4 * e


def test_flow_stays_on_cosphere_and_closes(round_sphere):
    q0 = np.array([1.0, 0.0, 0.0])
    p0 = np.array([0.0, 1.0, 0.0])
    traj = characteristic_flow(
        round_sphere, CoSpherePoint(q0, p0), 2.0 * np.pi, 2.0 * np.pi / 512
    )
    assert traj.g_drift <= 1e-10
    assert traj.closure_residual <= 1e-8
    G = induced_hamiltonian(round_sphere, traj.qs, traj.ps)
    np.testing.assert_allclose(G, 1.0, atol=1e-10)


def test_flow_follows_girth_geodesic(euclid, aniso_ellipsoid):
    s = EmbeddedSphere(aniso_ellipsoid, euclid)
    res = girth(s, FAST)
    pts = res.curve.full_points
    q0 = pts[0]
    p0 = cosphere_lift(s, q0, pts[1] - pts[-1])
    p0 = p0 / induced_hamiltonian(s, q0, p0)
    traj = characteristic_flow(s, CoSpherePoint(q0, p0), res.girth, res.girth / 1024)
    assert traj.closure_residual <= 1e-4


def test_shortest_path_between_nearby_points(round_sphere):
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([np.cos(0.5), np.sin(0.5), 0.0])
    L = shortest_path_length(round_sphere, a, b, K=16)
    assert L == pytest.approx(0.5, rel=1e-4)


def test_diameter_probe_round_sphere(round_sphere):
    d = diameter_probe(round_sphere, 6, seed=0, K=16)
    assert d <= np.pi * (1.0 + 1e-6)
    assert d >= 1.0  # random pairs are rarely all close


def test_symmetric_length_definition(round_sphere):
    theta = np.pi * np.arange(8) / 8  # half of a great circle
    half = np.stack([np.cos(theta), np.sin(theta), np.zeros(8)], axis=-1)
    L = symmetric_length(round_sphere, half)
    # 16-gon inscribed in the unit circle
    assert L == pytest.approx(32.0 * np.sin(np.pi / 16), rel=1e-12)


def test_spectrum_probe_single_level(round_sphere):
    # one level has nothing to extrapolate: every found length is the plain
    # length of a 32-gon inscribed in a great circle
    lengths = length_spectrum_probe(round_sphere, 3, seed=0, N=16, levels=1)
    assert lengths
    assert min(abs(v - 64.0 * np.sin(np.pi / 32.0)) for v in lengths) <= 1e-8


@pytest.mark.parametrize("closure", ["symmetric", "closed", "path"])
def test_energy_gradient_matches_finite_differences(closure, pm_body6, tilted_ellipsoid):
    sphere = EmbeddedSphere(pm_body6, tilted_ellipsoid)
    rng = np.random.default_rng(7)
    if closure == "path":
        a = project_to_surface(pm_body6, np.array([1.0, 0.2, -0.3]))
        b = project_to_surface(pm_body6, np.array([-0.1, 1.0, 0.6]))
        y = _slerp_arc(a, b, 9, rng)[1:-1]
        closure = (a, b)
    else:
        n, span = (8, np.pi) if closure == "symmetric" else (12, 2.0 * np.pi)
        y = _random_circle(rng, 3, n, span, 0.1)
    y = y + 0.05 * rng.standard_normal(y.shape)
    _, g = _energy_and_grad(sphere, y, closure)
    h = 1e-5
    fd = np.zeros_like(y)
    for idx in np.ndindex(*y.shape):
        step = np.zeros_like(y)
        step[idx] = h
        fd[idx] = (
            _energy_and_grad(sphere, y + step, closure)[0]
            - _energy_and_grad(sphere, y - step, closure)[0]
        ) / (2.0 * h)
    assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(g)

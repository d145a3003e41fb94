import numpy as np
import pytest

from girthlab import (
    EmbeddedSphere,
    IllConditionedInputError,
    NoIntersectionError,
    Phi,
    PreconditionError,
    Psi,
    UnsupportedInputError,
    induced_hamiltonian,
    phi,
    psi,
    restrict_covector,
    sample_cosphere,
    solve_line_sphere,
)
from girthlab import bodies
from girthlab.measures import action
from girthlab.metric import conormal, minimize_along_conormal

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def spheres(aniso_ellipsoid, pm_body, pm_body6, tilted_ellipsoid):
    return [
        EmbeddedSphere(aniso_ellipsoid, pm_body),
        EmbeddedSphere(pm_body6, tilted_ellipsoid),
    ]


def test_line_sphere_roots_on_surface(spheres):
    for s in spheres:
        q, p = sample_cosphere(s, 10, np.random.default_rng(0))
        for i in range(10):
            sol = solve_line_sphere(s, q[i], 0.5 * p[i])
            assert sol.t_minus <= sol.t_plus
            assert not sol.tangent
            assert abs(s.dual2.gauge(sol.P_minus) - 1.0) <= 1e-10
            assert abs(s.dual2.gauge(sol.P_plus) - 1.0) <= 1e-10


def test_line_sphere_tangent_case(spheres):
    for s in spheres:
        q, p = sample_cosphere(s, 5, np.random.default_rng(1))
        for i in range(5):
            sol = solve_line_sphere(s, q[i], p[i])
            assert sol.tangent
            np.testing.assert_allclose(sol.P_minus, sol.P_plus)


def test_phi_image_residuals(spheres):
    for s in spheres:
        q, p = sample_cosphere(s, 64, np.random.default_rng(2))
        P, Q = phi(s, q, p)
        np.testing.assert_allclose(s.dual2.gauge(P), 1.0, atol=1e-10)
        # restriction of P back to the fiber over q reproduces p
        np.testing.assert_allclose(restrict_covector(s, P, q), p, atol=1e-10)
        # Q is the canonical restriction of q at P on the dual side
        np.testing.assert_allclose(np.einsum("ij,ij->i", Q, P), 0.0, atol=1e-12)
        P0, Q0 = phi(s, q[:0], p[:0])
        assert P0.shape == Q0.shape == (0, q.shape[1])
        assert P0.dtype == Q0.dtype == np.float64


def test_phi_lands_on_dual_cosphere(spheres):
    for s in spheres:
        q, p = sample_cosphere(s, 32, np.random.default_rng(3))
        P, Q = psi(s, q, p)
        G = induced_hamiltonian(s.swapped(), P, Q)
        np.testing.assert_allclose(G, 1.0, atol=1e-9)


def test_phi_round_trip(spheres):
    for s in spheres:
        sw = s.swapped()
        q, p = sample_cosphere(s, 32, np.random.default_rng(4))
        P, Q = phi(s, q, p)
        q2, p2 = phi(sw, P, Q)
        np.testing.assert_allclose(q2, q, atol=1e-8)
        np.testing.assert_allclose(p2, p, atol=1e-8)


def test_phi_takes_the_dual_gradient_from_the_line_minimum(monkeypatch, spheres):
    # on the numeric dual of pm4, phi makes exactly the gradient-inverse
    # solves of its conormal line minimization: the transposed restriction
    # reuses the dual's gradient from the minimizer's closing jet
    s = spheres[0]
    q, p = sample_cosphere(s, 16, np.random.default_rng(6))
    solve = bodies._solve_gradient_inverse
    calls = []

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(bodies, "_solve_gradient_inverse", counted)
    minimize_along_conormal(s.dual2, p, conormal(s, q))
    n_min = len(calls)
    phi(s, q, p)
    assert len(calls) - n_min == n_min


def test_phi_rejects_interior_point(spheres):
    s = spheres[0]
    q, p = sample_cosphere(s, 1, np.random.default_rng(5))
    with pytest.raises(PreconditionError):
        phi(s, q[0], 0.5 * p[0])


def test_psi_antipodal_equivariance(spheres):
    for s in spheres:
        q, p = sample_cosphere(s, 64, np.random.default_rng(6))
        P, Q = psi(s, q, p)
        Pm, Qm = psi(s, -q, -p)
        np.testing.assert_allclose(Pm, -P, atol=1e-9)
        np.testing.assert_allclose(Qm, -Q, atol=1e-9)


def test_interior_map_round_trip(spheres):
    for s in spheres:
        sw = s.swapped()
        q, p = sample_cosphere(s, 16, np.random.default_rng(7))
        lam = np.random.default_rng(8).uniform(0.1, 0.9, size=16)
        for i in range(16):
            P, Q = Phi(s, q[i], lam[i] * p[i])
            q2, p2 = Phi(sw, P, Q)
            np.testing.assert_allclose(q2, q[i], atol=1e-7)
            np.testing.assert_allclose(p2, lam[i] * p[i], atol=1e-7)


def test_interior_map_zero_section_regression(spheres):
    # the sign/orientation of the image of p = 0 is a recorded behavior:
    # the exit root along +n_q, i.e. P = t n_q with t > 0
    s = spheres[0]
    q, _ = sample_cosphere(s, 4, np.random.default_rng(9))
    for i in range(4):
        P, Q = Phi(s, q[i], np.zeros(3))
        n = s.body1.gradient(q[i])
        t = float(P @ n) / float(n @ n)
        assert t > 0.0
        np.testing.assert_allclose(P, t * n, atol=1e-10)


def test_interior_map_rejects_boundary_and_outside(spheres):
    s = spheres[0]
    q, p = sample_cosphere(s, 1, np.random.default_rng(10))
    with pytest.raises(IllConditionedInputError):
        Phi(s, q[0], p[0])
    with pytest.raises(NoIntersectionError):
        Phi(s, q[0], 2.0 * p[0])


def test_batched_maps_equal_per_row_calls(spheres):
    # every solver pass is row-independent, so a batch gives each row the
    # bits of its own call; row 0 is a co-sphere point, so its line is tangent
    for s in spheres:
        q, p = sample_cosphere(s, 8, np.random.default_rng(13))
        p[1:] *= np.random.default_rng(14).uniform(0.1, 0.9, size=7)[:, None]
        sol = solve_line_sphere(s, q, p)
        assert sol.tangent.tolist() == [True] + [False] * 7
        P, Q = Phi(s, q[1:], p[1:])
        R, S = Psi(s, q[1:], p[1:])
        for i in range(8):
            row = solve_line_sphere(s, q[i], p[i])
            for f in ("t_minus", "t_plus", "tangent", "P_minus", "P_plus"):
                assert getattr(row, f).tobytes() == getattr(sol, f)[i].tobytes()
        for i in range(7):
            rows = Phi(s, q[i + 1], p[i + 1]) + Psi(s, q[i + 1], p[i + 1])
            for whole, part in zip((P, Q, R, S), rows):
                assert whole[i].tobytes() == part.tobytes()


def test_interior_map_batch_rejects_one_bad_row(spheres):
    s = spheres[0]
    q, p = sample_cosphere(s, 6, np.random.default_rng(15))
    band = 0.5 * p
    band[3] = p[3]
    with pytest.raises(IllConditionedInputError):
        Phi(s, q, band)
    outside = 0.5 * p
    outside[3] = 2.0 * p[3]
    with pytest.raises(NoIntersectionError):
        Phi(s, q, outside)
    with pytest.raises(NoIntersectionError):
        solve_line_sphere(s, q, outside)


def test_symmetrized_maps_require_symmetric_bodies(spheres):
    s = spheres[0]
    s.body2.symmetric = False
    try:
        q, p = sample_cosphere(s, 1, np.random.default_rng(11))
        with pytest.raises(UnsupportedInputError):
            psi(s, q[0], p[0])
        with pytest.raises(UnsupportedInputError):
            Psi(s, q[0], 0.5 * p[0])
    finally:
        s.body2.symmetric = True


def test_action_preserved_on_closed_loop(spheres):
    from girthlab.harness import _closed_cosphere_loop

    for s in spheres:
        q, p = _closed_cosphere_loop(s, 4096, seed=12)
        a0 = action(q, p, closed=True)
        P, Q = psi(s, q, p)
        a1 = action(P, Q, closed=True)
        assert abs(a1 - a0) <= 1e-5 * abs(a0)
        # the boundary map preserves action after orientation reversal
        BP, BQ = phi(s, q, p)
        a2 = action(BP[::-1], BQ[::-1], closed=True)
        assert abs(a2 - a0) <= 1e-5 * abs(a0)


_SHAPES = [(), (10,), (2, 5)]


@pytest.mark.parametrize("shape", _SHAPES, ids=["single", "rows", "2x5"])
@pytest.mark.parametrize("route", ["closed_form", "section", "newton"])
def test_maps_take_any_leading_shape(route, shape, aniso_ellipsoid, pm_body, pm_body6, tilted_ellipsoid):
    # (q, p) of shape (..., dim) give each entry the bits of the same call
    # on the flattened rows, on each route of the conormal line minimum:
    # an ellipsoid dual (closed form), the numeric dual of pm4 (primal
    # section) and pm4 itself as the dual (safeguarded Newton); a single
    # point gives numpy scalars where the rows give arrays
    s = {
        "closed_form": EmbeddedSphere(pm_body6, tilted_ellipsoid),
        "section": EmbeddedSphere(aniso_ellipsoid, pm_body),
        "newton": EmbeddedSphere(aniso_ellipsoid, bodies.dual_body(pm_body)),
    }[route]
    m = int(np.prod(shape))
    q, p = sample_cosphere(s, m, np.random.default_rng(16))
    inner = p * np.random.default_rng(17).uniform(0.1, 0.9, size=(m, 1))
    maps = {
        "induced_hamiltonian": lambda q, p, _: (induced_hamiltonian(s, q, p),),
        "minimize_along_conormal": lambda q, p, _: minimize_along_conormal(
            s.dual2, p, conormal(s, q)
        ),
        "solve_line_sphere": lambda q, _, c: tuple(vars(solve_line_sphere(s, q, c)).values()),
        "phi": lambda q, p, _: phi(s, q, p),
        "psi": lambda q, p, _: psi(s, q, p),
        "Phi": lambda q, _, c: Phi(s, q, c),
        "Psi": lambda q, _, c: Psi(s, q, c),
    }
    shaped = [a.reshape(shape + (3,)) for a in (q, p, inner)]
    for name, f in maps.items():
        for row, out in zip(f(q, p, inner), f(*shaped)):
            assert np.shape(out) == shape + row.shape[1:], name
            assert np.asarray(out).tobytes() == row.tobytes(), name
            if not shape:
                assert type(out) is type(row[0]), name

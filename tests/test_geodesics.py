import dataclasses

import numpy as np
import pytest

from girthlab import (
    EmbeddedSphere,
    GirthOptions,
    NumericalFailureError,
    PreconditionError,
    UnsupportedInputError,
    characteristic_flow,
    dual_girth,
    girth,
    induced_hamiltonian,
    length_spectrum_probe,
    make_ellipsoid,
    sample_cosphere,
)
from girthlab import bodies, geodesics, harness, metric
from girthlab.geodesics import (
    DiscreteSymmetricCurve,
    _chords,
    _continuation,
    _energy_and_grad,
    _length,
    _preconditioner,
    _random_circle,
    _richardson,
    _symmetric_starts,
    _upsample,
)
from girthlab.metric import CoSpherePoint, cosphere_lift

from oracles import ellipse_perimeter, lbfgsb, per_row_flow

FAST = GirthOptions(N=16, starts=3, seed=0)


def test_round_girth_is_two_pi(round_sphere):
    res = girth(round_sphere, FAST)
    assert res.girth == pytest.approx(2.0 * np.pi, rel=1e-5)
    assert res.certificate["first_order_residual"] <= 1e-6


def test_girth_runs_fewer_starts_than_coordinate_planes(round_sphere):
    res = girth(round_sphere, GirthOptions(N=8, starts=1))
    assert len(res.certificate["start_lengths"]) == 1


def test_ellipsoid_girth_matches_perimeter_oracle(euclid, aniso_ellipsoid):
    s = EmbeddedSphere(aniso_ellipsoid, euclid)
    res = girth(s, FAST)
    assert res.girth == pytest.approx(ellipse_perimeter(0.8, 0.6), rel=1e-5)


def test_girth_linear_invariance(tilted_ellipsoid):
    # an ellipsoid measured in its own norm is linearly isometric to the
    # round sphere, so its girth is exactly 2 pi
    g1 = girth(EmbeddedSphere(tilted_ellipsoid, tilted_ellipsoid), FAST).girth
    assert g1 == pytest.approx(2.0 * np.pi, rel=1e-6)


# girth and the spectrum search the same class of centrally symmetric curves
SYMMETRIC_SEARCHES = [
    pytest.param(lambda s: girth(s, FAST), id="girth"),
    pytest.param(
        lambda s: length_spectrum_probe(s, GirthOptions(N=16, starts=3, seed=0, tol=1e-11)),
        id="spectrum",
    ),
]


@pytest.mark.parametrize("search", SYMMETRIC_SEARCHES)
def test_girth_requires_symmetric_bodies(round_sphere, search):
    round_sphere.body1.symmetric = False
    try:
        with pytest.raises(UnsupportedInputError):
            search(round_sphere)
    finally:
        round_sphere.body1.symmetric = True


@pytest.mark.parametrize("search", SYMMETRIC_SEARCHES)
def test_girth_requires_dimension_three(search):
    disc = make_ellipsoid(np.eye(2))
    with pytest.raises(UnsupportedInputError):
        search(EmbeddedSphere(disc, disc))


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
    lengths = length_spectrum_probe(
        round_sphere, GirthOptions(N=16, starts=4, seed=0, tol=1e-11)
    )
    assert lengths
    assert min(abs(v - 2.0 * np.pi) for v in lengths) <= 1e-5


def test_spectrum_probe_ellipsoid_principal_ellipses(euclid, aniso_ellipsoid):
    s = EmbeddedSphere(aniso_ellipsoid, euclid)
    lengths = length_spectrum_probe(s, GirthOptions(N=16, starts=3, seed=0, tol=1e-11))
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


def test_flow_on_numeric_dual_ambient(monkeypatch, aniso_ellipsoid, pm_body):
    # dual2 is the numeric dual of pm4: every line minimum is one section
    # solve on pm4 itself, with no bracket and no 1-D Newton iteration
    calls = {"_expand_bracket": [], "_safeguarded_newton": []}

    def counting(made, fn):
        def counted(*args):
            made.append(1)
            return fn(*args)

        return counted

    for name, made in calls.items():
        monkeypatch.setattr(metric, name, counting(made, getattr(metric, name)))
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    q, p = sample_cosphere(s, 1, np.random.default_rng(0))
    traj = characteristic_flow(s, CoSpherePoint(q[0], p[0]), 0.5, 0.5 / 64)
    assert calls == {"_expand_bracket": [], "_safeguarded_newton": []}
    assert traj.g_drift <= 1e-10
    G = induced_hamiltonian(s, traj.qs, traj.ps)
    np.testing.assert_allclose(G, 1.0, atol=1e-10)


def test_flow_field_takes_the_dual_gradient_from_the_line_minimum(
    monkeypatch, aniso_ellipsoid, pm_body
):
    # the flow of test_flow_on_numeric_dual_ambient makes 258 line minima
    # (the start's G, its first stage, 4 stages a step).  Each is one
    # section solve of the gradient inverse, which also gives grad F* at
    # the minimum; the 1-D Newton route made 2064 solves, and 2824 when
    # grad F* was a separate call
    s = EmbeddedSphere(aniso_ellipsoid, pm_body)
    q, p = sample_cosphere(s, 1, np.random.default_rng(0))
    solve = bodies._solve_gradient_inverse
    calls = []

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(bodies, "_solve_gradient_inverse", counted)
    monkeypatch.setattr(metric, "_solve_gradient_inverse", counted)
    characteristic_flow(s, CoSpherePoint(q[0], p[0]), 0.5, 0.5 / 64)
    assert len(calls) <= 4 * 64 + 2


def test_flow_step_reuses_the_renormalization_as_its_first_stage(
    monkeypatch, aniso_ellipsoid, pm_body
):
    # by 1-homogeneity the line minimum that rescales p to the unit level
    # is the next step's first stage, and one base jet serves the radial
    # projection and that stage: 4 base jets and 4 line minimizations a
    # step, where projecting and re-evaluating apart took 6 and 5
    jets, lines = [], []

    def jet(x, order):
        jets.append(1)
        return aniso_ellipsoid.jet(x, order)

    line_minimum = metric._line_minimum

    def counted(*args):
        lines.append(1)
        return line_minimum(*args)

    monkeypatch.setattr(metric, "_line_minimum", counted)
    monkeypatch.setattr(geodesics, "_line_minimum", counted)
    s = EmbeddedSphere(dataclasses.replace(aniso_ellipsoid, jet=jet), pm_body)
    q, p = sample_cosphere(s, 1, np.random.default_rng(0))
    counts = []
    for steps in (8, 16):
        jets.clear(), lines.clear()
        characteristic_flow(s, CoSpherePoint(q[0], p[0]), steps / 64, 1 / 64)
        counts.append((len(jets), len(lines)))
    (j8, l8), (j16, l16) = counts
    assert (j16 - j8, l16 - l8) == (4 * 8, 4 * 8)


def test_flow_on_ellipsoid_ambient_takes_closed_form_line_minima(
    monkeypatch, aniso_ellipsoid, euclid
):
    # the dual of a Euclidean ambient is an ellipsoid, whose line minimum
    # has a closed form: no Newton solve, and the closing jet is the one
    # dual evaluation of each line minimization
    s = EmbeddedSphere(aniso_ellipsoid, euclid)
    q, p = sample_cosphere(s, 1, np.random.default_rng(0))
    dual, jets, lines, newton = s.dual2, [], [], []

    def jet(x, order):
        jets.append(1)
        return dual.jet(x, order)

    def counting(calls, fn):
        def counted(*args):
            calls.append(1)
            return fn(*args)

        return counted

    s.dual2 = dataclasses.replace(dual, jet=jet)
    line_minimum = counting(lines, metric._line_minimum)
    monkeypatch.setattr(metric, "_line_minimum", line_minimum)
    monkeypatch.setattr(geodesics, "_line_minimum", line_minimum)
    monkeypatch.setattr(metric, "_safeguarded_newton", counting(newton, metric._safeguarded_newton))
    traj = characteristic_flow(s, CoSpherePoint(q[0], p[0]), 1.0, 1.0 / 64)
    assert newton == []
    assert len(jets) == len(lines) == 4 * 64 + 2  # the start's G, its k1, 4 a step
    # a generic copy of the same dual takes the Newton path to the same flow
    s.dual2 = dataclasses.replace(dual, kind="generic")
    ref = characteristic_flow(s, CoSpherePoint(q[0], p[0]), 1.0, 1.0 / 64)
    assert newton
    np.testing.assert_allclose(traj.qs, ref.qs, rtol=0, atol=1e-13)
    np.testing.assert_allclose(traj.ps, ref.ps, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "base, ambient, steps",
    [
        ("pm_body6", "tilted_ellipsoid", 1024),  # ellipsoid dual: closed-form line minima
        ("aniso_ellipsoid", "pm_body", 256),  # numeric dual: section solves
        # 1000 steps make 15 parareal windows, 10 of 67 steps and 5 of 66
        ("pm_body6", "tilted_ellipsoid", 1000),
        ("aniso_ellipsoid", "pm_body", 1000),
    ],
)
def test_flow_matches_the_per_row_stepper(request, base, ambient, steps):
    # the flat-state stepper against the same RK4 steps on separate q and p
    # rows, from a random co-sphere start over unit time
    s = EmbeddedSphere(request.getfixturevalue(base), request.getfixturevalue(ambient))
    q, p = sample_cosphere(s, 1, np.random.default_rng(3))
    traj = characteristic_flow(s, CoSpherePoint(q[0], p[0]), 1.0, 1.0 / steps)
    qs, ps = per_row_flow(s, q[0], p[0], 1.0, 1.0 / steps)
    assert traj.qs.shape == qs.shape == (steps + 1, 3)
    np.testing.assert_allclose(traj.qs, qs, rtol=0, atol=1e-13)
    np.testing.assert_allclose(traj.ps, ps, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "base, ambient", [("pm_body6", "tilted_ellipsoid"), ("aniso_ellipsoid", "pm_body")]
)
def test_batched_flow_step_gives_each_row_its_bits(request, base, ambient):
    # the RK4 stepper on 7 independent co-sphere starts at once: each row
    # has the bits of the same start stepped alone, and of the flow itself
    s = EmbeddedSphere(request.getfixturevalue(base), request.getfixturevalue(ambient))
    q, p = sample_cosphere(s, 7, np.random.default_rng(3))
    y = np.concatenate((q, p), axis=1)
    k1 = geodesics._stage(s, y)
    rows = [(y[i, None], geodesics._stage(s, y[i, None])) for i in range(7)]
    for _ in range(3):
        y, k1, _ = geodesics._rk4_step(s, y, k1, 1 / 64)
        rows = [geodesics._rk4_step(s, yi, ki, 1 / 64)[:2] for yi, ki in rows]
    assert y.tobytes() == np.concatenate([yi for yi, _ in rows]).tobytes()
    assert k1.tobytes() == np.concatenate([ki for _, ki in rows]).tobytes()
    for i in range(7):
        traj = characteristic_flow(s, CoSpherePoint(q[i], p[i]), 3 / 64, 1 / 64)
        assert np.concatenate((traj.qs[-1], traj.ps[-1])).tobytes() == y[i].tobytes()


@pytest.fixture(scope="module")
def pm6_girth_lift(pm_body6, tilted_ellipsoid):
    """The girth of pm6 in the tilted ellipsoid's norm and the co-sphere lift
    of the first vertex of its polygon."""
    s = EmbeddedSphere(pm_body6, tilted_ellipsoid)
    res = girth(s, FAST)
    pts = res.curve.full_points
    p0 = cosphere_lift(s, pts[0], pts[1] - pts[-1])
    return res.girth, CoSpherePoint(pts[0], p0 / induced_hamiltonian(s, pts[0], p0))


def test_flow_over_four_girths_settles_in_few_sweeps(pm_body6, tilted_ellipsoid, pm6_girth_lift):
    g, start = pm6_girth_lift
    s = EmbeddedSphere(pm_body6, tilted_ellipsoid)
    traj = characteristic_flow(s, start, 4 * g, g / 4096)
    assert len(traj.qs) == 4 * 4096 + 1
    assert traj.sweeps <= 5
    assert traj.seam_residual <= 1e-14


def test_lifted_girth_flow_makes_few_base_jets(pm_body6, tilted_ellipsoid, pm6_girth_lift):
    # the sequential stepper made 16,386 single-point base jets on this
    # flow (the start's G, its k1, 4 a step); parareal's 3 sweeps make
    # 1,715, on all 64 windows at once or on one window start
    jets = []

    def jet(x, order):
        jets.append(1)
        return pm_body6.jet(x, order)

    g, start = pm6_girth_lift
    s = EmbeddedSphere(dataclasses.replace(pm_body6, jet=jet), tilted_ellipsoid)
    characteristic_flow(s, start, g, g / 4096)
    assert len(jets) <= 2500


def test_flow_raises_when_the_seams_do_not_settle(aniso_ellipsoid, euclid):
    # a base jet with 1e-10 noise on each call: every fine sweep lands
    # elsewhere, so the seams of 128 steps (2 windows) never settle, and
    # the flow raises instead of running the steps in sequence.  At 127
    # steps (1 window) there is no seam and one sweep
    rng = np.random.default_rng(0)

    def jet(x, order):
        F, g, H = aniso_ellipsoid.jet(x, order)
        return F * (1.0 + 1e-10 * rng.standard_normal(np.shape(F))), g, H

    s = EmbeddedSphere(dataclasses.replace(aniso_ellipsoid, jet=jet), euclid)
    q, p = sample_cosphere(EmbeddedSphere(aniso_ellipsoid, euclid), 1, np.random.default_rng(0))
    traj = characteristic_flow(s, CoSpherePoint(q[0], p[0]), 127 / 64, 1 / 64)
    assert (traj.sweeps, traj.seam_residual) == (1, 0.0)
    with pytest.raises(NumericalFailureError, match="after 3 sweeps") as err:
        characteristic_flow(s, CoSpherePoint(q[0], p[0]), 2.0, 1 / 64)
    assert err.value.best_bound > geodesics._SEAM_TOL


@pytest.mark.parametrize(
    "T, dt", [(0.0, 0.1), (1.0, 0.0), (1.0, np.nan), (1.0, -0.1), (np.inf, 0.1), (np.nan, 0.1)]
)
def test_flow_requires_finite_positive_T_and_dt(round_sphere, T, dt):
    start = CoSpherePoint(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(PreconditionError):
        characteristic_flow(round_sphere, start, T, dt)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: girth(s, GirthOptions(N=8, starts=0)),
        lambda s: girth(s, GirthOptions(N=2, starts=1)),
        lambda s: length_spectrum_probe(s, GirthOptions(N=8, starts=0, seed=0, tol=1e-11)),
        lambda s: length_spectrum_probe(s, GirthOptions(N=1, starts=1, seed=0, tol=1e-11)),
        lambda s: girth(s, GirthOptions(N=8, starts=1, levels=0)),
        lambda s: length_spectrum_probe(s, GirthOptions(N=8, starts=1, levels=0)),
    ],
    ids=[
        "girth-starts-0",
        "girth-N-2",
        "spectrum-starts-0",
        "spectrum-N-1",
        "girth-levels-0",
        "spectrum-levels-0",
    ],
)
def test_degenerate_sizes_raise_precondition_errors(round_sphere, call):
    # fewer than one start, 3 half points or one level leave nothing to
    # minimize: a typed error up front, not a numpy error or a warning
    with pytest.raises(PreconditionError):
        call(round_sphere)


def symmetric_length(sphere, x):
    """Length of the centrally symmetric polygon on the half chain x."""
    return float(_length(sphere, x[None])[0])


def test_symmetric_length_definition(round_sphere):
    theta = np.pi * np.arange(8) / 8  # half of a great circle
    half = np.stack([np.cos(theta), np.sin(theta), np.zeros(8)], axis=-1)
    L = symmetric_length(round_sphere, half)
    # 16-gon inscribed in the unit circle
    assert L == pytest.approx(32.0 * np.sin(np.pi / 16), rel=1e-12)


def test_spectrum_probe_single_level(round_sphere):
    # one level has nothing to extrapolate: every found length is the plain
    # length of a 32-gon inscribed in a great circle
    lengths = length_spectrum_probe(
        round_sphere, GirthOptions(N=16, starts=3, seed=0, tol=1e-11, levels=1)
    )
    assert lengths
    assert min(abs(v - 64.0 * np.sin(np.pi / 32.0)) for v in lengths) <= 1e-8


# the swapped sphere's ambient is the numeric dual of pm6, so its chords'
# gauge and gradient come from the gradient inverse
@pytest.mark.parametrize("swapped", [False, True], ids=["symmetric", "symmetric-swapped"])
def test_energy_gradient_matches_finite_differences(swapped, pm_body6, tilted_ellipsoid):
    sphere = EmbeddedSphere(pm_body6, tilted_ellipsoid)
    if swapped:
        sphere = sphere.swapped()
    rng = np.random.default_rng(7)
    y = _random_circle(rng, 3, 8)
    # a stack of one polygon
    y = (y + 0.05 * rng.standard_normal(y.shape))[None]
    _, g = _energy_and_grad(sphere, y)
    h = 1e-5
    fd = np.zeros_like(y)
    for idx in np.ndindex(*y.shape):
        step = np.zeros_like(y)
        step[idx] = h
        fd[idx] = (
            _energy_and_grad(sphere, y + step)[0][0]
            - _energy_and_grad(sphere, y - step)[0][0]
        ) / (2.0 * h)
    assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(g)


def test_richardson_error_is_the_change_of_the_extrapolated_value():
    # L(h) = L* + a h^2 + b h^4 at halving h: each Richardson value is
    # L* - 4 b h^4, so the last two differ by 60 b h^4, a bound on the
    # extrapolated value's error 4 b h^4, where |L_3 - L_2| / 3 is about a h^2
    Ls, a, b = 2.0 * np.pi, 2.0, -0.5
    h = 0.2 / 2.0 ** np.arange(3)
    L = Ls + a * h**2 + b * h**4
    value, err = _richardson(L)
    assert value == pytest.approx(Ls - 4.0 * b * h[-1] ** 4, abs=1e-14)
    assert err == pytest.approx(60.0 * abs(b) * h[-1] ** 4, rel=1e-9)
    assert abs(value - Ls) <= err < abs(L[-1] - L[-2]) / 3.0
    # two levels keep the un-extrapolated estimate, one level has none
    value2, err2 = _richardson(L[:2])
    assert (value2, err2) == ((4.0 * L[1] - L[0]) / 3.0, abs(L[1] - L[0]) / 3.0)
    assert np.isnan(_richardson(L[:1])[1])


def _logged_minimize(monkeypatch):
    """Record the problem rows of every energy evaluation."""
    calls = []
    solve = geodesics.minimize

    def logged(fun, x0, gtol, maxiter):
        def fun_logged(z, rows):
            calls.append(rows.copy())
            return fun(z, rows)

        return solve(fun_logged, x0, gtol, maxiter)

    monkeypatch.setattr(geodesics, "minimize", logged)
    return calls


@pytest.mark.parametrize("swapped", [False, True], ids=["primal", "dual"])
def test_girth_start_in_a_batch_equals_the_start_alone(
    monkeypatch, swapped, pm_body6, tilted_ellipsoid
):
    # the numeric dual's gradient inverse runs on the rows of all live
    # problems at once; no row may feel the others
    sphere = EmbeddedSphere(pm_body6, tilted_ellipsoid)
    if swapped:
        sphere = sphere.swapped()
    opts = GirthOptions(N=16, starts=4, seed=3)
    calls = _logged_minimize(monkeypatch)
    res = girth(sphere, opts)
    batched = np.bincount(np.concatenate(calls), minlength=opts.starts)
    starts = _symmetric_starts(sphere, 16, 4, opts.seed)
    best = res.certificate["start_index"]
    # every start alone on the primal side, the best one on the costlier dual
    alone = {}
    for i in [best] if swapped else range(opts.starts):
        calls.clear()
        value, err, lengths, x, resid = _continuation(
            sphere, starts[i : i + 1], opts.tol, opts.levels
        )
        alone[i] = len(calls)
        if i == best:
            assert value[0] == res.girth
            assert x[0].tobytes() == res.curve.half_points.tobytes()
            assert lengths[0].tolist() == res.certificate["continuation_lengths"]
            assert (err[0], resid[0]) == (
                res.certificate["richardson_error"],
                res.certificate["first_order_residual"],
            )
    # a problem is evaluated exactly as often in the batch as alone: once
    # stopped, it is no longer in the batch
    assert {i: batched[i] for i in alone} == alone


def test_dual_girth_warm_starts_the_gradient_inverse(pm_body6, tilted_ellipsoid):
    # every energy evaluation of a polygon starts the numeric dual's
    # gradient inverse at the chords from that polygon's previous solutions:
    # on the geodesics benchmark's dual girth the primal's order-2 jets take
    # 212,561 rows, against 379,108 when each solve starts from the
    # quadratic model
    rows = []

    def counting(x, order):
        if order == 2:
            rows.append(np.prod(np.shape(x)[:-1]))
        return pm_body6.jet(x, order)

    body = dataclasses.replace(pm_body6, jet=counting)
    opts = GirthOptions(N=16, starts=4, seed=harness.subseed(0, 10))
    dual_girth(EmbeddedSphere(body, tilted_ellipsoid), opts)
    assert sum(rows) <= 260_000


def test_batched_solver_agrees_with_scipy_lbfgsb(
    monkeypatch, pm_body6, tilted_ellipsoid, round_sphere
):
    # scipy's L-BFGS-B run on each problem alone, on the same preconditioned
    # objective, is the reference; per start the two agree to 4.6e-12
    # relative or better (girth and dual girth of the geodesics benchmark at
    # seeds 0-4)
    def both(f):
        ours = np.asarray(f())
        with monkeypatch.context() as m:
            m.setattr(geodesics, "minimize", lbfgsb)
            ref = np.asarray(f())
        assert ours.shape == ref.shape
        np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=0.0)

    sphere = EmbeddedSphere(pm_body6, tilted_ellipsoid)
    opts = GirthOptions(N=16, starts=4, seed=harness.subseed(0, 10))
    for s in (sphere, sphere.swapped()):
        both(lambda: girth(s, opts).certificate["start_lengths"])
    spectrum_opts = GirthOptions(N=16, starts=4, seed=0, tol=1e-11)
    both(lambda: length_spectrum_probe(round_sphere, spectrum_opts))


def _counted_minimize(monkeypatch):
    """Record the result of every call to the batched minimizer."""
    results = []
    solve = geodesics.minimize

    def counted(fun, x0, gtol, maxiter):
        results.append(solve(fun, x0, gtol, maxiter))
        return results[-1]

    monkeypatch.setattr(geodesics, "minimize", counted)
    return results


def test_girth_and_dual_girth_take_few_energy_evaluations(
    monkeypatch, pm_body6, tilted_ellipsoid
):
    # the geodesics benchmark's girth and dual girth, three levels each:
    # minimized in the Laplacian-preconditioned variables they take 331
    # energy evaluations, where the plain free vertices took 1222
    results = _counted_minimize(monkeypatch)
    sphere = EmbeddedSphere(pm_body6, tilted_ellipsoid)
    opts = GirthOptions(N=16, starts=4, seed=harness.subseed(0, 10))
    girth(sphere, opts)
    dual_girth(sphere, opts)
    assert len(results) == 6
    assert sum(r.nfev for r in results) <= 500


def test_first_order_residual_is_the_gradient_in_the_free_vertices(
    monkeypatch, pm_body6, tilted_ellipsoid
):
    # the minimizer works in z = C^-1 y; the certificate is the gradient
    # with respect to the free vertices y = C z it returns, not the z-gradient
    results = _counted_minimize(monkeypatch)
    sphere = EmbeddedSphere(pm_body6, tilted_ellipsoid)
    res = girth(sphere, GirthOptions(N=16, starts=4, seed=0))
    last, idx = results[-1], res.certificate["start_index"]
    C, _ = _preconditioner(last.x.shape[1])
    _, gy = _energy_and_grad(sphere, C @ last.x)
    resid = res.certificate["first_order_residual"]
    assert np.linalg.norm(gy[idx]) == pytest.approx(resid, rel=1e-12)
    assert abs(np.linalg.norm(last.jac[idx]) - resid) > 1e-3 * resid


@pytest.mark.parametrize("n", [3, 16, 96], ids=lambda n: f"symmetric-{n}")
def test_preconditioner_is_the_inverse_root_of_the_shifted_laplacian(n):
    # L is the quadratic form of the chords' differences, D^T D, with the
    # symmetric chain's last chord running to -x_0
    eye = np.eye(n)
    D = np.concatenate([eye[1:], -eye[:1]]) - eye
    C, Cinv = _preconditioner(n)
    assert np.array_equal(C, C.T) and np.array_equal(Cinv, Cinv.T)
    A = D.T @ D + geodesics._SHIFT * eye
    np.testing.assert_allclose(C @ A @ C, eye, rtol=0, atol=1e-12)
    np.testing.assert_allclose(Cinv @ C, eye, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 16, 96])
def test_chord_operator_and_upsampling_keep_the_bits_of_the_closed_chain(n):
    # D x is one rounded subtraction per chord, np.diff of the chain closed
    # at -x_0, and the upsampled polygon holds x and the chords' midpoints,
    # the last one between x_{n-1} and -x_0, bit for bit
    rng = np.random.default_rng(n)
    x = rng.standard_normal((4, n, 3)) * np.exp(rng.uniform(-5.0, 5.0, (4, n, 3)))
    closed = np.concatenate([x, -x[:, :1]], axis=1)
    assert (_chords(n) @ x).tobytes() == np.diff(closed, axis=1).tobytes()
    up = _upsample(x)
    assert up.shape == (4, 2 * n, 3)
    assert up[:, 0::2].tobytes() == x.tobytes()
    assert up[:, 1::2].tobytes() == (0.5 * (closed[:, :-1] + closed[:, 1:])).tobytes()


def test_girth_takes_the_first_of_starts_tied_to_rounding(monkeypatch, pm_body6, tilted_ellipsoid):
    # a start and the same polygon with its vertices cycled by one reach one
    # geodesic, whose values differ by 1.5e-12 relative, the cycled one
    # lower: the first start is reported, with its own certificate
    sphere = EmbeddedSphere(pm_body6, tilted_ellipsoid)
    x = _symmetric_starts(sphere, 16, 1, 0)
    pair = np.concatenate([x, np.concatenate([x[:, 1:], -x[:, :1]], axis=1)])
    monkeypatch.setattr(geodesics, "_symmetric_starts", lambda *args: pair)
    res = girth(sphere, GirthOptions(N=16, starts=2, seed=0))
    v = res.certificate["start_lengths"]
    assert v[1] < v[0] <= v[1] * (1.0 + 1e-9)
    assert res.certificate["start_index"] == 0
    value, err, lengths, xs, resid = _continuation(sphere, x, 1e-10, 3)
    assert res.girth == value[0] == v[0]
    assert xs[0].tobytes() == res.curve.half_points.tobytes()
    assert (err[0], resid[0]) == (
        res.certificate["richardson_error"],
        res.certificate["first_order_residual"],
    )

"""Acceptance battery: nine oracle-backed criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete; the whole battery is a few minutes of desk-scale compute,
so it is marked ``slow`` and ``pytest -m "not slow"`` skips it.
"""

import time

import numpy as np
import pytest

from girthlab import (
    EmbeddedSphere,
    GirthOptions,
    characteristic_flow,
    crofton_line_measure,
    dual_body,
    dual_girth,
    girth,
    ht_volume,
    induced_hamiltonian,
    legendre,
    legendre_inverse,
    length_spectrum_probe,
    make_ellipsoid,
    make_power_mean,
    trajectory_action,
)
from girthlab.harness import run_maps_battery
from girthlab.metric import CoSpherePoint, cosphere_lift

from oracles import ellipse_perimeter

pytestmark = pytest.mark.slow


def _report(name, value, tol, note=""):
    status = "PASS" if value <= tol else "FAIL"
    print(f"[{status}] {name}: {value:.3e} (tol {tol:.3e}) {note}".rstrip())
    return status == "PASS"


def _rot(a, b):
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    Rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    return Rz @ Rx


EUCLID = make_ellipsoid(np.eye(3), label="euclid")
ANISO = make_ellipsoid(np.diag([1.0, 1.0 / 0.64, 1.0 / 0.36]), label="e-086")
TILT = make_ellipsoid(
    _rot(0.4, 0.9) @ np.diag([0.8, 1.6, 2.5]) @ _rot(0.4, 0.9).T, label="e-tilt"
)
PM4 = make_power_mean([np.diag([1.0, 2.0, 0.5]), np.eye(3)], 4, label="pm4")
PM6 = make_power_mean(
    [np.eye(3), _rot(0.7, 0.2) @ np.diag([2.2, 0.6, 1.1]) @ _rot(0.7, 0.2).T],
    6,
    label="pm6",
)

OPTS = GirthOptions(N=16, starts=4, seed=0)


def _lifted_start(sphere, res):
    pts = res.curve.full_points
    q0 = pts[0]
    p0 = cosphere_lift(sphere, q0, pts[1] - pts[-1])
    return CoSpherePoint(q0, p0 / float(induced_hamiltonian(sphere, q0, p0)))


def test_criterion_1_round_girth():
    t0 = time.perf_counter()
    res = girth(EmbeddedSphere(EUCLID, EUCLID), OPTS)
    elapsed = time.perf_counter() - t0
    rel = abs(res.girth - 2.0 * np.pi) / (2.0 * np.pi)
    ok = _report("1 round-sphere girth", rel, 1e-3, f"[{elapsed:.1f}s]")
    assert ok and elapsed < 30.0


def test_criterion_2_ellipsoid_girth_oracle():
    res = girth(EmbeddedSphere(ANISO, EUCLID), OPTS)
    oracle = ellipse_perimeter(0.8, 0.6)
    rel = abs(res.girth - oracle) / oracle
    assert _report("2 ellipsoid girth vs perimeter oracle", rel, 1e-3)


def test_criterion_3_girth_duality():
    pairs = [
        (ANISO, EUCLID),
        (ANISO, PM4),
        (PM6, TILT),
        (PM4, PM4),
        (TILT, PM6),
    ]
    worst = 0.0
    for b1, b2 in pairs:
        s = EmbeddedSphere(b1, b2)
        g = girth(s, OPTS).girth
        gd = dual_girth(s, OPTS).girth
        worst = max(worst, abs(g - gd) / g)
    assert _report("3 girth duality over 5 pairs", worst, 5e-3)


def test_criterion_4_map_properties():
    pairs = [
        EmbeddedSphere(ANISO, PM4),
        EmbeddedSphere(PM6, TILT),
    ]
    worst = {
        "residual": 0.0,
        "equivariance": 0.0,
        "action": 0.0,
        "roundtrip": 0.0,
    }
    for s in pairs:
        out = run_maps_battery(s, 1000, seed=0)
        worst["residual"] = max(
            worst["residual"],
            out["dual_surface_residual"],
            out["restriction_residual"],
            out["dual_cosphere_residual"],
        )
        worst["equivariance"] = max(worst["equivariance"], out["psi_equivariance"])
        worst["action"] = max(
            worst["action"],
            out["action_preservation_psi"],
            out["action_preservation_phi_reversed"],
        )
        worst["roundtrip"] = max(
            worst["roundtrip"], out["phi_roundtrip"], out["Phi_roundtrip"]
        )
    ok = _report("4a map image residuals", worst["residual"], 1e-10)
    ok &= _report("4b psi antipodal equivariance", worst["equivariance"], 1e-9)
    ok &= _report("4c action preservation", worst["action"], 1e-6)
    ok &= _report("4d boundary and interior map round trips", worst["roundtrip"], 1e-7)
    assert ok


def test_criterion_5_action_equals_length():
    cases = [
        (EmbeddedSphere(EUCLID, EUCLID), "round"),
        (EmbeddedSphere(ANISO, EUCLID), "ellipsoid"),
        (EmbeddedSphere(PM6, TILT), "pm6/tilted"),
    ]
    worst = 0.0
    for s, _name in cases:
        res = girth(s, OPTS)
        traj = characteristic_flow(s, _lifted_start(s, res), res.girth, res.girth / 4096)
        worst = max(worst, abs(trajectory_action(traj) - res.girth) / res.girth)
    assert _report("5 action equals length on lifted geodesics", worst, 1e-5)


def test_criterion_6_volume_and_spectrum_equality():
    pairs = [
        EmbeddedSphere(ANISO, PM4),
        EmbeddedSphere(TILT, PM6),
        EmbeddedSphere(ANISO, EUCLID),
    ]
    worst_v = 0.0
    for s in pairs:
        v1 = ht_volume(s)
        v2 = ht_volume(s.swapped())
        worst_v = max(worst_v, abs(v1.value - v2.value) / v1.value)
    ok = _report("6a volume equality across dual sides", worst_v, 1e-2)

    s = EmbeddedSphere(ANISO, PM4)
    sp = length_spectrum_probe(s, 4, seed=0, N=16)
    sd = length_spectrum_probe(s.swapped(), 4, seed=1, N=16)
    worst_s = 0.0
    for v in sp:
        worst_s = max(worst_s, min(abs(v - w) for w in sd))
    for w in sd:
        worst_s = max(worst_s, min(abs(w - v) for v in sp))
    ok &= _report("6b spectrum match across dual sides", worst_s, 5e-4)
    ok &= _report("6c volume equality at quadrature accuracy", worst_v, 1e-10)
    assert ok


def test_criterion_7_round_volume():
    rep = ht_volume(EmbeddedSphere(EUCLID, EUCLID))
    rel = abs(rep.value - 4.0 * np.pi) / (4.0 * np.pi)
    assert _report("7 round-sphere Holmes-Thompson volume", rel, 5e-3)


def test_criterion_8_crofton():
    ambient2 = make_ellipsoid(np.diag([1.0, 1.4, 0.7]), label="e-amb")
    worst = 0.0
    for ambient in (EUCLID, ambient2):
        for M in (EUCLID, ANISO, PM4):
            rep = crofton_line_measure(ambient, M, 1_000_000, seed=0)
            vol = ht_volume(EmbeddedSphere(M, ambient))
            worst = max(worst, abs(rep.value / (np.pi * vol.value) - 1.0))
    ok = _report("8a crofton ratio over 3 bodies x 2 ambients", worst, 1e-2)

    vals, errs = [], []
    for seed in range(10):
        r = crofton_line_measure(EUCLID, ANISO, 100_000, seed=seed)
        vals.append(r.value)
        errs.append(r.error_estimate)
    mean = float(np.mean(vals))
    spread = max(
        abs(v - mean) / e for v, e in zip(vals, errs)
    )  # in units of each run's standard error
    ok &= _report("8b crofton 10-seed stability (3 sigma)", spread, 3.0)
    assert ok


def test_criterion_9_biduality_and_legendre():
    rng = np.random.default_rng(0)
    worst = 0.0
    for body in (ANISO, TILT, PM4, PM6):
        x = rng.standard_normal((1000, 3))
        dd = dual_body(dual_body(body))
        worst = max(
            worst, float(np.abs(dd.gauge(x) / body.gauge(x) - 1.0).max())
        )
        q = x / body.gauge(x)[:, None]
        xi = legendre(body, q)
        worst = max(worst, float(np.abs(legendre_inverse(body, xi) - q).max()))
    assert _report("9 biduality and Legendre round trips", worst, 1e-8)

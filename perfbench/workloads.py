"""The three benchmark workloads, driven only through girthlab's public API.

Each workload builds its bodies from config-style specs with
``harness.body_from_spec`` and certifies them (the set-up), then runs one
iteration that returns the checks it made, at the acceptance-battery
tolerances, and the values it reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Sizing floors.  The action check on the closed co-sphere loop (tolerance
# 1e-6) needs the 32768-point midpoint rule, and the flow action check
# (tolerance 1e-5) needs the step T/4096.
N_LOOP = 32768
FLOW_STEPS = 4096

# One 200k-line batch of crofton_line_measure.  The battery's 1e6 lines take
# 83 s, more than one benchmark run may take.  Its tolerance, 1e-2 at 1e6
# lines, is about 3 standard errors; at fewer lines the same confidence
# needs the tolerance scaled by sqrt(1e6 / lines).
CROFTON_LINES = 200_000
CROFTON_REL = 1e-2 * (1_000_000 / CROFTON_LINES) ** 0.5

MAP_SAMPLES = 200  # batched boundary-map samples, as in configs/maps_verify.json
PHI_SAMPLES = 8  # scalar interior-map round trips
CERT_SAMPLES = 2000  # as in harness.run
GIRTH_STARTS = 4


def _rot(a, b):
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    Rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    return Rz @ Rx


def _ellipsoid(A, label):
    return {"type": "ellipsoid", "matrix": np.asarray(A, float).tolist(), "label": label}


def _power_mean(mats, p, label):
    return {
        "type": "power_mean",
        "terms": [np.asarray(A, float).tolist() for A in mats],
        "p": p,
        "label": label,
    }


def specs() -> dict:
    """Body specs in the config format, as in tests/conftest.py."""
    R6, Rt = _rot(0.7, 0.2), _rot(0.4, 0.9)
    return {
        "e-086": _ellipsoid(np.diag([1.0, 1.5625, 2.7777777777777777]), "e-086"),
        "e-amb": _ellipsoid(np.diag([1.0, 1.4, 0.7]), "e-amb"),
        "e-tilt": _ellipsoid(Rt @ np.diag([0.8, 1.6, 2.5]) @ Rt.T, "e-tilt"),
        "pm4": _power_mean([np.diag([1.0, 2.0, 0.5]), np.eye(3)], 4, "pm4"),
        "pm6": _power_mean([np.eye(3), R6 @ np.diag([2.2, 0.6, 1.1]) @ R6.T], 6, "pm6"),
    }


@dataclass
class Outcome:
    """What one iteration produced.  ``checks`` holds (name, value,
    tolerance, passed); ``fingerprint`` holds every reported number, so a
    traced and an untraced iteration can be compared bit for bit."""

    checks: list
    values: dict
    fingerprint: bytes


def _check(name, value, tol):
    value = float(value)
    return (name, value, float(tol), bool(value <= tol))


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    bodies: tuple = ()

    def setup(self, gl):
        """Build and certify this workload's bodies; returns them by name."""
        table = specs()
        built = {}
        for label in self.bodies:
            body = gl.harness.body_from_spec(table[label], 3)
            gl.check_quadratic_convexity(body, CERT_SAMPLES, 0)
            built[label] = body
        return built


def _closed_cosphere_loop(gl, sphere, n_pts, phase):
    """Smooth closed curve on the unit co-sphere bundle: a projected great
    circle with the supporting covector of its exact tangent, sampled from
    the fraction ``phase`` of a step on.

    The circle's plane is the one ``harness.run`` uses for maps-verify at
    seed 0.  The batched conormal solver iterates until the slowest point
    of the loop converges, so the plane sets the work; a seeded plane would
    move wall time by a quarter from seed to seed.
    """
    rng = np.random.default_rng(gl.harness.subseed(0, 2))
    basis, _ = np.linalg.qr(rng.standard_normal((sphere.dim, 2)))
    u, v = basis[:, 0], basis[:, 1]
    theta = 2.0 * np.pi * (np.arange(n_pts) + phase) / n_pts
    c = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v
    dc = -np.sin(theta)[:, None] * u + np.cos(theta)[:, None] * v
    F1 = sphere.body1.gauge(c)
    g1 = sphere.body1.gradient(c)
    q = c / F1[:, None]
    dq = dc / F1[:, None] - c * (np.einsum("ij,ij->i", g1, dc) / F1**2)[:, None]
    p = gl.restrict_covector(sphere, sphere.body2.gradient(dq), q)
    return q, p


class Maps(Workload):
    """Duality maps of the e-086 sphere in the pm4 ambient (the maps-verify
    config): the dual ambient is the numerically inverted dual of pm4."""

    name = "maps"
    bodies = ("e-086", "pm4")

    def run(self, gl, bodies, seed) -> Outcome:
        tol = gl.harness.DEFAULT_TOLERANCES
        sphere = gl.EmbeddedSphere(bodies["e-086"], bodies["pm4"])
        swapped = sphere.swapped()
        rng = np.random.default_rng(gl.harness.subseed(seed, 1))
        q, p = gl.sample_cosphere(sphere, MAP_SAMPLES, rng)

        P, Q = gl.psi(sphere, q, p)
        Pm, Qm = gl.psi(sphere, -q, -p)
        Pb, Qb = gl.phi(sphere, q, p)
        qb, pb = gl.phi(swapped, Pb, Qb)
        res_map = np.abs(sphere.dual2.gauge(P) - 1.0).max()
        res_restr = np.abs(gl.restrict_covector(sphere, P, q) + p).max()
        equiv = max(np.abs(Pm + P).max(), np.abs(Qm + Q).max())
        rt_phi = max(np.abs(qb - q).max(), np.abs(pb - p).max())

        scale = rng.uniform(0.2, 0.8, size=PHI_SAMPLES)
        rt_Phi = 0.0
        for i in range(PHI_SAMPLES):
            pi = p[i] * scale[i]
            Pi, Qi = gl.Phi(sphere, q[i], pi)
            qi, pi2 = gl.Phi(swapped, Pi, Qi)
            rt_Phi = max(rt_Phi, np.abs(qi - q[i]).max(), np.abs(pi2 - pi).max())

        lq, lp = _closed_cosphere_loop(gl, sphere, N_LOOP, rng.random())
        a0 = gl.action(lq, lp, closed=True)
        LP, LQ = gl.psi(sphere, lq, lp)
        a1 = gl.action(LP, LQ, closed=True)

        checks = [
            _check("map_residual", res_map, tol["map_residual"]),
            _check("restriction_residual", res_restr, tol["map_residual"]),
            _check("psi_equivariance", equiv, tol["psi_equivariance"]),
            _check("phi_roundtrip", rt_phi, tol["phi_roundtrip"]),
            _check("Phi_roundtrip", rt_Phi, tol["phi_roundtrip"]),
            _check("action_preservation", abs(a1 - a0), tol["action_preservation"]),
        ]
        values = {"loop_action": a0, "mapped_loop_action": a1}
        arrays = (P, Q, Pm, Qm, Pb, Qb, qb, pb, LP, LQ)
        fingerprint = b"".join(a.tobytes() for a in arrays) + repr(
            (checks, values)
        ).encode()
        return Outcome(checks, values, fingerprint)


class Crofton(Workload):
    """``harness.run`` on the crofton experiment with M = pm4 in the e-amb
    ambient; both duals are closed forms."""

    name = "crofton"
    bodies = ("pm4", "e-amb")

    def config(self, gl, seed):
        table = specs()
        return gl.ExperimentConfig.from_dict(
            {
                "version": 1,
                "space": {"dim": 3, "norm1": table["pm4"], "norm2": table["e-amb"]},
                "experiment": "crofton",
                "solver": {"samples": CROFTON_LINES},
                "tolerances": {"crofton_rel": CROFTON_REL},
                "seed": seed,
            }
        )

    def run(self, gl, bodies, seed) -> Outcome:
        report = gl.run(self.config(gl, seed))
        checks = [
            (c["name"], c["value"], c["tolerance"], c["passed"]) for c in report.checks
        ]
        res = report.results
        values = {
            "ht_volume": res["ht_volume"]["value"],
            "line_measure": res["line_measure"]["value"],
            "ratio": res["ratio"],
        }
        return Outcome(checks, values, report.canonical_bytes())


class Geodesics(Workload):
    """Acceptance criteria 3 and 5 on pm6 in the e-tilt ambient: girth, dual
    girth, and the characteristic flow along the lifted girth geodesic."""

    name = "geodesics"
    bodies = ("pm6", "e-tilt")

    def run(self, gl, bodies, seed) -> Outcome:
        tol = gl.harness.DEFAULT_TOLERANCES
        sphere = gl.EmbeddedSphere(bodies["pm6"], bodies["e-tilt"])
        opts = gl.GirthOptions(N=16, starts=GIRTH_STARTS, seed=gl.harness.subseed(seed, 10))
        res = gl.girth(sphere, opts)
        dres = gl.dual_girth(sphere, opts)
        g, gd = res.girth, dres.girth

        pts = res.curve.full_points
        q0 = pts[0]
        p0 = gl.cosphere_lift(sphere, q0, pts[1] - pts[-1])
        p0 = p0 / float(gl.induced_hamiltonian(sphere, q0, p0))
        start = gl.CoSpherePoint(q0, p0)
        traj = gl.characteristic_flow(sphere, start, g, g / FLOW_STEPS)
        act = gl.trajectory_action(traj)

        checks = [
            _check("girth_duality_gap", abs(g - gd) / g, tol["dual_gap_rel"]),
            # the battery's tolerance for criterion 5
            _check("action_equals_length", abs(act - g) / g, 1e-5),
        ]
        values = {"girth": g, "dual_girth": gd, "flow_action": act}
        fingerprint = (
            res.curve.half_points.tobytes()
            + dres.curve.half_points.tobytes()
            + traj.qs.tobytes()
            + traj.ps.tobytes()
            + repr((checks, values)).encode()
        )
        return Outcome(checks, values, fingerprint)


WORKLOADS = {w.name: w for w in (Maps(), Crofton(), Geodesics())}

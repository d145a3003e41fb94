"""Action integrals, Holmes-Thompson volumes and the oriented-line measure.

Volumes are computed for 3-dimensional ambient spaces only: base surfaces
are 2-D, cotangent fibers are 2-D and the line space is 4-D.  The fiber
body of the induced metric is handled through the support function of the
ambient-ball *section* by the tangent plane, which needs only primal gauge
evaluations; the equivalence with the conormal-line minimization used by
``induced_hamiltonian`` is covered by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bodies import GaugeBody, dual_body, tangent_basis
from .errors import NumericalFailureError, PreconditionError, UnsupportedInputError
from .metric import EmbeddedSphere, minimize_along_conormal

Array = np.ndarray


@dataclass
class OrientedLine:
    """Oriented line encoded by a unit dual-gauge covector P (direction
    datum) and a canonical moment Q with <Q, P> = 0; the line is
    {Q + s * L(P)} with L(P) the supporting point of P."""

    P: Array
    Q: Array


@dataclass
class VolumeReport:
    value: float
    method: str
    samples: int
    seed: int
    error_estimate: float
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# action


def action(qs: Array, ps: Array, closed: bool = False) -> float:
    """Midpoint-rule integral of the canonical 1-form along a discrete
    cotangent curve: sum of <(p_i + p_{i+1})/2, q_{i+1} - q_i>."""
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if qs.shape != ps.shape or qs.ndim != 2:
        raise PreconditionError("need matching 2-D sample arrays")
    mid = 0.5 * (ps[:-1] + ps[1:])
    dq = np.diff(qs, axis=0)
    total = float(np.einsum("ij,ij->", mid, dq))
    if closed:
        total += float((0.5 * (ps[-1] + ps[0])) @ (qs[0] - qs[-1]))
    return total


def trajectory_action(traj) -> float:
    return action(traj.qs, traj.ps, closed=False)


# ---------------------------------------------------------------------------
# fiber support gauge (section formulation)


def fiber_support_gauge(sphere: EmbeddedSphere, q: Array, p: Array, n_scan: int = 4096):
    """Gauge of the co-disc fiber computed as the support value of the
    ambient-ball section by the tangent plane: max over unit tangent v of
    <p, v>.  Same function as ``induced_hamiltonian``, different route."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = sphere.body1.gradient(q)
    T = tangent_basis(n)
    e1, e2 = T[..., 0], T[..., 1]
    s = 2.0 * np.pi * np.arange(n_scan) / n_scan
    w = np.cos(s)[:, None] * e1[None, :] + np.sin(s)[:, None] * e2[None, :]
    vals = (w @ p) / sphere.body2.gauge(w)
    j = int(np.argmax(vals))
    f0, fp, fm = vals[j], vals[(j + 1) % n_scan], vals[(j - 1) % n_scan]
    denom = 2.0 * f0 - fp - fm
    if denom > 0:
        f0 = f0 + (fp - fm) ** 2 / (8.0 * denom)
    return float(f0)


# ---------------------------------------------------------------------------
# Holmes-Thompson volume


def _sphere_chart(mu: Array, phi: Array):
    """Points and chart partials of the round unit sphere in (mu, phi) =
    (cos theta, azimuth) coordinates; dA = dmu dphi."""
    s = np.sqrt(1.0 - mu**2)
    u = np.stack([s * np.cos(phi), s * np.sin(phi), mu], axis=-1)
    du_dmu = np.stack(
        [-(mu / s) * np.cos(phi), -(mu / s) * np.sin(phi), np.ones_like(mu)], axis=-1
    )
    du_dphi = np.stack([-s * np.sin(phi), s * np.cos(phi), np.zeros_like(mu)], axis=-1)
    return u, du_dmu, du_dphi


def _ht_volume_once(
    sphere: EmbeddedSphere, n_mu: int, n_phi: int, n_beta: int, n_scan: int
) -> float:
    body1, body2 = sphere.body1, sphere.body2
    nodes, wts = np.polynomial.legendre.leggauss(n_mu)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    MU, PHI = np.meshgrid(nodes, phi, indexing="ij")
    W = np.broadcast_to(wts[:, None], MU.shape) * (2.0 * np.pi / n_phi)
    mu = MU.ravel()
    ph = PHI.ravel()
    wq = W.ravel()

    u, du_dmu, du_dphi = _sphere_chart(mu, ph)
    F1, g1, _ = body1.jet(u, 1)  # g1 is 0-homogeneous: the same at q
    q = u / F1[:, None]

    def chart_partial(du):
        return du / F1[:, None] - u * np.einsum("ij,ij->i", g1, du)[:, None] / (
            F1**2
        )[:, None]

    q_mu = chart_partial(du_dmu)
    q_phi = chart_partial(du_dphi)

    nu = g1 / np.linalg.norm(g1, axis=-1, keepdims=True)
    T = tangent_basis(g1)
    e1, e2 = T[..., 0], T[..., 1]

    def psi_dot(e, dq):
        corr = np.einsum("ij,ij->i", e, q) / np.einsum("ij,ij->i", nu, q)
        return np.einsum("ij,ij->i", e, dq) - corr * np.einsum("ij,ij->i", nu, dq)

    J = np.abs(
        psi_dot(e1, q_mu) * psi_dot(e2, q_phi) - psi_dot(e2, q_mu) * psi_dot(e1, q_phi)
    )

    # fiber areas: support function of the ambient-ball section by the
    # tangent plane, via a scan over section directions
    svals = 2.0 * np.pi * np.arange(n_scan) / n_scan
    beta = 2.0 * np.pi * np.arange(n_beta) / n_beta
    cosmat = np.cos(beta[:, None] - svals[None, :])  # (B, S)

    K = q.shape[0]
    areas = np.empty(K)
    chunk = max(1, int(2**22 // (n_beta * n_scan)))
    cs = np.cos(svals)
    sn = np.sin(svals)
    for lo in range(0, K, chunk):
        hi = min(K, lo + chunk)
        w = (
            cs[None, :, None] * e1[lo:hi, None, :]
            + sn[None, :, None] * e2[lo:hi, None, :]
        )  # (k, S, 3)
        R = 1.0 / body2.gauge(w)  # (k, S)
        vals = cosmat[None, :, :] * R[:, None, :]  # (k, B, S)
        j = np.argmax(vals, axis=-1)  # (k, B)
        take = np.take_along_axis
        f0 = take(vals, j[..., None], axis=-1)[..., 0]
        fp = take(vals, ((j + 1) % n_scan)[..., None], axis=-1)[..., 0]
        fm = take(vals, ((j - 1) % n_scan)[..., None], axis=-1)[..., 0]
        denom = 2.0 * f0 - fp - fm
        safe = np.where(denom > 0.0, denom, 1.0)
        h = np.where(denom > 0.0, f0 + (fp - fm) ** 2 / (8.0 * safe), f0)
        areas[lo:hi] = 0.5 * np.sum(h**-2.0, axis=-1) * (2.0 * np.pi / n_beta)

    return float(np.sum(wq * J * areas) / np.pi)


def ht_volume(
    sphere: EmbeddedSphere,
    n_mu: int = 24,
    n_phi: int = 48,
    n_beta: int = 64,
    n_scan: int = 256,
    seed: int = 0,
) -> VolumeReport:
    """Holmes-Thompson volume of the induced metric: symplectic volume of
    the unit co-disc bundle divided by the area of the Euclidean unit disc.
    Quadrature error is estimated by grid doubling."""
    if sphere.dim != 3:
        raise UnsupportedInputError("volumes are implemented for dimension 3")
    coarse = _ht_volume_once(sphere, n_mu, n_phi, n_beta, n_scan)
    fine = _ht_volume_once(sphere, 2 * n_mu, 2 * n_phi, 2 * n_beta, 2 * n_scan)
    return VolumeReport(
        value=fine,
        method="quadrature",
        samples=4 * n_mu * n_phi,
        seed=seed,
        error_estimate=abs(fine - coarse),
        details={"coarse": coarse, "n_mu": n_mu, "n_phi": n_phi, "n_beta": n_beta},
    )


# ---------------------------------------------------------------------------
# oriented lines and the Crofton measure


def line_hits_body(line: OrientedLine, M: GaugeBody, ambient: GaugeBody) -> bool:
    """Whether the oriented line passes through the open interior of M."""
    dual = dual_body(ambient)
    direction = dual.gradient(line.P)
    _, val = minimize_along_conormal(M, np.asarray(line.Q, float), direction)
    return bool(val < 1.0 - 1e-10)


def _euclid_radius(body: GaugeBody, n_dirs: int = 2048) -> float:
    rng = np.random.default_rng(12345)
    d = rng.standard_normal((n_dirs, body.dim))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return float((1.0 / body.gauge(d)).max())


def crofton_line_measure(
    ambient: GaugeBody,
    M: GaugeBody,
    n_samples: int,
    seed: int,
    batch: int = 200_000,
) -> VolumeReport:
    """Monte Carlo measure of the oriented lines meeting the interior of M,
    with the symplectic density of the line space evaluated per sample from
    the chart pullback.

    Lines are drawn by sampling the direction datum P over the dual unit
    surface and the moment Q uniformly in a disc of canonical-coordinate
    radius large enough to contain every line meeting M; hits near the disc
    edge trigger an enlarged-region retry.
    """
    if ambient.dim != 3:
        raise UnsupportedInputError("line measures are implemented for dimension 3")
    dual = dual_body(ambient)
    r_M = _euclid_radius(M) * 1.05
    r_P = _euclid_radius(dual) * 1.05  # max Euclidean norm over the dual surface
    r_L = _euclid_radius(ambient) * 1.05  # supporting points lie on the unit surface
    R_Q = r_M * (1.0 + r_P * r_L) * 1.1

    for _attempt in range(4):
        rng = np.random.default_rng(seed)
        total = 0.0
        total_sq = 0.0
        count = 0
        overflow = False
        remaining = n_samples
        while remaining > 0:
            k = min(batch, remaining)
            remaining -= k
            u = rng.standard_normal((k, 3))
            u /= np.linalg.norm(u, axis=-1, keepdims=True)
            # gs: grad of the dual gauge, the supporting point of P
            Fs, gs, _ = dual.jet(u, 1)
            P = u / Fs[:, None]
            Tt = tangent_basis(u)
            t1, t2 = Tt[..., 0], Tt[..., 1]

            def dP(t):
                return t / Fs[:, None] - u * (
                    np.einsum("ij,ij->i", gs, t) / Fs**2
                )[:, None]

            DP1, DP2 = dP(t1), dP(t2)
            Tc = tangent_basis(P)
            c1, c2 = Tc[..., 0], Tc[..., 1]
            J = np.abs(
                np.einsum("ij,ij->i", c1, DP1) * np.einsum("ij,ij->i", c2, DP2)
                - np.einsum("ij,ij->i", c2, DP1) * np.einsum("ij,ij->i", c1, DP2)
            )

            rad = R_Q * np.sqrt(rng.random(k))
            ang = 2.0 * np.pi * rng.random(k)
            Q = rad[:, None] * (
                np.cos(ang)[:, None] * c1 + np.sin(ang)[:, None] * c2
            )
            _, val = minimize_along_conormal(M, Q, gs)
            hit = val < 1.0 - 1e-10
            if np.any(hit & (rad > 0.97 * R_Q)):
                overflow = True
                break
            X = J * hit
            total += float(X.sum())
            total_sq += float((X**2).sum())
            count += k
        if overflow:
            R_Q *= 1.5
            continue
        norm = 4.0 * np.pi * np.pi * R_Q**2
        mean = total / count
        var = max(total_sq / count - mean**2, 0.0)
        stderr = norm * np.sqrt(var / count)
        return VolumeReport(
            value=norm * mean,
            method="monte_carlo",
            samples=count,
            seed=seed,
            error_estimate=stderr,
            details={"R_Q": R_Q, "hit_fraction": mean},
        )
    raise NumericalFailureError("bounding region kept overflowing")

"""Girth and geodesics on an embedded unit sphere.

Girth, the length spectrum and the diameter probe minimize one discrete
polygon energy with one continuation driver; the polygon's closure
(centrally symmetric with half of the vertices stored, closed, or with
fixed endpoints) is a parameter of both.  Minimization happens on free
ambient vectors that are radially rescaled onto the surface, so the
constraint is exact.  Discrete curve *energy* (segment count times the sum
of squared chord gauges) is the optimization objective: its minimizers are
constant-speed discrete geodesics, whereas raw chord length admits
spurious collapsed configurations.  Reported lengths are always plain
chord-gauge sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .errors import PreconditionError, UnsupportedInputError
from .metric import (
    CoSpherePoint,
    EmbeddedSphere,
    induced_hamiltonian,
    minimize_along_conormal,
    project_to_surface,
)

Array = np.ndarray


@dataclass
class DiscreteSymmetricCurve:
    """Centrally symmetric closed polygon; only half the vertices stored."""

    half_points: Array

    def __post_init__(self):
        self.half_points = np.asarray(self.half_points, dtype=float)
        if self.half_points.ndim != 2 or self.half_points.shape[0] < 3:
            raise PreconditionError("need at least 3 half points")

    @property
    def n_half(self) -> int:
        return self.half_points.shape[0]

    @property
    def full_points(self) -> Array:
        return np.concatenate([self.half_points, -self.half_points], axis=0)


@dataclass
class CharacteristicTrajectory:
    samples: list
    times: Array
    closure_residual: float
    g_drift: float

    @property
    def qs(self) -> Array:
        return np.array([s.q for s in self.samples])

    @property
    def ps(self) -> Array:
        return np.array([s.p for s in self.samples])


@dataclass
class GirthOptions:
    N: int = 16
    starts: int = 6
    seed: int = 0
    tol: float = 1e-10
    levels: int = 3
    maxiter: int = 4000


@dataclass
class GirthResult:
    girth: float
    curve: DiscreteSymmetricCurve
    certificate: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# discrete energies
#
# A polygon is its free vertices plus a closure: "symmetric" wraps the last
# vertex to the antipode of the first and counts the polygon as two halves,
# "closed" wraps it to the first vertex, and a pair (a, b) of surface points
# fixes both endpoints.


def _chain(x: Array, closure) -> Array:
    """The vertex chain whose successive differences are the chords."""
    if closure == "symmetric":
        return np.concatenate([x, -x[:1]], axis=0)
    if closure == "closed":
        return np.concatenate([x, x[:1]], axis=0)
    a, b = closure
    return np.concatenate([a[None, :], x, b[None, :]], axis=0)


def _length(sphere: EmbeddedSphere, x: Array, closure) -> float:
    L = float(np.sum(sphere.body2.gauge(np.diff(_chain(x, closure), axis=0))))
    return 2.0 * L if closure == "symmetric" else L


def symmetric_length(sphere: EmbeddedSphere, x: Array) -> float:
    return _length(sphere, x, "symmetric")


def _energy_and_grad(sphere: EmbeddedSphere, y: Array, closure):
    """Energy of the radially projected polygon and its gradient with
    respect to the free vertices y."""
    body1, body2 = sphere.body1, sphere.body2
    n = y.shape[0]
    F1 = body1.gauge(y)
    x = y / F1[:, None]
    c = np.diff(_chain(x, closure), axis=0)
    Fc = body2.gauge(c)
    m = 2 * n if closure == "symmetric" else len(c)
    E = m * float(np.sum(Fc**2))
    w = (2.0 * m) * Fc[:, None] * body2.gradient(c)
    gV = np.zeros((len(c) + 1, x.shape[1]))
    gV[1:] += w
    gV[:-1] -= w
    # fold the closure row back onto the vertex it repeats
    if closure == "symmetric":
        g = gV[:n]
        g[0] -= gV[n]
    elif closure == "closed":
        g = gV[:n]
        g[0] += gV[n]
    else:
        g = gV[1:-1]
    # chain rule through the radial projection
    grad1 = body1.gradient(y)
    xg = np.einsum("ij,ij->i", x, g)
    gy = (g - xg[:, None] * grad1) / F1[:, None]
    return E, gy


# ---------------------------------------------------------------------------
# starts and continuation


def _great_circle(u: Array, v: Array, n: int, span: float) -> Array:
    theta = span * np.arange(n) / n
    return np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v


def _random_circle(rng, dim: int, n: int, span: float, noise: float) -> Array:
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    pts = _great_circle(basis[:, 0], basis[:, 1], n, span)
    return pts + noise * rng.standard_normal(pts.shape)


def _symmetric_starts(rng, dim: int, N: int, count: int) -> list:
    """Half great circles in the coordinate planes, then perturbed random
    ones until there are ``count``."""
    eye = np.eye(dim)
    planes = [(0, 1), (0, 2), (1, 2)] if dim >= 3 else [(0, 1)]
    starts = [_great_circle(eye[i], eye[j], N, np.pi) for i, j in planes]
    while len(starts) < count:
        starts.append(_random_circle(rng, dim, N, np.pi, 0.1))
    return starts


def _upsample(x: Array, closure) -> Array:
    """Insert the midpoint between each free vertex and its successor."""
    nxt = _chain(x, closure)[-x.shape[0] :]
    out = np.empty((2 * x.shape[0], x.shape[1]))
    out[0::2] = x
    out[1::2] = 0.5 * (x + nxt)
    return out


def _continuation(sphere, x, closure, tol, maxiter, levels):
    """Minimize the energy from the surface polygon x, doubling the vertex
    count at each further level, with Richardson extrapolation of the last
    two lengths.  Returns (value, error, lengths, x, residual)."""
    if levels < 1:
        raise PreconditionError("levels must be >= 1")
    dim = x.shape[1]

    def fun(z):
        E, g = _energy_and_grad(sphere, z.reshape(-1, dim), closure)
        return E, g.ravel()

    lengths = []
    for lvl in range(levels):
        if lvl > 0:
            x = project_to_surface(sphere.body1, _upsample(x, closure))
        res = minimize(
            fun,
            x.ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"ftol": 1e-16, "gtol": tol, "maxiter": maxiter, "maxcor": 20},
        )
        x = project_to_surface(sphere.body1, res.x.reshape(-1, dim))
        resid = float(np.linalg.norm(res.jac))
        lengths.append(_length(sphere, x, closure))
    if len(lengths) >= 2:
        value = (4.0 * lengths[-1] - lengths[-2]) / 3.0
        err = abs(lengths[-1] - lengths[-2]) / 3.0
    else:
        value, err = lengths[-1], np.nan
    return value, err, lengths, x, resid


def girth(sphere: EmbeddedSphere, opts: Optional[GirthOptions] = None) -> GirthResult:
    """Length of the shortest centrally symmetric closed geodesic found by
    multi-start discrete minimization with mesh continuation."""
    opts = opts or GirthOptions()
    if not (sphere.body1.symmetric and sphere.body2.symmetric):
        raise UnsupportedInputError("girth requires symmetric bodies")
    if sphere.dim < 3:
        raise UnsupportedInputError("girth requires ambient dimension >= 3")
    rng = np.random.default_rng(opts.seed)
    starts = _symmetric_starts(rng, sphere.dim, opts.N, opts.starts)

    best = None
    start_lengths = []
    for idx, x0 in enumerate(starts):
        value, err, lengths, x, resid = _continuation(
            sphere,
            project_to_surface(sphere.body1, x0),
            "symmetric",
            opts.tol,
            opts.maxiter,
            opts.levels,
        )
        start_lengths.append(value)
        if best is None or value < best[0]:
            best = (value, err, lengths, x, resid, idx)
    value, err, lengths, x, resid, idx = best
    cert = {
        "first_order_residual": resid,
        "continuation_lengths": lengths,
        "richardson_error": err,
        "start_index": idx,
        "start_lengths": start_lengths,
        "n_half_final": x.shape[0],
        "certified": bool(resid <= max(opts.tol * 100.0, 1e-6)),
    }
    return GirthResult(girth=value, curve=DiscreteSymmetricCurve(x), certificate=cert)


def dual_girth(sphere: EmbeddedSphere, opts: Optional[GirthOptions] = None) -> GirthResult:
    """Girth of the dual-side sphere (base = dual of the ambient body,
    ambient = dual norm of the base body), computed by the same variational
    solver and nothing else."""
    return girth(sphere.swapped(), opts)


# ---------------------------------------------------------------------------
# spectrum and diameter probes


def length_spectrum_probe(
    sphere: EmbeddedSphere,
    k_starts: int,
    seed: int,
    N: int = 24,
    levels: int = 3,
    cluster_tol: float = 1e-4,
):
    """Sorted distinct closed-geodesic lengths found by multi-start
    refinement.  A probe: it reports what it found, never completeness.

    Symmetric starts (coordinate great circles plus random ones) are
    refined in the symmetric class; a couple of non-symmetric closed loops
    are refined in the full loop space, where contractible starts shrink to
    points and get filtered out.
    """
    if k_starts < 1:
        raise PreconditionError("k_starts must be >= 1")
    rng = np.random.default_rng(seed)
    runs = [("symmetric", x0) for x0 in _symmetric_starts(rng, sphere.dim, N, k_starts)]
    runs += [
        ("closed", _random_circle(rng, sphere.dim, 2 * N, 2.0 * np.pi, 0.05))
        for _ in range(2)
    ]
    found = []
    for closure, x0 in runs:
        value, _, _, _, resid = _continuation(
            sphere, project_to_surface(sphere.body1, x0), closure, 1e-11, 4000, levels
        )
        # a closed loop that shrinks to a point is contractible, not a geodesic
        if resid <= 1e-5 and (closure == "symmetric" or value > 1e-2):
            found.append(value)
    found.sort()
    clustered = []
    for v in found:
        if not clustered or v - clustered[-1] > cluster_tol:
            clustered.append(v)
    return clustered


def _slerp_arc(a: Array, b: Array, K: int, rng) -> Array:
    ah = a / np.linalg.norm(a)
    bh = b / np.linalg.norm(b)
    dot = float(np.clip(ah @ bh, -1.0, 1.0))
    if dot < -1.0 + 1e-10:
        # near-antipodal: route through a random orthogonal waypoint
        w = rng.standard_normal(a.shape[0])
        w -= (w @ ah) * ah
        w /= np.linalg.norm(w)
        half1 = _slerp_arc(ah, w, K // 2, rng)
        half2 = _slerp_arc(w, bh, K - K // 2, rng)
        return np.concatenate([half1, half2[1:]], axis=0)
    ang = np.arccos(dot)
    ts = np.linspace(0.0, 1.0, K + 1)
    if ang < 1e-12:
        return np.outer(np.ones(K + 1), ah)
    s = np.sin(ang)
    return (np.sin((1.0 - ts) * ang) / s)[:, None] * ah + (
        np.sin(ts * ang) / s
    )[:, None] * bh


def shortest_path_length(
    sphere: EmbeddedSphere, a: Array, b: Array, K: int = 24, levels: int = 2, rng=None
) -> float:
    """Chord-gauge length of a locally shortest discrete path from a to b
    (endpoints fixed, interior vertices free).  A lower bound for the true
    induced distance."""
    rng = rng or np.random.default_rng(0)
    a = project_to_surface(sphere.body1, np.asarray(a, float))
    b = project_to_surface(sphere.body1, np.asarray(b, float))
    pts = project_to_surface(sphere.body1, _slerp_arc(a, b, K, rng))
    _, _, lengths, _, _ = _continuation(sphere, pts[1:-1], (a, b), 1e-10, 2000, levels)
    return lengths[-1]


def diameter_probe(sphere: EmbeddedSphere, m_pairs: int, seed: int, K: int = 24) -> float:
    """Max over sampled point pairs of the locally shortest path length; a
    lower bound for the diameter that is monotone in m_pairs."""
    if m_pairs < 1:
        raise PreconditionError("m_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(m_pairs):
        a = rng.standard_normal(sphere.dim)
        b = rng.standard_normal(sphere.dim)
        best = max(best, shortest_path_length(sphere, a, b, K=K, rng=rng))
    return best


# ---------------------------------------------------------------------------
# characteristic flow


def _hamiltonian_field(sphere: EmbeddedSphere, q: Array, p: Array):
    body1 = sphere.body1
    n = body1.gradient(q)
    t, _ = minimize_along_conormal(sphere.dual2, p, n)
    xi = p + t * n
    m = sphere.dual2.gradient(xi)
    F1 = body1.gauge(q)
    H1 = body1.hessian_half_sq(q)
    hessF1 = (H1 - np.outer(n, n)) / F1
    return m, -t * (hessF1 @ m)


def characteristic_flow(
    sphere: EmbeddedSphere, start: CoSpherePoint, T: float, dt: float
) -> CharacteristicTrajectory:
    """Integrate the unit-level Hamiltonian flow of the induced co-sphere
    bundle with a classical 4th-order stepper; after each step the point is
    radially re-projected, the covector re-canonicalized and rescaled back
    to the unit level.  The flow parameter is ambient-norm arclength of the
    base curve."""
    q = np.asarray(start.q, dtype=float).copy()
    p = np.asarray(start.p, dtype=float).copy()
    G0 = float(induced_hamiltonian(sphere, q, p))
    if abs(G0 - 1.0) > 1e-8:
        raise PreconditionError("start must lie on the unit co-sphere")
    n_steps = int(np.ceil(T / dt))
    h = T / n_steps
    samples = [CoSpherePoint(q.copy(), p.copy(), 1.0)]
    times = [0.0]
    drift = 0.0
    for _ in range(n_steps):
        k1q, k1p = _hamiltonian_field(sphere, q, p)
        k2q, k2p = _hamiltonian_field(sphere, q + 0.5 * h * k1q, p + 0.5 * h * k1p)
        k3q, k3p = _hamiltonian_field(sphere, q + 0.5 * h * k2q, p + 0.5 * h * k2p)
        k4q, k4p = _hamiltonian_field(sphere, q + h * k3q, p + h * k3p)
        q = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        q /= sphere.body1.gauge(q)
        n = sphere.body1.gradient(q)
        p = p - float(p @ q) * n
        _, G = minimize_along_conormal(sphere.dual2, p, n)
        drift = max(drift, abs(float(G) - 1.0))
        p = p / G
        samples.append(CoSpherePoint(q.copy(), p.copy(), 1.0))
        times.append(times[-1] + h)
    residual = float(
        np.linalg.norm(q - samples[0].q) + np.linalg.norm(p - samples[0].p)
    )
    return CharacteristicTrajectory(
        samples=samples,
        times=np.array(times),
        closure_residual=residual,
        g_drift=float(drift),
    )

"""Girth and geodesics on an embedded unit sphere.

Girth, the length spectrum (both in the class of centrally symmetric
closed curves) and the diameter probe minimize one discrete polygon energy
with one continuation driver; the polygon's closure (centrally symmetric
with half of the vertices stored, or with fixed endpoints) is a parameter
of both.  Minimization happens on free ambient vectors that are radially
rescaled onto the surface, so the constraint is exact.  Discrete curve
*energy* (segment count times the sum of squared chord gauges) is the
optimization objective: its minimizers are constant-speed discrete
geodesics, whereas raw chord length admits spurious collapsed
configurations.  Reported lengths are always plain chord-gauge sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bodies import half_sq_jet
from .errors import PreconditionError, UnsupportedInputError
from .metric import (
    CoSpherePoint,
    EmbeddedSphere,
    _line_minimum,
    induced_hamiltonian,
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
    def full_points(self) -> Array:
        return np.concatenate([self.half_points, -self.half_points], axis=0)


@dataclass
class CharacteristicTrajectory:
    qs: Array
    ps: Array
    times: Array
    closure_residual: float
    g_drift: float


@dataclass
class GirthOptions:
    N: int = 16
    starts: int = 6
    seed: int = 0
    tol: float = 1e-10
    levels: int = 3


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
# and a pair (a, b) of surface points, one row per polygon, fixes both
# endpoints.  Polygons come in stacks (B, n, dim) of one closure and vertex
# count.


def _chain(x: Array, closure) -> Array:
    """The vertex chains whose successive differences are the chords."""
    if closure == "symmetric":
        return np.concatenate([x, -x[:, :1]], axis=1)
    a, b = closure
    return np.concatenate([a[:, None], x, b[:, None]], axis=1)


def _length(sphere: EmbeddedSphere, x: Array, closure) -> Array:
    L = np.sum(sphere.body2.gauge(np.diff(_chain(x, closure), axis=1)), axis=-1)
    return 2.0 * L if closure == "symmetric" else L


def _energy_and_grad(sphere: EmbeddedSphere, y: Array, closure):
    """Energies of the radially projected polygons and their gradients with
    respect to the free vertices y."""
    body1, body2 = sphere.body1, sphere.body2
    n = y.shape[1]
    F1, grad1, _ = body1.jet(y, 1)
    x = y / F1[..., None]
    c = np.diff(_chain(x, closure), axis=1)
    Fc, Fgrad, _ = half_sq_jet(body2, c, hessian=False)
    m = 2 * n if closure == "symmetric" else c.shape[1]
    E = m * np.sum(Fc**2, axis=-1)
    w = (2.0 * m) * Fgrad
    gV = np.zeros((len(y), c.shape[1] + 1, y.shape[2]))
    gV[:, 1:] += w
    gV[:, :-1] -= w
    # fold the closure row back onto the vertex it repeats
    if closure == "symmetric":
        g = gV[:, :n]
        g[:, 0] -= gV[:, n]
    else:
        g = gV[:, 1:-1]
    # chain rule through the radial projection
    xg = np.einsum("bij,bij->bi", x, g)
    gy = (g - xg[..., None] * grad1) / F1[..., None]
    return E, gy


# ---------------------------------------------------------------------------
# batched limited-memory BFGS

_MEMORY = 20  # (s, y) pairs kept per problem
_FTOL = 1e-16  # relative decrease of f at or below which a problem stops
_ARMIJO = 1e-3  # sufficient-decrease constant of the line search
_BACKTRACKS = 20  # trial steps before a line search fails


@dataclass
class BatchMinimum:
    """Final points and gradients of :func:`minimize`, one row per problem,
    and the passes the batch took: iterations and energy evaluations."""

    x: Array
    jac: Array
    nit: int
    nfev: int


def _inverse_hessian_times(S: Array, Y: Array, D: Array, Rinv: Array, gamma: Array, g: Array):
    """H g for each problem's limited-memory inverse Hessian, in the compact
    form of Byrd, Nocedal and Schnabel (1994, eq. 3.1) with H0 = gamma I:
    rows of S and Y hold the pairs oldest first, D is the diagonal of S^T Y
    and Rinv the inverse of its upper triangle.  An empty row is zero, with
    a unit row and column in Rinv, and contributes nothing."""
    v = (Rinv @ (S @ g[..., None]))[..., 0]
    Yv = (v[:, None, :] @ Y)[:, 0]
    w = D * v + gamma[:, None] * (Y @ (Yv - g)[..., None])[..., 0]
    top = (w[:, None, :] @ Rinv)[:, 0]
    return gamma[:, None] * (g - Yv) + (top[:, None, :] @ S)[:, 0]


def minimize(fun, x0: Array, gtol: float, maxiter: int) -> BatchMinimum:
    """Minimize a stack of independent smooth problems by limited-memory BFGS.

    ``fun(x, rows)`` returns the values (b,) and gradients (shaped like x)
    of the problems ``rows``, indices into the stack x0 (B, ...), at x.
    Each problem keeps its own memory of 20 (s, y) pairs, stored when
    s.y > eps (-g.s), and its own backtracking line search: from the step
    1, or 1 / |d| while its memory is empty, halve until f falls by the
    Armijo margin and strictly.  A trial that leaves f unchanged ends the
    search: it is taken if its gradient norm is smaller, else the search
    fails, as it does after 20 trials.  A problem stops, as in scipy's
    L-BFGS-B, when the inf-norm of its gradient is at most ``gtol``, when
    an iteration lowers f by at most 1e-16 relative to max(|f|, 1), or after
    ``maxiter`` iterations; and when a search from steepest descent fails.
    A failed search from a quasi-Newton direction clears the memory
    instead.  Stopped problems are no longer evaluated.
    """
    shape = x0.shape

    def evaluate(z, rows):
        f, g = fun(z.reshape((len(rows),) + shape[1:]), rows)
        return f, g.reshape(len(rows), -1)

    rows = np.arange(shape[0])
    x = np.array(x0, dtype=float).reshape(shape[0], -1)
    f, g = evaluate(x, rows)
    x_out, g_out = x.copy(), g.copy()
    S = np.zeros((len(rows), _MEMORY, x.shape[1]))
    Y = np.zeros_like(S)
    D = np.zeros((len(rows), _MEMORY))
    eye = np.eye(_MEMORY)
    Rinv = np.tile(eye, (len(rows), 1, 1))
    iters = np.zeros(len(rows), dtype=int)
    gamma = np.ones(len(rows))
    nit, nfev = 0, 1
    stop = np.abs(g).max(axis=1) <= gtol
    while True:
        if stop.any():
            x_out[rows[stop]], g_out[rows[stop]] = x[stop], g[stop]
            live = ~stop
            rows, x, f, g, S, Y = rows[live], x[live], f[live], g[live], S[live], Y[live]
            D, Rinv, iters, gamma = D[live], Rinv[live], iters[live], gamma[live]
        if not rows.size:
            return BatchMinimum(x_out.reshape(shape), g_out.reshape(shape), nit, nfev)
        nit += 1
        d = -_inverse_hessian_times(S, Y, D, Rinv, gamma, g)
        slope = np.einsum("bi,bi->b", g, d)
        fresh = D[:, -1] == 0.0
        step = np.where(fresh, np.minimum(1.0, 1.0 / np.linalg.norm(d, axis=1)), 1.0)
        xn, fn, gn = x.copy(), f.copy(), g.copy()
        pending = slope < 0.0
        moved = np.zeros(len(rows), dtype=bool)
        for _ in range(_BACKTRACKS):
            i = np.flatnonzero(pending)
            if not i.size:
                break
            xt = x[i] + step[i, None] * d[i]
            ft, gt = evaluate(xt, rows[i])
            nfev += 1
            ok = (ft < f[i]) & (ft <= f[i] + _ARMIJO * step[i] * slope[i])
            # a trial that leaves f unchanged is at f's rounding: it is taken
            # if its gradient is smaller, and the search ends either way
            tie = ft == f[i]
            if tie.any():
                ok |= tie & (np.linalg.norm(gt, axis=1) < np.linalg.norm(g[i], axis=1))
            j = i[ok]
            xn[j], fn[j], gn[j] = xt[ok], ft[ok], gt[ok]
            moved[j] = True
            pending[i[ok | tie]] = False
            step[pending] *= 0.5
        s, y = xn - x, gn - g
        sy = np.einsum("bi,bi->b", s, y)
        keep = moved & (sy > np.finfo(float).eps * -(step * slope))
        if keep.any():
            # drop the oldest pair and append the new one; the inverse of an
            # upper triangle keeps its trailing block and gains a column
            k = slice(None) if keep.all() else np.flatnonzero(keep)
            S[k, :-1], Y[k, :-1], D[k, :-1] = S[k, 1:], Y[k, 1:], D[k, 1:]
            S[k, -1], Y[k, -1], D[k, -1] = s[k], y[k], sy[k]
            Rinv[k, :-1, :-1] = Rinv[k, 1:, 1:]
            Rinv[k, -1] = 0.0
            c = (S[k, :-1] @ y[k][..., None]) / sy[k][:, None, None]
            Rinv[k, :-1, -1:] = -(Rinv[k, :-1, :-1] @ c)
            Rinv[k, -1, -1] = 1.0 / sy[k]
            gamma[k] = sy[k] / np.einsum("bi,bi->b", y[k], y[k])
        iters[moved] += 1
        # a failed line search clears the memory, or stops a problem that had none
        clear = ~moved & ~fresh
        if clear.any():
            S[clear], Y[clear], D[clear], Rinv[clear], gamma[clear] = 0.0, 0.0, 0.0, eye, 1.0
        scale = np.maximum(np.maximum(np.abs(f), np.abs(fn)), 1.0)
        settled = (f - fn <= _FTOL * scale) | (np.abs(gn).max(axis=1) <= gtol)
        stop = (moved & (settled | (iters >= maxiter))) | (~moved & fresh)
        x, f, g = xn, fn, gn


# ---------------------------------------------------------------------------
# starts and continuation


def _great_circle(u: Array, v: Array, n: int) -> Array:
    """n points of the half great circle from u towards v."""
    theta = np.pi * np.arange(n) / n
    return np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v


def _random_circle(rng, dim: int, n: int) -> Array:
    """A random half great circle of n points, perturbed by noise 0.1."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
    pts = _great_circle(basis[:, 0], basis[:, 1], n)
    return pts + 0.1 * rng.standard_normal(pts.shape)


def _symmetric_starts(sphere: EmbeddedSphere, N: int, count: int, seed) -> Array:
    """The first ``count`` of: half great circles in the coordinate planes,
    then perturbed random ones seeded by ``seed``, each of N half points,
    projected to the base surface; symmetric bodies and dim >= 3 only."""
    if not (sphere.body1.symmetric and sphere.body2.symmetric):
        raise UnsupportedInputError("symmetric closed curves need symmetric bodies")
    if sphere.dim < 3:
        raise UnsupportedInputError("symmetric closed curves need ambient dimension >= 3")
    if count < 1:
        raise PreconditionError(f"starts must be >= 1, got {count}")
    if N < 3:
        raise PreconditionError(f"N must be >= 3, got {N}")
    rng = np.random.default_rng(seed)
    eye = np.eye(sphere.dim)
    starts = [_great_circle(eye[i], eye[j], N) for i, j in [(0, 1), (0, 2), (1, 2)]]
    while len(starts) < count:
        starts.append(_random_circle(rng, sphere.dim, N))
    return project_to_surface(sphere.body1, np.stack(starts[:count]))


def _upsample(x: Array, closure) -> Array:
    """Insert the midpoint between each free vertex and its successor."""
    nxt = _chain(x, closure)[:, -x.shape[1] :]
    out = np.empty((x.shape[0], 2 * x.shape[1], x.shape[2]))
    out[:, 0::2] = x
    out[:, 1::2] = 0.5 * (x + nxt)
    return out


def _richardson(L: Array):
    """Extrapolated value and error estimate from lengths L (..., levels) at
    halving mesh sizes, whose error is O(h^2).  Each pair of successive
    levels gives a Richardson value (4 L_k - L_{k-1}) / 3; the estimate is
    the change between the last two of them, the O(h^4) term, or |L_2 -
    L_1| / 3 with one Richardson value, and NaN with one level."""
    if L.shape[-1] == 1:
        return L[..., -1], np.full(L.shape[:-1], np.nan)
    R = (4.0 * L[..., 1:] - L[..., :-1]) / 3.0
    if R.shape[-1] == 1:
        return R[..., -1], np.abs(L[..., -1] - L[..., -2]) / 3.0
    return R[..., -1], np.abs(R[..., -1] - R[..., -2])


def _continuation(sphere, x, closure, tol, maxiter, levels):
    """Minimize the energies of the surface polygons x (B, n, dim) together,
    doubling the vertex count at each further level.  Returns per polygon
    the extrapolated value and its error, the lengths (B, levels), the final
    vertices and the norm of the final gradient."""
    if levels < 1:
        raise PreconditionError("levels must be >= 1")

    def fun(z, rows):
        ends = closure if isinstance(closure, str) else tuple(e[rows] for e in closure)
        return _energy_and_grad(sphere, z, ends)

    lengths = []
    for lvl in range(levels):
        if lvl > 0:
            x = project_to_surface(sphere.body1, _upsample(x, closure))
        res = minimize(fun, x, tol, maxiter)
        x = project_to_surface(sphere.body1, res.x)
        lengths.append(_length(sphere, x, closure))
    lengths = np.stack(lengths, axis=-1)
    resid = np.linalg.norm(res.jac.reshape(len(x), -1), axis=1)
    return (*_richardson(lengths), lengths, x, resid)


def girth(sphere: EmbeddedSphere, opts: Optional[GirthOptions] = None) -> GirthResult:
    """Length of the shortest centrally symmetric closed geodesic found by
    multi-start discrete minimization with mesh continuation."""
    opts = opts or GirthOptions()
    x0 = _symmetric_starts(sphere, opts.N, opts.starts, opts.seed)
    value, err, lengths, x, resid = _continuation(
        sphere, x0, "symmetric", opts.tol, 4000, opts.levels
    )
    idx = int(np.argmin(value))
    cert = {
        "first_order_residual": float(resid[idx]),
        "continuation_lengths": lengths[idx].tolist(),
        "richardson_error": float(err[idx]),
        "start_index": idx,
        "start_lengths": value.tolist(),
        "n_half_final": x.shape[1],
        "certified": bool(resid[idx] <= max(opts.tol * 100.0, 1e-6)),
    }
    return GirthResult(
        girth=float(value[idx]), curve=DiscreteSymmetricCurve(x[idx]), certificate=cert
    )


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
):
    """Sorted distinct lengths of centrally symmetric closed geodesics found
    by multi-start refinement.  A probe: it reports what it found, never
    completeness.

    ``k_starts`` symmetric starts of N half points (coordinate great circles,
    then random ones) are refined in the symmetric class, the class of the
    girth; a refined polygon counts when its final gradient norm is at most
    1e-5, and lengths within 1e-4 of a smaller one are dropped.  Free closed
    loops are not searched: on a sphere every one is contractible and
    shrinks to a point under energy descent.
    """
    x0 = _symmetric_starts(sphere, N, k_starts, seed)
    value, _, _, _, resid = _continuation(sphere, x0, "symmetric", 1e-11, 4000, levels)
    found = sorted(value[resid <= 1e-5].tolist())
    clustered = []
    for v in found:
        if not clustered or v - clustered[-1] > 1e-4:
            clustered.append(v)
    return clustered


def _slerp_arc(a: Array, b: Array, K: int, rng) -> Array:
    ah = a / np.linalg.norm(a)
    bh = b / np.linalg.norm(b)
    dot = float(np.clip(ah @ bh, -1.0, 1.0))
    if dot < -1.0 + 1e-10:
        # near-antipodal: the half great circle through a random orthogonal w
        w = rng.standard_normal(a.shape[0])
        w -= (w @ ah) * ah
        w /= np.linalg.norm(w)
        return np.concatenate([_great_circle(ah, w, K), bh[None]])
    ang = np.arccos(dot)
    ts = np.linspace(0.0, 1.0, K + 1)
    if ang < 1e-12:
        return np.outer(np.ones(K + 1), ah)
    s = np.sin(ang)
    return (np.sin((1.0 - ts) * ang) / s)[:, None] * ah + (
        np.sin(ts * ang) / s
    )[:, None] * bh


def _path_start(sphere: EmbeddedSphere, a: Array, b: Array, K: int, rng):
    """Surface endpoints a, b and the K - 1 interior vertices of the
    projected slerp arc between them."""
    if K < 2:
        raise PreconditionError(f"K must be >= 2, got {K}")
    a = project_to_surface(sphere.body1, np.asarray(a, float))
    b = project_to_surface(sphere.body1, np.asarray(b, float))
    pts = project_to_surface(sphere.body1, _slerp_arc(a, b, K, rng))
    return a, b, pts[1:-1]


def _path_lengths(sphere: EmbeddedSphere, starts: list) -> Array:
    """Chord-gauge lengths of locally shortest discrete paths (endpoints
    fixed, interior vertices free) from a list of :func:`_path_start`s."""
    a, b, x = (np.stack(part) for part in zip(*starts))
    return _continuation(sphere, x, (a, b), 1e-10, 2000, 2)[2][:, -1]


def shortest_path_length(sphere: EmbeddedSphere, a: Array, b: Array, K: int = 24) -> float:
    """Chord-gauge length of a locally shortest discrete path from a to b
    (endpoints fixed, interior vertices free): a lower bound for the induced
    distance, 0.0 without a solve when the projected ends agree to 1e-12."""
    start = _path_start(sphere, a, b, K, np.random.default_rng(0))
    if np.linalg.norm(start[0] - start[1]) <= 1e-12 * np.linalg.norm(start[0]):
        return 0.0
    return float(_path_lengths(sphere, [start])[0])


def diameter_probe(sphere: EmbeddedSphere, m_pairs: int, seed: int, K: int = 24) -> float:
    """Max over sampled point pairs of the locally shortest path length; a
    lower bound for the diameter that is monotone in m_pairs."""
    if m_pairs < 1:
        raise PreconditionError("m_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    dim = sphere.dim
    starts = [
        _path_start(sphere, rng.standard_normal(dim), rng.standard_normal(dim), K, rng)
        for _ in range(m_pairs)
    ]
    return float(np.max(_path_lengths(sphere, starts)))


# ---------------------------------------------------------------------------
# characteristic flow


def _field(F1, H1, t, m):
    """The flat state derivative (q', p') from the base's F1 and
    H1 = Hess(0.5 F1^2) at q and the line minimum (t, m = grad F2*):
    q' = m and p' = -(t / F1) H1 m.  The full field's n (n . m) term,
    n = grad F1, is left out: m is orthogonal to n at the line minimum, the
    first-order condition of min_t F2*(p + t n)."""
    return np.concatenate((m, -(t / F1) * (H1 @ m)))


def characteristic_flow(
    sphere: EmbeddedSphere, start: CoSpherePoint, T: float, dt: float
) -> CharacteristicTrajectory:
    """Integrate the unit-level Hamiltonian flow of the induced co-sphere
    bundle with a classical 4th-order stepper; after each step the point is
    radially re-projected, the covector re-canonicalized and rescaled back
    to the unit level.  The flow parameter is ambient-norm arclength of the
    base curve.

    The stepper carries (q, p) as one flat state of length 2 dim, so each
    stage combination is one array expression, and writes each step's q
    and p into row i of the preallocated ``qs`` and ``ps``.  A stage is
    one order-2 jet of the base at q and one line minimum of the dual
    ambient through p, both on single points."""
    if not (np.isfinite(T) and np.isfinite(dt) and T > 0 and dt > 0):
        raise PreconditionError(f"T and dt must be finite and positive, got {T!r}, {dt!r}")
    q = np.asarray(start.q, dtype=float)
    p = np.asarray(start.p, dtype=float)
    G0 = float(induced_hamiltonian(sphere, q, p))
    if abs(G0 - 1.0) > 1e-8:
        raise PreconditionError("start must lie on the unit co-sphere")
    n_steps = int(np.ceil(T / dt))
    h = T / n_steps
    dim = q.shape[-1]
    jet, dual = sphere.body1.jet, sphere.dual2
    qs, ps = np.empty((n_steps + 1, dim)), np.empty((n_steps + 1, dim))
    qs[0], ps[0] = q, p
    drift = 0.0

    def field(y):
        F1, n, H1 = jet(y[:dim], 2)
        t, _, m = _line_minimum(dual, y[dim:], n, 1)
        return _field(F1, H1, t, m)

    y = np.concatenate((q, p))
    k1 = field(y)
    for i in range(1, n_steps + 1):
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        # one jet projects q and gives the next k1: grad F1 and Hess(0.5 F1^2)
        # are 0-homogeneous, and F1 = 1 after the projection
        F1, n, H1 = jet(y[:dim], 2)
        q = np.divide(y[:dim], F1, out=qs[i])
        p = y[dim:] - (y[dim:] @ q) * n
        t, G, m = _line_minimum(dual, p, n, 1)
        drift = max(drift, abs(float(G) - 1.0))
        np.divide(p, G, out=ps[i])
        y = np.concatenate((q, ps[i]))
        # F2* is 1-homogeneous: the line minimum through p / G is t / G
        k1 = _field(1.0, H1, t / G, m)
    residual = float(np.linalg.norm(qs[-1] - qs[0]) + np.linalg.norm(ps[-1] - ps[0]))
    return CharacteristicTrajectory(
        qs=qs,
        ps=ps,
        times=np.concatenate(([0.0], np.cumsum(np.full(n_steps, h)))),
        closure_residual=residual,
        g_drift=float(drift),
    )

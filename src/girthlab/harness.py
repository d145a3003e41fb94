"""Experiment orchestration: configs, deterministic seeding, reports.

A single JSON config document describes the space, the experiment and the
solver knobs; ``run`` certifies the bodies, runs the experiment's entry of
``EXPERIMENTS`` and returns a structured report whose canonical serialization is byte-stable
for a fixed (config, seed, version).  Wall time is recorded but excluded
from the canonical bytes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .bodies import (
    GaugeBody,
    check_quadratic_convexity,
    make_ellipsoid,
    make_power_mean,
)
from .errors import ConfigError, RejectedInputError
from .geodesics import (
    GirthOptions,
    diameter_probe,
    girth,
    length_spectrum_probe,
)
from .maps import Phi, phi, psi
from .measures import action, crofton_line_measure, ht_volume
from .metric import (
    EmbeddedSphere,
    cosphere_lift,
    induced_hamiltonian,
    radial_chart,
    restrict_covector,
    sample_cosphere,
)

DEFAULT_TOLERANCES = {
    "dual_gap_rel": 5e-3,
    "spectrum_match": 5e-4,
    "volume_rel": 1e-2,
    "crofton_rel": 1e-2,
    "map_residual": 1e-10,
    "psi_equivariance": 1e-9,
    "action_preservation": 1e-6,
    "phi_roundtrip": 1e-7,
    "girth_residual": 1e-6,
}


def subseed(seed: int, *key: int) -> int:
    """Deterministic sub-seed for a task, independent of scheduling."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


def _bounded_int(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    out = int(value)
    if out < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {out}")
    return out


def _finite_float(name: str, value) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


@dataclass
class SolverOptions:
    N: int = 16
    starts: int = 6
    tol: float = 1e-10
    samples: int = 100_000
    levels: int = 3


@dataclass
class ExperimentConfig:
    dim: int
    norm1: dict
    norm2: Optional[dict]
    experiment: str
    solver: SolverOptions
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        version = d.get("version", 1)
        if version != 1:
            raise ConfigError(f"unsupported config version {version}")
        space = d.get("space")
        if not isinstance(space, dict) or "norm1" not in space:
            raise ConfigError("config requires space.norm1")
        bad = set(space) - {"dim", "norm1", "norm2"}
        if bad:
            raise ConfigError(f"unknown space keys: {sorted(bad)}")
        dim = _bounded_int("space.dim", space.get("dim", 3), 2)
        experiment = d.get("experiment")
        names = tuple(EXPERIMENTS)  # not the dict: a JSON value may be unhashable
        if experiment not in names:
            raise ConfigError(f"experiment must be one of {names}")
        min_dim = EXPERIMENTS[experiment][1]
        if dim < min_dim:
            raise ConfigError(f"{experiment} requires dim >= {min_dim}")
        solver_d = d.get("solver", {})
        if not isinstance(solver_d, dict):
            raise ConfigError("solver must be an object")
        defaults = asdict(SolverOptions())
        bad = set(solver_d) - set(defaults)
        if bad:
            raise ConfigError(f"unknown solver options: {sorted(bad)}")
        opts = {k: solver_d.get(k, v) for k, v in defaults.items()}
        solver = SolverOptions(
            tol=_finite_float("solver.tol", opts.pop("tol")),
            # a polygon needs at least 3 half points
            **{k: _bounded_int(f"solver.{k}", v, 3 if k == "N" else 1) for k, v in opts.items()},
        )
        tols_d = d.get("tolerances", {})
        if not isinstance(tols_d, dict):
            raise ConfigError("tolerances must be an object")
        bad = set(tols_d) - set(DEFAULT_TOLERANCES)
        if bad:
            raise ConfigError(f"unknown tolerances: {sorted(bad)}")
        tols = dict(DEFAULT_TOLERANCES)
        tols.update((k, _finite_float(f"tolerances.{k}", v)) for k, v in tols_d.items())
        return cls(
            dim=dim,
            norm1=space["norm1"],
            norm2=space.get("norm2"),
            experiment=experiment,
            solver=solver,
            seed=_bounded_int("seed", d.get("seed", 0), 0),
            tolerances=tols,
        )

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        """Read a JSON config; keyword overrides that are not None replace
        top-level keys before validation."""
        with open(path, encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"invalid JSON config: {exc}") from exc
        if isinstance(d, dict):
            d.update((k, v) for k, v in overrides.items() if v is not None)
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "space": {"dim": self.dim, "norm1": self.norm1, "norm2": self.norm2},
            "experiment": self.experiment,
            "solver": asdict(self.solver),
            "seed": self.seed,
            "tolerances": self.tolerances,
        }


def _matrix(name: str, value, dim: int) -> np.ndarray:
    try:
        A = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a {dim}x{dim} matrix of numbers") from None
    if A.size != dim * dim:
        raise ConfigError(f"{name} must have {dim}x{dim} entries, got {A.size}")
    if not np.all(np.isfinite(A)):
        raise ConfigError(f"{name} has a non-finite entry")
    return A.reshape(dim, dim)


def body_from_spec(spec: dict, dim: int) -> GaugeBody:
    """Build a body from its config description (matrices row-major)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("norm spec must be an object with a 'type' tag")
    kind = spec["type"]
    try:
        if kind == "ellipsoid":
            A = _matrix("ellipsoid matrix", spec.get("matrix"), dim)
            return make_ellipsoid(A, label=spec.get("label"))
        if kind == "power_mean":
            terms = spec.get("terms", [])
            if not isinstance(terms, list):
                raise ConfigError("power_mean terms must be a list of matrices")
            mats = [_matrix("power_mean term", t, dim) for t in terms]
            p = spec.get("p")
            if p is None:
                raise ConfigError("power_mean spec requires an exponent p")
            return make_power_mean(
                mats, _bounded_int("power_mean p", p, 2), label=spec.get("label")
            )
    except RejectedInputError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown norm type {kind!r}")


@dataclass
class ExperimentReport:
    config: dict
    results: dict
    certificates: dict
    checks: list
    passed: bool
    version: str
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_bytes(self) -> bytes:
        """Serialization that is identical for identical
        (config, seed, version); volatile timing is excluded."""
        d = self.to_dict()
        d.pop("wall_time_s")
        return (json.dumps(d, sort_keys=True, indent=2) + "\n").encode()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _check(name, value, tol):
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tol),
        "passed": bool(value <= tol),
    }


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# maps battery

_N_LOOP = 32768  # loop points the midpoint rule needs for the 1e-6 action check


def _closed_cosphere_loop(sphere: EmbeddedSphere, n_pts: int, seed: int):
    """Smooth closed curve on the unit co-sphere bundle: a projected great
    circle with the supporting covector of its exact tangent."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((sphere.dim, 2)))
    u, v = basis[:, 0], basis[:, 1]
    theta = 2.0 * np.pi * np.arange(n_pts) / n_pts
    c = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v
    dc = -np.sin(theta)[:, None] * u + np.cos(theta)[:, None] * v
    q, _, dq = radial_chart(sphere.body1, c, dc)
    return q, cosphere_lift(sphere, q, dq)


def run_maps_battery(sphere: EmbeddedSphere, n_samples: int, seed: int) -> dict:
    """Residual battery for the duality maps; returns named residuals."""
    rng = np.random.default_rng(subseed(seed, 1))
    q, p = sample_cosphere(sphere, n_samples, rng)
    swapped = sphere.swapped()

    out = {}
    P, Q = psi(sphere, q, p)
    out["dual_surface_residual"] = float(
        np.abs(sphere.dual2.gauge(P) - 1.0).max()
    )
    out["restriction_residual"] = float(
        np.abs(restrict_covector(sphere, P, q) + p).max()
    )
    Pm, Qm = psi(sphere, -q, -p)
    out["psi_equivariance"] = float(
        max(np.abs(Pm + P).max(), np.abs(Qm + Q).max())
    )
    out["dual_cosphere_residual"] = float(
        np.abs(induced_hamiltonian(swapped, P, Q) - 1.0).max()
    )
    # involution-type boundary round trip
    Pb, Qb = phi(sphere, q, p)
    qb2, pb2 = phi(swapped, Pb, Qb)
    out["phi_roundtrip"] = float(
        max(np.abs(qb2 - q).max(), np.abs(pb2 - p).max())
    )

    # interior bijectivity
    scale = rng.uniform(0.2, 0.8, size=n_samples)
    p_int = p * scale[:, None]
    Pi, Qi = Phi(sphere, q, p_int)
    qi, pi = Phi(swapped, Pi, Qi)
    out["Phi_roundtrip"] = float(max(np.abs(qi - q).max(), np.abs(pi - p_int).max()))

    # action preservation on a closed co-sphere loop
    lq, lp = _closed_cosphere_loop(sphere, _N_LOOP, subseed(seed, 2))
    a0 = action(lq, lp, closed=True)
    LP, LQ = psi(sphere, lq, lp)
    a1 = action(LP, LQ, closed=True)
    out["action_preservation_psi"] = float(abs(a1 - a0))
    BP, BQ = phi(sphere, lq, lp)
    a2 = action(BP[::-1], BQ[::-1], closed=True)
    out["action_preservation_phi_reversed"] = float(abs(a2 - a0))
    out["loop_action"] = float(a0)
    return out


# ---------------------------------------------------------------------------
# experiments: each takes (config, sphere) and returns (results, checks)


def _girth_opts(config: ExperimentConfig) -> GirthOptions:
    s = config.solver
    return GirthOptions(
        N=s.N, starts=s.starts, seed=subseed(config.seed, 10), tol=s.tol, levels=s.levels
    )


def _both_sides(sphere: EmbeddedSphere, fn):
    """``fn(s, side)`` on the sphere (side 0) and on its dual side (side 1)."""
    return [fn(sphere, 0), fn(sphere.swapped(), 1)]


def _girth(config, sphere):
    res = girth(sphere, _girth_opts(config))
    residual = res.certificate["first_order_residual"]
    tol = config.tolerances["girth_residual"]
    results = {"girth": res.girth, "certificate": res.certificate}
    return results, [_check("girth_first_order_residual", residual, tol)]


def _dual_check(config, sphere):
    opts = _girth_opts(config)
    res, dres = _both_sides(sphere, lambda s, side: girth(s, opts))
    gap = abs(res.girth - dres.girth) / res.girth
    results = {
        "girth": res.girth,
        "dual_girth": dres.girth,
        "relative_gap": gap,
        "certificate": res.certificate,
        "dual_certificate": dres.certificate,
    }
    return results, [_check("girth_duality_gap", gap, config.tolerances["dual_gap_rel"])]


def _spectrum(config, sphere):
    opts = config.solver
    sp, sd = _both_sides(
        sphere,
        lambda s, side: length_spectrum_probe(
            s, opts.starts, subseed(config.seed, 20 + side), N=opts.N, levels=opts.levels
        ),
    )
    # a side that found no geodesic matches nothing
    mismatch = np.inf
    if sp and sd:
        mismatch = max(min(abs(v - w) for w in b) for a, b in ((sp, sd), (sd, sp)) for v in a)
    tol = config.tolerances["spectrum_match"]
    results = {"primal_lengths": sp, "dual_lengths": sd, "max_mismatch": mismatch}
    return results, [_check("spectrum_match", mismatch, tol)]


def _volume(config, sphere):
    v1, v2 = _both_sides(sphere, lambda s, side: ht_volume(s, seed=config.seed))
    rel = abs(v1.value - v2.value) / v1.value
    results = {"volume_primal": asdict(v1), "volume_dual": asdict(v2), "relative_gap": rel}
    return results, [_check("volume_equality", rel, config.tolerances["volume_rel"])]


def _crofton(config, sphere):
    # norm1 is the hypersurface M, norm2 (or norm1) the ambient norm
    rep = crofton_line_measure(
        sphere.body2, sphere.body1, config.solver.samples, subseed(config.seed, 30)
    )
    vol = ht_volume(sphere, seed=config.seed)
    ratio = rep.value / (vol.value * np.pi)
    check = _check("crofton_identity", abs(ratio - 1.0), config.tolerances["crofton_rel"])
    results = {"line_measure": asdict(rep), "ht_volume": asdict(vol), "ratio": ratio}
    return results, [check]


# (check name, battery residuals it takes the largest of, tolerance key)
_MAP_CHECKS = (
    ("map_residual", ("dual_surface_residual",), "map_residual"),
    ("restriction_residual", ("restriction_residual",), "map_residual"),
    ("dual_cosphere_residual", ("dual_cosphere_residual",), "map_residual"),
    ("psi_equivariance", ("psi_equivariance",), "psi_equivariance"),
    (
        "action_preservation",
        ("action_preservation_psi", "action_preservation_phi_reversed"),
        "action_preservation",
    ),
    ("phi_roundtrip", ("phi_roundtrip",), "phi_roundtrip"),
    ("Phi_roundtrip", ("Phi_roundtrip",), "phi_roundtrip"),
)


def _maps_verify(config, sphere):
    battery = run_maps_battery(sphere, min(config.solver.samples, 1000), config.seed)
    checks = [
        _check(name, max(battery[k] for k in keys), config.tolerances[tol])
        for name, keys, tol in _MAP_CHECKS
    ]
    return {"battery": battery}, checks


def _diameter(config, sphere):
    n = config.solver.samples
    m = max(4, n if n <= 200 else 40)
    seeds = (subseed(config.seed, 40), subseed(config.seed, 41))
    dp, dd = _both_sides(sphere, lambda s, side: diameter_probe(s, m, seeds[side]))
    results = {"diameter_lower_bound_primal": dp, "diameter_lower_bound_dual": dd}
    return results, [_check("diameter_probe_completed", 0.0, 0.0)]


# name -> (experiment, smallest ambient dimension it runs in)
EXPERIMENTS = {
    "girth": (_girth, 3),
    "dual-check": (_dual_check, 3),
    "spectrum": (_spectrum, 3),
    "volume": (_volume, 3),
    "crofton": (_crofton, 3),
    "maps-verify": (_maps_verify, 2),
    "diameter": (_diameter, 2),
}


def run(config: ExperimentConfig) -> ExperimentReport:
    """Certify bodies, run the experiment, assemble the report."""
    t0 = time.perf_counter()
    body1 = body_from_spec(config.norm1, config.dim)
    body2 = body_from_spec(config.norm2, config.dim) if config.norm2 is not None else body1
    certificates = {}
    checks = []
    n_cert, cert_seed = 2000, subseed(config.seed, 100)
    for tag, body in (("norm1", body1), ("norm2", body2)):
        min_eig = check_quadratic_convexity(body, n_cert, cert_seed)
        certificates[tag] = {
            "label": body.label,
            "min_tangential_eigenvalue": float(min_eig),
            "samples": n_cert,
            "seed": cert_seed,
        }
        checks.append(
            {
                "name": f"quadratic_convexity_{tag}",
                "value": float(min_eig),
                "tolerance": 0.0,
                "passed": bool(min_eig > 0.0),
            }
        )

    experiment = EXPERIMENTS[config.experiment][0]
    results, more = experiment(config, EmbeddedSphere(body1, body2))
    checks += more
    passed = all(c["passed"] for c in checks)
    return ExperimentReport(
        config=_sanitize(config.to_dict()),
        results=_sanitize(results),
        certificates=_sanitize(certificates),
        checks=_sanitize(checks),
        passed=passed,
        version=__version__,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# plot tables


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, float) and not v.is_integer():
                    cells.append(repr(v))
                else:
                    cells.append(str(int(v)) if isinstance(v, (int, float)) else str(v))
            fh.write(",".join(cells) + "\n")


def emit_plot_data(report: ExperimentReport, path_stem: str) -> list:
    """Write column-oriented CSV tables for the report; returns paths."""
    written = []
    exp = report.config["experiment"]
    res = report.results
    if exp in ("girth", "dual-check"):
        cert = res["certificate"]
        lengths = cert["continuation_lengths"]
        n0 = cert["n_half_final"] // (2 ** (len(lengths) - 1))
        rows = [
            (n0 * 2**i, L, (4.0 * L - lengths[i - 1]) / 3.0 if i else L)
            for i, L in enumerate(lengths)
        ]
        p = f"{path_stem}_continuation.csv"
        _write_csv(p, ["N", "length", "richardson_estimate"], rows)
        written.append(p)
    if exp == "spectrum":
        sp, sd = res["primal_lengths"], res["dual_lengths"]
        rows = []
        for v in sp:
            w = min(sd, key=lambda x: abs(x - v)) if sd else float("nan")
            rows.append((v, w))
        p = f"{path_stem}_spectrum.csv"
        _write_csv(p, ["primal", "dual"], rows)
        written.append(p)
    if exp == "crofton":
        rep = res["line_measure"]
        p = f"{path_stem}_crofton.csv"
        _write_csv(
            p,
            ["samples", "estimate", "stderr"],
            [(rep["samples"], rep["value"], rep["error_estimate"])],
        )
        written.append(p)
    return written

import json
from pathlib import Path

import numpy as np
import pytest

from girthlab import ConfigError, EmbeddedSphere, ExperimentConfig, NumericalFailureError, harness
from girthlab import cli
from girthlab.cli import main
from girthlab.harness import (
    body_from_spec,
    emit_plot_data,
    run,
    subseed,
)
from girthlab.measures import VolumeReport

AN_E = {"type": "ellipsoid", "matrix": np.diag([1.0, 1.0 / 0.64, 1.0 / 0.36]).tolist()}
EUCLID = {"type": "ellipsoid", "matrix": np.eye(3).tolist()}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PM = {
    "type": "power_mean",
    "terms": [np.diag([1.0, 2.0, 0.5]).tolist(), np.eye(3).tolist()],
    "p": 4,
}


def make_config(experiment, norm1=EUCLID, norm2=None, solver=None, seed=0):
    return {
        "version": 1,
        "space": {"dim": 3, "norm1": norm1, "norm2": norm2},
        "experiment": experiment,
        "solver": solver or {},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# config parsing


def test_config_round_trip():
    cfg = ExperimentConfig.from_dict(make_config("girth", solver={"N": 8, "starts": 3}))
    assert cfg.experiment == "girth"
    assert cfg.solver.N == 8
    assert cfg.to_dict()["space"]["dim"] == 3


def test_config_rejects_unknown_experiment(tmp_path):
    # "diameter" names no experiment: a config naming it is a config error
    # and its subcommand is argparse's usage error
    for name in ("frobnicate", "diameter"):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(make_config(name))
    with pytest.raises(ConfigError, match="experiment must be one of"):
        ExperimentConfig.from_dict(make_config(["girth"]))
    path = write_config(tmp_path, make_config("girth"))
    with pytest.raises(SystemExit) as exc:
        main(["diameter", "--config", path])
    assert exc.value.code == 2


def test_config_rejects_unknown_solver_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_config("girth", solver={"NN": 8}))


def test_config_rejects_bad_version(tmp_path, capsys):
    # True == 1 in Python, but a boolean is no version
    for version in (99, True):
        d = make_config("girth")
        d["version"] = version
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)
        _assert_config_exit(tmp_path, capsys, d, "unsupported config version")


def test_config_requires_norm1():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"version": 1, "space": {}, "experiment": "girth"})


def test_negative_seed_is_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_config("girth", seed=-1))
    path = write_config(tmp_path, make_config("girth"))
    assert main(["girth", "--config", path, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed") and err.count("\n") == 1


def _assert_config_exit(tmp_path, capsys, d, start):
    path = write_config(tmp_path, d)
    assert main(["girth", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + start) and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "norm1, start",
    [
        ({"type": "ellipsoid", "matrix": np.eye(2).tolist()}, "ellipsoid matrix must"),
        (
            {"type": "power_mean", "terms": [np.eye(3).tolist(), np.eye(4).tolist()], "p": 4},
            "power_mean term must",
        ),
    ],
)
def test_wrong_size_matrix_is_config_error(tmp_path, capsys, norm1, start):
    _assert_config_exit(tmp_path, capsys, make_config("girth", norm1=norm1), start)


def test_nan_matrix_entry_is_config_error(tmp_path, capsys):
    A = np.eye(3).tolist()
    A[1][2] = A[2][1] = float("nan")
    d = make_config("girth", norm1={"type": "ellipsoid", "matrix": A})
    _assert_config_exit(tmp_path, capsys, d, "ellipsoid matrix has a non-finite entry")


@pytest.mark.parametrize("family", ["ellipsoid", "power_mean"])
def test_boolean_matrix_entry_is_config_error(tmp_path, capsys, family):
    # True == 1 in Python, but a boolean is no matrix entry
    A = np.eye(3).tolist()
    A[0][0] = True
    if family == "ellipsoid":
        norm1, start = {"type": "ellipsoid", "matrix": A}, "ellipsoid matrix has a boolean entry"
    else:
        norm1 = dict(PM, terms=[np.eye(3).tolist(), A])
        start = "power_mean term has a boolean entry"
    d = make_config("girth", norm1=norm1)
    with pytest.raises(ConfigError, match="boolean entry"):
        run(ExperimentConfig.from_dict(d))
    _assert_config_exit(tmp_path, capsys, d, start)


@pytest.mark.parametrize(
    "norm1, start",
    [
        # an ellipsoid would otherwise run unscaled, as if the key were not there
        (dict(EUCLID, scale=2), "unknown ellipsoid keys: ['scale']"),
        (dict(PM, matrix=np.eye(3).tolist()), "unknown power_mean keys: ['matrix']"),
        (dict(EUCLID, label=5), "norm label must be a string, got 5"),
        (dict(EUCLID, label=[1]), "norm label must be a string, got [1]"),
        (dict(PM, label=None), "norm label must be a string, got None"),
        # the type is checked first
        ({"type": "simplex", "scale": 2}, "unknown norm type 'simplex'"),
    ],
    ids=["ellipsoid-scale", "power_mean-matrix", "label-int", "label-list", "label-null", "type"],
)
def test_norm_spec_keys_and_label_are_checked(tmp_path, capsys, norm1, start):
    d = make_config("girth", norm1=norm1)
    with pytest.raises(ConfigError):
        run(ExperimentConfig.from_dict(d))
    _assert_config_exit(tmp_path, capsys, d, start)


def test_norm_label_is_reported():
    rep = run(ExperimentConfig.from_dict(make_config("volume", norm1=dict(AN_E, label="e-086"))))
    assert rep.certificates["norm1"]["label"] == "e-086"


def test_indefinite_matrix_is_config_error(tmp_path, capsys):
    indefinite = {"type": "ellipsoid", "matrix": np.diag([1.0, -1.0, 1.0]).tolist()}
    d = make_config("girth", norm1=indefinite)
    _assert_config_exit(tmp_path, capsys, d, "ellipsoid matrix must be positive definite")


def test_odd_power_mean_exponent_is_config_error(tmp_path, capsys):
    d = make_config("girth", norm1=dict(PM, p=3))
    _assert_config_exit(tmp_path, capsys, d, "exponent p must be an even integer")


@pytest.mark.parametrize(
    "path, value, start",
    [
        (("space", "dim"), "three", "space.dim must be an integer"),
        (("space", "dim"), 1, "space.dim must be an integer >= 2"),
        (("solver", "N"), "sixteen", "solver.N must be an integer"),
        (("solver", "N"), 8.5, "solver.N must be an integer"),
        (("solver", "starts"), 0, "solver.starts must be an integer >= 1"),
        (("solver", "levels"), 0, "solver.levels must be an integer >= 1"),
        (("solver", "samples"), 0, "solver.samples must be an integer >= 1"),
        (("solver", "tol"), "tight", "solver.tol must be a finite positive number"),
        (("solver", "tol"), 0.0, "solver.tol must be a finite positive number"),
        (("solver", "tol"), float("nan"), "solver.tol must be a finite positive number"),
        (("tolerances", "girth_residual"), "loose", "tolerances.girth_residual must be"),
        (("tolerances", "girth_resid"), 1e-6, "unknown tolerances: ['girth_resid']"),
        (("solver", "N"), 2, "solver.N must be an integer >= 3"),
        (("tolerances", "crofton_rel"), -1e-6, "tolerances.crofton_rel must be a finite positive"),
        (("tolerances", "volume_rel"), 0.0, "tolerances.volume_rel must be a finite positive"),
    ],
)
def test_malformed_scalar_is_config_error(tmp_path, capsys, path, value, start):
    d = make_config("girth")
    d.setdefault("tolerances", {})
    d[path[0]][path[1]] = value
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    _assert_config_exit(tmp_path, capsys, d, start)


@pytest.mark.parametrize("norm2", [{}, 0, False, "", []])
def test_falsy_norm2_is_config_error(tmp_path, capsys, norm2):
    # only null means "same as norm1"
    d = make_config("girth", norm2=norm2)
    _assert_config_exit(tmp_path, capsys, d, "norm spec must be an object")


def test_unknown_space_key_is_config_error(tmp_path, capsys):
    # a misspelled norm2 would otherwise run with norm1 as the ambient
    d = make_config("girth", norm1=AN_E)
    d["space"]["nrom2"] = PM
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    _assert_config_exit(tmp_path, capsys, d, "unknown space keys: ['nrom2']")


def _set(d, path, value):
    """A copy of ``d`` with the entry at the key path replaced; the empty
    path replaces the whole document."""
    if not path:
        return value
    d = json.loads(json.dumps(d))  # the module's norm dicts stay as they are
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return d


@pytest.mark.parametrize(
    "path, value, start",
    [
        ((), [1, 2, 3], "config must be a JSON object"),
        (("solver",), [16], "solver must be an object"),
        (("tolerances",), 1e-6, "tolerances must be an object"),
        (
            ("space", "norm1", "matrix"),
            [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
            "ellipsoid matrix must be a 3x3 matrix of numbers",
        ),
        (
            ("space", "norm1", "matrix"),
            [["one", 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "ellipsoid matrix must be a 3x3 matrix of numbers",
        ),
        (("space", "norm1"), dict(PM, terms={"a": 1}), "power_mean terms must be a list"),
    ],
    ids=["config", "solver", "tolerances", "ragged-matrix", "text-matrix", "terms"],
)
def test_malformed_structure_is_config_error(tmp_path, capsys, path, value, start):
    _assert_config_exit(tmp_path, capsys, _set(make_config("girth"), path, value), start)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_validate(path):
    dim = json.loads(path.read_text())["space"]["dim"]
    for name, (_, (lo, hi)) in harness.EXPERIMENTS.items():
        if lo <= dim <= hi:
            cfg = ExperimentConfig.from_file(path, experiment=name)
            for spec in (cfg.norm1, cfg.norm2):
                if spec is not None:
                    body_from_spec(spec, cfg.dim)


def test_body_from_spec_rejects_unknown_type():
    with pytest.raises(ConfigError):
        body_from_spec({"type": "simplex"}, 3)


def test_body_from_spec_power_mean_needs_p():
    with pytest.raises(ConfigError):
        body_from_spec({"type": "power_mean", "terms": [np.eye(3).tolist()]}, 3)


def test_subseed_is_deterministic_and_keyed():
    assert subseed(5, 1) == subseed(5, 1)
    assert subseed(5, 1) != subseed(5, 2)
    assert subseed(5, 1) != subseed(6, 1)


# ---------------------------------------------------------------------------
# experiment runs


def test_run_girth_round_sphere():
    cfg = ExperimentConfig.from_dict(make_config("girth", solver={"N": 8, "starts": 3}))
    rep = run(cfg)
    assert rep.passed
    assert rep.results["girth"] == pytest.approx(2.0 * np.pi, rel=1e-4)
    assert rep.certificates["norm1"]["min_tangential_eigenvalue"] > 0.0


def test_run_dual_check():
    cfg = ExperimentConfig.from_dict(
        make_config("dual-check", norm1=AN_E, norm2=PM, solver={"N": 16, "starts": 3})
    )
    rep = run(cfg)
    assert rep.passed
    assert rep.results["relative_gap"] <= 5e-3


def test_report_bytes_are_deterministic():
    cfg = make_config("girth", solver={"N": 8, "starts": 3}, seed=3)
    r1 = run(ExperimentConfig.from_dict(cfg))
    r2 = run(ExperimentConfig.from_dict(cfg))
    assert r1.canonical_bytes() == r2.canonical_bytes()
    # wall time differs between runs but never enters the canonical form
    assert b"wall_time" not in r1.canonical_bytes()
    assert "wall_time_s" in r1.to_dict()


def test_volume_check_keeps_its_tolerance(monkeypatch):
    # a 2 % gap fails the 1e-2 check, however large the quadrature's own
    # error estimates are
    values = iter([1.0, 1.02])
    monkeypatch.setattr(
        harness,
        "ht_volume",
        lambda s: VolumeReport(next(values), "stub", 1, None, error_estimate=1e-2),
    )
    rep = run(ExperimentConfig.from_dict(make_config("volume")))
    (check,) = [c for c in rep.checks if c["name"] == "volume_equality"]
    assert check["value"] == pytest.approx(2e-2)
    assert check["tolerance"] == 1e-2 and not check["passed"]


def test_run_maps_verify():
    cfg = ExperimentConfig.from_dict(
        make_config("maps-verify", norm1=AN_E, norm2=EUCLID, solver={"samples": 25})
    )
    rep = run(cfg)
    assert rep.passed


def test_maps_verify_gates_the_boundary_round_trip(monkeypatch):
    """phi off by 1e-6 on the swapped sphere only: the boundary map's round
    trip is the one residual that sees it, and maps-verify must fail."""
    swapped, true_phi = EmbeddedSphere.swapped, harness.phi
    dual_sides = []

    def tagged(self):
        dual_sides.append(swapped(self))
        return dual_sides[-1]

    def skewed(sphere, q, p):
        P, Q = true_phi(sphere, q, p)
        return (P, Q + 1e-6) if any(sphere is s for s in dual_sides) else (P, Q)

    monkeypatch.setattr(EmbeddedSphere, "swapped", tagged)
    monkeypatch.setattr(harness, "phi", skewed)
    cfg = ExperimentConfig.from_dict(
        make_config("maps-verify", norm1=AN_E, norm2=EUCLID, solver={"samples": 25})
    )
    rep = run(cfg)
    assert dual_sides and not rep.passed
    assert [c["name"] for c in rep.checks if not c["passed"]] == ["phi_roundtrip"]


SMALL_SOLVERS = {
    "dual-check": {"N": 8, "starts": 3},
    "spectrum": {"N": 8, "starts": 1, "levels": 1},
    "volume": {},
}


@pytest.mark.parametrize("experiment", SMALL_SOLVERS)
def test_run_with_jobs_matches_serial(experiment):
    # both sides always run in turn; an old config's jobs key is ignored and
    # the report is byte for byte the one without it (and run to run)
    base = make_config(experiment, norm1=AN_E, solver=SMALL_SOLVERS[experiment])
    r1 = run(ExperimentConfig.from_dict(base))
    base["jobs"] = 2
    r2 = run(ExperimentConfig.from_dict(base))
    assert r1.canonical_bytes() == r2.canonical_bytes()


@pytest.mark.parametrize("empty_side", [None, 0, 1])
def test_spectrum_fails_when_a_side_finds_no_geodesic(monkeypatch, empty_side):
    # empty_side None: neither side finds one; 0 / 1: only the dual / primal does
    config = ExperimentConfig.from_dict(make_config("spectrum", solver={"N": 8}))
    empty = [subseed(config.seed, 20 + side) for side in (0, 1)]
    if empty_side is not None:
        empty = [empty[empty_side]]

    def probe(sphere, opts):
        return [] if opts.seed in empty else [1.0]

    monkeypatch.setattr(harness, "length_spectrum_probe", probe)
    rep = run(config)
    check = rep.checks[-1]
    assert check["name"] == "spectrum_match" and check["value"] == np.inf
    assert not check["passed"] and not rep.passed


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_reports_are_strict_json(monkeypatch):
    # a single-level girth has no Richardson error (NaN), and a spectrum side
    # that finds no geodesic has an infinite mismatch: both are written as
    # null, while the report in memory keeps them
    solver = {"N": 8, "starts": 2, "levels": 1}
    girth = run(ExperimentConfig.from_dict(make_config("girth", solver=solver)))
    assert np.isnan(girth.results["certificate"]["richardson_error"])
    monkeypatch.setattr(harness, "length_spectrum_probe", lambda *a, **kw: [])
    spectrum = run(ExperimentConfig.from_dict(make_config("spectrum", solver={"N": 8})))
    assert spectrum.checks[-1]["value"] == np.inf and not spectrum.passed
    nan_path = ("results", "certificate", "richardson_error")
    for rep, path in ((girth, nan_path), (spectrum, ("checks", -1, "value"))):
        for text in (rep.to_json(), rep.canonical_bytes().decode()):
            d = _strict_loads(text)
            for key in path:
                d = d[key]
            assert d is None


def test_numpy_valued_config_serializes_to_strict_json():
    # matrices given as numpy arrays reach the report as they were given;
    # the serializer writes them, and numpy scalars, as JSON lists and numbers
    listed = make_config("girth", norm1=AN_E, solver={"N": 8, "starts": 1, "levels": 1})
    arrays = make_config(
        "girth",
        norm1=dict(AN_E, matrix=np.array(AN_E["matrix"])),
        solver={"N": 8, "starts": 1, "levels": 1},
    )
    rep = run(ExperimentConfig.from_dict(arrays))
    assert isinstance(rep.config["space"]["norm1"]["matrix"], np.ndarray)
    assert rep.canonical_bytes() == run(ExperimentConfig.from_dict(listed)).canonical_bytes()
    d = _strict_loads(rep.to_json())
    assert d["config"]["space"]["norm1"]["matrix"] == AN_E["matrix"]
    values = {"a": np.array([1.5, np.nan]), "b": np.float32(np.inf), "c": np.int64(3)}
    assert _strict_loads(harness._strict_json(values)) == {"a": [1.5, None], "b": None, "c": 3}


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, d):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_cli_girth_json(tmp_path, capsys):
    path = write_config(tmp_path, make_config("girth", solver={"N": 8, "starts": 3}))
    out = tmp_path / "report.json"
    code = main(["girth", "--config", path, "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["results"]["girth"] == pytest.approx(2.0 * np.pi, rel=1e-4)


def test_cli_seed_override(tmp_path):
    path = write_config(tmp_path, make_config("girth", solver={"N": 8, "starts": 3}))
    out = tmp_path / "r.json"
    main(["girth", "--config", path, "--seed", "17", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rep["config"]["seed"] == 17


def test_cli_csv_output(tmp_path):
    path = write_config(tmp_path, make_config("girth", solver={"N": 8, "starts": 3}))
    stem = tmp_path / "plot"
    code = main(["girth", "--config", path, "--format", "csv", "--out", str(stem)])
    assert code == 0
    table = (tmp_path / "plot_continuation.csv").read_text()
    lines = table.split("\n")
    assert lines[0] == "N,length,richardson_estimate"
    assert "\r" not in table
    assert len(lines) >= 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_unwritable_out_is_usage_error(tmp_path, capsys, fmt):
    path = write_config(tmp_path, make_config("girth", solver={"N": 8, "starts": 3}))
    out = tmp_path / "missing" / "r.json"
    assert main(["girth", "--config", path, "--format", fmt, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_json_to_stdout(tmp_path, capsys):
    path = write_config(tmp_path, make_config("girth", solver={"N": 8, "starts": 3}))
    assert main(["girth", "--config", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["experiment"] == "girth" and rep["passed"] is True


def test_cli_csv_out_drops_the_csv_suffix(tmp_path, capsys):
    path = write_config(tmp_path, make_config("girth", solver={"N": 8, "starts": 3}))
    out = tmp_path / "plot.csv"
    assert main(["girth", "--config", path, "--format", "csv", "--out", str(out)]) == 0
    written = tmp_path / "plot_continuation.csv"
    assert written.exists() and not out.exists()
    assert capsys.readouterr().out == f"{written}\n"


def test_cli_solver_failure_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise NumericalFailureError("dual gauge solver did not converge", best_bound=1.0)

    monkeypatch.setattr(cli, "run", fail)
    path = write_config(tmp_path, make_config("girth", solver={"N": 8, "starts": 3}))
    assert main(["girth", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: dual gauge solver did not converge\n"
    assert captured.out == ""


def test_cli_missing_config_is_usage_error(tmp_path):
    code = main(["girth", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_cli_invalid_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for content in (b"{nope", b"\xff\xfe\x00garbage"):  # the second is not UTF-8
        path.write_bytes(content)
        assert main(["girth", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON config") and err.count("\n") == 1, err


def test_cli_subcommand_sets_the_experiment_before_validation(tmp_path, capsys):
    # a dim-2 config runs maps-verify, but not girth: a config error
    d = make_config("maps-verify", solver={"samples": 25})
    d["space"] = {"dim": 2, "norm1": {"type": "ellipsoid", "matrix": np.eye(2).tolist()}}
    assert main(["girth", "--config", write_config(tmp_path, d)]) == 2
    err = capsys.readouterr().err
    assert err == "error: girth requires dim >= 3\n"
    # a config without an experiment runs the subcommand's
    d = make_config("girth", solver={"N": 8, "starts": 3})
    del d["experiment"]
    out = tmp_path / "r.json"
    assert main(["girth", "--config", write_config(tmp_path, d), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["experiment"] == "girth"


@pytest.mark.parametrize("experiment", ["volume", "crofton"])
def test_cli_volume_and_crofton_need_dim_3(tmp_path, capsys, experiment):
    # the quadrature and the line measure are implemented in dimension 3
    # only: a valid dim-4 config is a config error, not a solver error
    d = make_config(experiment, norm1={"type": "ellipsoid", "matrix": np.eye(4).tolist()})
    d["space"]["dim"] = 4
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    assert main([experiment, "--config", write_config(tmp_path, d)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {experiment} requires dim = 3\n"
    assert captured.out == ""


def test_emit_plot_data_spectrum(tmp_path):
    cfg = ExperimentConfig.from_dict(
        make_config("spectrum", norm1=AN_E, solver={"N": 16, "starts": 3})
    )
    rep = run(cfg)
    paths = emit_plot_data(rep, str(tmp_path / "spectrum"))
    assert paths
    body = Path(paths[0]).read_text()
    assert body.startswith("primal,dual\n")


def test_emit_plot_data_crofton(tmp_path):
    cfg = ExperimentConfig.from_dict(make_config("crofton", solver={"samples": 2000}))
    rep = run(cfg)
    (path,) = emit_plot_data(rep, str(tmp_path / "c"))
    assert path == str(tmp_path / "c_crofton.csv")
    header, row, end = Path(path).read_text().split("\n")
    assert header == "samples,estimate,stderr" and end == ""
    line = rep.results["line_measure"]
    assert row.split(",")[0] == "2000"
    assert [float(v) for v in row.split(",")[1:]] == [line["value"], line["error_estimate"]]

"""scripts/fingerprints.py runs every experiment on every ``configs/*.json``
file whose dimension the experiment accepts."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fingerprints.py"


def test_sweep_skips_experiments_that_reject_the_config_dimension(tmp_path, monkeypatch, capsys):
    # the script sets BLAS thread variables and sys.path when loaded
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("fingerprints_script", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    config = {
        "space": {"dim": 4, "norm1": {"type": "ellipsoid", "matrix": np.eye(4).tolist()}},
        "experiment": "girth",
        "solver": {"N": 8, "starts": 1, "levels": 1, "samples": 16},
    }
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "dim4.json").write_text(json.dumps(config))
    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "WORKLOADS", {})
    script.main(["--seeds", "0"])
    names = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    # volume and crofton need dim 3
    assert names == ["dim4:girth", "dim4:dual-check", "dim4:spectrum", "dim4:maps-verify"]

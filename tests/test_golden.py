"""Golden-master test: the sha256 of every file that each CLI subcommand
writes, at small configs, against `tests/golden_outputs.json`.

Every study runs at criterion 14's config, and `train`/`predict` run
trees (minimax; random_observed with m_try) and forests (m_try,
random_uniform, cyclic and classification), all but the first tree large
enough that their roots take the rank-keyed presort of `growth`. The runs
use relative paths inside a temporary directory, so the manifests' path
echoes are stable; nothing is normalized away.

The hashes hold for one numpy version and one manifest version stamp,
both recorded in the JSON. Under another, the test skips and names both.
After a deliberate change of output bytes, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from minimaxsplit.cli import main as cli_main
from minimaxsplit.experiments import VERSION

GOLDEN = Path(__file__).with_name("golden_outputs.json")

STUDIES = {
    "ecp": {"n": 40, "replicates": 4, "noise_laws": ["normal"],
            "methods": ["variance", "minimax"]},
    "leafsize": {"n": 64, "replicates": 2, "max_depth": 3,
                 "noise_sigmas": [0.1], "methods": ["variance", "minimax"]},
    "sine": {"n": 64, "p_values": [1], "max_depth": 3, "batches": 2,
             "eval_depths": [2], "n_test": 64},
    "asbp": {"n": 128, "d": 2, "max_depth": 3, "n_test": 64},
    "denoise": {"height": 16, "width": 16, "n_trees": 2, "max_depth": 4,
                "methods": ["tree:minimax", "forest:minimax:m1"]},
    "powell": {"n_values": [128], "d_values": [4], "max_depth": 2,
               "n_test": 128},
    "timeseries": {"n_synthetic": 80, "depths": [2, 3]},
    "martingale": {"n_atoms": 32, "max_depth": 4},
}

# train configs; each trained model also scores its own training file
REGRESSION_ROWS = 4_500
MODELS = {
    "train": {"data": "small.csv", "target": "y", "max_depth": 3},
    "tree": {"data": "wide.csv", "target": "y", "max_depth": 6},
    "tree-random": {"data": "wide.csv", "target": "y", "criterion": "random_observed",
                    "max_depth": 6, "m_try": 2},
    "forest-mtry": {"data": "wide.csv", "target": "y", "model": "forest",
                    "n_trees": 3, "max_depth": 6, "m_try": 2},
    "forest-random-uniform": {"data": "wide.csv", "target": "y", "model": "forest",
                              "criterion": "random_uniform", "n_trees": 3,
                              "max_depth": 5, "m_try": 1},
    "forest-cyclic": {"data": "wide.csv", "target": "y", "model": "forest",
                      "criterion": "cyclic_minimax", "n_trees": 2, "max_depth": 5},
    "forest-classification": {"data": "labels.csv", "target": "y", "model": "forest",
                              "task": "classification", "criterion": "entropy_minimax",
                              "n_trees": 3, "max_depth": 5, "m_try": 2},
}


def _write_csv(path: str, header: str, rows) -> None:
    Path(path).write_text("\n".join([header] + [",".join(map(repr, r)) for r in rows]) + "\n",
                          encoding="utf-8")


def write_inputs() -> None:
    """The input CSVs, from integer arithmetic and `math` alone, so their
    bytes do not depend on numpy. `wide.csv` mixes a heavily tied feature,
    one holding both zeros (-0.0 and 0.0) and one with few ties."""
    _write_csv("small.csv", "x,y", [(i / 40, math.sin(i / 5.0)) for i in range(40)])
    wide = []
    for i in range(REGRESSION_ROWS):
        tied = round(math.sin(i * 0.37) * 20) / 4
        zeros = (-0.0 if i % 3 else 0.0) if i % 5 else (i % 17) / 16 - 0.5
        spread = (i * 7919 % 1009) / 1009
        noise = (i * 2654435761 % 1000) / 4000
        wide.append((tied, zeros, spread, math.sin(tied) + spread * spread + zeros + noise))
    _write_csv("wide.csv", "a,b,c,y", wide)
    _write_csv("labels.csv", "a,b,c,y",
               [(a, b, c, 1.0 if (y > 0.6) != (i % 11 == 0) else -1.0)
                for i, (a, b, c, y) in enumerate(wide)])


def run_all() -> dict:
    """Run every case in the current directory; the sha256 of each output
    file, keyed by its relative path."""
    write_inputs()
    runs = [(name, name, conf) for name, conf in STUDIES.items()]
    for name, conf in MODELS.items():
        runs.append(("train", name, conf))
        runs.append(("predict", f"{name}-predict", {"model": f"{name}/model.json",
                                                    "data": conf["data"],
                                                    "target": conf["target"]}))
    for command, out, conf in runs:
        code = cli_main([command, "--seed", "5", "--out", out, "--config", json.dumps(conf)])
        assert code == 0, f"{out} exited {code}"
    return {f"{out}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for _, out, _ in runs for p in sorted(Path(out).iterdir())}


def test_outputs_match_golden(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if (golden["numpy"], golden["version"]) != (np.__version__, VERSION):
        pytest.skip(f"golden hashes were made with numpy {golden['numpy']} and version "
                    f"stamp {golden['version']}; this is numpy {np.__version__} and "
                    f"version stamp {VERSION}")
    monkeypatch.chdir(tmp_path)
    got = run_all()
    want = golden["files"]
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, f"output bytes differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            files = run_all()
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "version": VERSION,
                                  "files": files}, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(files)} hashes to {GOLDEN}", file=sys.stderr)

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minimaxsplit
from minimaxsplit.cli import build_parser, main


def run_cli(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_success_returns_zero(self, tmp_path, capsys):
        code = run_cli(["martingale", "--out", tmp_path / "m", "--config",
                        '{"n_atoms": 16, "max_depth": 3}'])
        assert code == 0
        out = capsys.readouterr().out
        assert "martingale: wrote" in out and str(tmp_path / "m") in out
        assert (tmp_path / "m" / "decay.csv").exists()

    def test_config_error_returns_two(self, tmp_path, capsys):
        code = run_cli(["martingale", "--out", tmp_path / "m", "--config",
                        '{"density": "gaussian"}'])
        assert code == 2
        assert "gaussian" in capsys.readouterr().err

    def test_unknown_config_key_returns_two(self, tmp_path, capsys):
        code = run_cli(["ecp", "--out", tmp_path / "e", "--config",
                        '{"n": 30, "nope": 1}'])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_data_error_returns_three(self, tmp_path, capsys):
        code = run_cli(["martingale", "--out", tmp_path / "m", "--config",
                        json.dumps({"density": str(tmp_path / "missing.csv")})])
        assert code == 3
        assert "missing.csv" in capsys.readouterr().err

    def test_bad_threads_returns_two(self, tmp_path, capsys):
        code = run_cli(["martingale", "--out", tmp_path / "m", "--threads", "0"])
        assert code == 2

    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])


class TestSeriesAndAtomFiles:
    """The timeseries, martingale and train readers reject bad files with
    exit 3."""

    @pytest.mark.parametrize("text,message,command,field", [
        (text, message, command, field)
        for text, message in [(b"time,value\n1,2\n\xff,3\n", "not UTF-8"),
                              (b"time,value\n1,2\n" + b"9" * 200_000 + b",3\n", "field limit")]
        for command, field in [("timeseries", "data"), ("martingale", "density")]
    ] + [
        # a header cell past csv.field_size_limit()
        (b"a" + b"x" * 200_000 + b",y\n1,2\n3,4\n", "field limit", "train", "data")])
    def test_unreadable_file_returns_three(self, tmp_path, capsys, text, message,
                                           command, field):
        src = tmp_path / "series.csv"
        src.write_bytes(text)
        code = run_cli([command, "--out", tmp_path / "o", "--config",
                        json.dumps({field: str(src)})])
        assert code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,field,kind", [
        ("train", "data", "directory"), ("predict", "model", "directory"),
        ("denoise", "image", "directory"), ("predict", "model", "latin-1")])
    def test_unreadable_input_path_returns_three(self, tmp_path, capsys, command, field,
                                                 kind):
        src = tmp_path / "input"
        if kind == "directory":
            src.mkdir()
        else:
            src.write_bytes(b'{"format": "tree-v1", "name": "caf\xe9"}')
        config = {"data": str(tmp_path / "absent.csv")} if command == "predict" else {}
        code = run_cli([command, "--out", tmp_path / "o", "--config",
                        json.dumps({**config, field: str(src)})])
        assert code == 3
        err = capsys.readouterr().err
        assert str(src) in err and ("cannot read" if kind == "directory" else "not UTF-8") in err

    @pytest.mark.parametrize("rows", ["0.0,1\n0.5,nan\n", "0.0,1\n0.5,0\n",
                                      "0.0,1\n0.5,-2\n", "0.0,1\nnan,1\n",
                                      "0.0,1\n0.5,inf\n"])
    def test_bad_atom_values_return_three(self, tmp_path, capsys, rows):
        src = tmp_path / "atoms.csv"
        src.write_text("atom,weight\n" + rows, encoding="utf-8")
        code = run_cli(["martingale", "--out", tmp_path / "o", "--config",
                        json.dumps({"density": str(src), "max_depth": 2})])
        assert code == 3
        assert "atoms.csv" in capsys.readouterr().err


class TestConfigSources:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_atoms": 8, "max_depth": 2}', encoding="utf-8")
        assert run_cli(["martingale", "--out", tmp_path / "m",
                        "--config", cfg]) == 0
        doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert doc["config"]["n_atoms"] == 8

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli(["martingale", "--out", tmp_path / "m",
                        "--config", tmp_path / "absent.json"])
        assert code == 2

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_config_file(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b'{"n_atoms": 8, "density": "caf\xe9"}')
        code = run_cli(["martingale", "--out", tmp_path / "m", "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and ("cannot read" if kind == "directory" else "not UTF-8") in err

    def test_malformed_inline_json(self, tmp_path):
        assert run_cli(["martingale", "--out", tmp_path / "m",
                        "--config", '{"n_atoms": }']) == 2

    def test_defaults_without_config(self, tmp_path):
        assert run_cli(["powell", "--out", tmp_path / "p", "--config",
                        '{"n_values": [100], "n_test": 100, "max_depth": 2}']) == 0


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        conf = '{"n": 40, "replicates": 5, "noise_laws": ["normal"]}'
        assert run_cli(["ecp", "--seed", 7, "--out", tmp_path / "a",
                        "--config", conf]) == 0
        assert run_cli(["ecp", "--seed", 7, "--out", tmp_path / "b",
                        "--config", conf]) == 0
        for name in ("ecp.csv", "ecp_summary.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_threads_flag_keeps_bytes(self, tmp_path):
        conf = '{"n": 40, "replicates": 6, "noise_laws": ["normal"]}'
        run_cli(["ecp", "--seed", 1, "--out", tmp_path / "s", "--config", conf])
        run_cli(["ecp", "--seed", 1, "--out", tmp_path / "p", "--threads", 3,
                 "--config", conf])
        assert (tmp_path / "s" / "ecp.csv").read_bytes() == \
            (tmp_path / "p" / "ecp.csv").read_bytes()

    def test_martingale_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """The simons rule takes its cell means from block sums, which no
        BLAS thread count reorders, so every rule's curves come out the same
        at one and at two BLAS threads."""
        config = json.dumps({"density": "ramp", "max_depth": 12,
                             "rules": ["variance", "simons", "minimax", "median"]})
        env = dict(os.environ, PYTHONPATH=str(Path(minimaxsplit.__file__).parents[1]))
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            subprocess.run([sys.executable, "-m", "minimaxsplit.cli", "martingale",
                            "--out", str(tmp_path / threads), "--config", config],
                           env=env, check=True, capture_output=True, timeout=300)
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert names == ["decay.csv", "manifest.json", "ratio.csv"]
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


class TestWarningsAndHelp:
    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        src = tmp_path / "series.csv"
        lines = ["time,value"] + [f"day-{i},{float(i)!r}" for i in range(30)]
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli(["timeseries", "--out", tmp_path / "ts", "--config",
                        json.dumps({"data": str(src), "depths": [2]})])
        assert code == 0
        assert "row index" in capsys.readouterr().err

    def test_parser_lists_all_subcommands(self):
        parser = build_parser()
        subactions = [a for a in parser._actions if a.dest == "command"]
        assert subactions
        names = set(subactions[0].choices)
        assert names == {"ecp", "leafsize", "sine", "asbp", "denoise", "powell",
                         "timeseries", "martingale", "train", "predict"}

    def test_train_predict_pipeline(self, tmp_path):
        src = tmp_path / "d.csv"
        rows = ["x,y"] + [f"{i / 20!r},{(0.0 if i < 10 else 5.0)!r}"
                          for i in range(20)]
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run_cli(["train", "--out", tmp_path / "tr", "--config",
                        json.dumps({"data": str(src), "target": "y",
                                    "max_depth": 2})]) == 0
        assert run_cli(["predict", "--out", tmp_path / "pr", "--config",
                        json.dumps({"model": str(tmp_path / "tr" / "model.json"),
                                    "data": str(src), "target": "y"})]) == 0
        metrics = json.loads((tmp_path / "pr" / "metrics.json").read_text())
        assert metrics["mse"] == 0.0


class TestTrainConfigTypes:
    """A bool is not an int and `bootstrap` must be a bool: each of these
    train configs exits 2 and writes no model."""

    @pytest.mark.parametrize("override", [
        {"model": "forest", "m_try": True},
        {"model": "forest", "n_trees": True},
        {"model": "forest", "max_depth": True},
        {"model": "forest", "n_min": True},
        {"model": "forest", "bootstrap": 0},
        {"model": "forest", "bootstrap": "no"},
        {"model": "forest", "bootstrap": None},
        {"model": "tree", "m_try": True},
        {"model": "tree", "max_depth": False},
        {"model": "tree", "n_min": True},
        {"model": "tree", "fixed_features": [True]},
    ], ids=lambda o: "-".join(f"{k}={v!r}" for k, v in o.items()))
    def test_bad_type_returns_two(self, tmp_path, capsys, override):
        src = tmp_path / "d.csv"
        src.write_text("a,b,y\n" + "".join(f"{i},{i % 3},{i % 2}\n" for i in range(20)),
                       encoding="utf-8")
        config = dict({"data": str(src), "target": "y", "max_depth": 2, "n_trees": 2},
                      **override)
        code = run_cli(["train", "--out", tmp_path / "tr", "--config", json.dumps(config)])
        assert code == 2
        key = next(k for k in override if k != "model")
        assert key in capsys.readouterr().err
        assert not (tmp_path / "tr" / "model.json").exists()


class TestStudyConfigTypes:
    """Every study rejects an ill-typed or empty config value with exit 2,
    never a traceback or an empty table."""

    @pytest.mark.parametrize("command,config", [
        ("ecp", {"n": 2.5}),
        ("ecp", {"replicates": 1.5}),
        ("ecp", {"noise_laws": "normal"}),
        ("ecp", {"noise_laws": []}),
        ("leafsize", {"n": 64.5}),
        ("leafsize", {"noise_sigmas": []}),
        ("sine", {"batches": 2.5, "eval_depths": [1]}),
        ("sine", {"p_values": []}),
        ("asbp", {"d": 2.5}),
        ("powell", {"n_values": [100.5]}),
        ("powell", {"d_values": []}),
        ("timeseries", {"n_synthetic": 100.5}),
        ("timeseries", {"downsample": 2.5}),
        ("martingale", {"n_atoms": 100.5}),
        ("martingale", {"density": 5}),
        ("train", {"data": 5}),
        ("predict", {"model": 5, "data": "x"}),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_bad_value_returns_two(self, tmp_path, capsys, command, config):
        code = run_cli([command, "--out", tmp_path / "o", "--config", json.dumps(config)])
        assert code == 2
        assert next(iter(config)) in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*.csv"))

    @pytest.mark.parametrize("sigma", ["-0.5", "NaN", "Infinity"])
    @pytest.mark.parametrize("command,key,template", [
        ("sine", "noise_sigma", "{}"),
        ("powell", "noise_sigma", "{}"),
        ("denoise", "noise_sigma", "{}"),
        ("leafsize", "noise_sigmas", "[0.1, {}]"),
    ])
    def test_bad_noise_sigma_returns_two(self, tmp_path, capsys, command, key, template,
                                         sigma):
        """A negative, NaN or infinite noise level (JSON parses NaN and
        Infinity) is a config error, not a noiseless run or a data error."""
        config = f'{{"{key}": {template.format(sigma)}}}'
        assert run_cli([command, "--out", tmp_path / "o", "--config", config]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestStudyConfigFaults:
    """Config values a study cannot run with exit 2 before any work, not as a
    traceback (exit 1) or a data error (exit 3)."""

    @pytest.mark.parametrize("command,config,fragment", [
        ("sine", {"p_values": [1, 5000]}, "p = 5000"),
        ("sine", {"p_values": [1022]}, "p = 1022"),
        ("denoise", {"height": 0}, "height"),
        ("denoise", {"width": -3}, "width"),
        ("ecp", {"noise_laws": ["normal", "t1e999"]}, "finite"),
        ("ecp", {"noise_laws": ["tnan"]}, "finite"),
        ("ecp", {"noise_laws": ["tinf"]}, "finite"),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_returns_two(self, tmp_path, capsys, command, config, fragment):
        code = run_cli([command, "--out", tmp_path / "o", "--config", json.dumps(config)])
        assert code == 2
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestPredictMatchesColumnsByName:
    """train records the training header; predict takes the model's columns
    from a scoring file by name, wherever they stand."""

    @pytest.fixture
    def trained(self, tmp_path):
        rows = []
        for i in range(40):
            a, b = i / 40, (i * 7 % 40) / 40
            rows.append({"a": repr(a), "b": repr(b), "y": repr((0.0 if a < 0.5 else 5.0) + b),
                         "extra": "-1"})
        self.write(tmp_path / "train.csv", ["a", "b", "y"], rows)
        assert run_cli(["train", "--out", tmp_path / "tr", "--config",
                        json.dumps({"data": str(tmp_path / "train.csv"), "target": "y",
                                    "max_depth": 3})]) == 0
        model = json.loads((tmp_path / "tr" / "model.json").read_text())
        assert model["feature_names"] == ["a", "b"]
        return tmp_path, rows

    @staticmethod
    def write(path, header, rows, keys=None):
        lines = [",".join(header)]
        lines += [",".join(r[k] for k in (keys or header)) for r in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def predict(self, tmp_path, name, header, rows, keys=None, target="y"):
        self.write(tmp_path / f"{name}.csv", header, rows, keys)
        config = {"model": str(tmp_path / "tr" / "model.json"),
                  "data": str(tmp_path / f"{name}.csv")}
        if target is not None:
            config["target"] = target
        code = run_cli(["predict", "--out", tmp_path / name, "--config", json.dumps(config)])
        out = tmp_path / name / "predictions.csv"
        return code, out.read_bytes() if code == 0 else None

    def test_permuted_extra_and_missing_columns(self, trained, capsys):
        tmp_path, rows = trained
        code, same = self.predict(tmp_path, "same", ["a", "b", "y"], rows)
        assert code == 0
        assert self.predict(tmp_path, "permuted", ["y", "b", "a"], rows) == (0, same)
        assert self.predict(tmp_path, "extra", ["b", "extra", "a", "y"], rows) == (0, same)
        assert self.predict(tmp_path, "bare", ["b", "a"], rows, target=None) == (0, same)
        metrics = json.loads((tmp_path / "permuted" / "metrics.json").read_text())
        assert metrics == json.loads((tmp_path / "same" / "metrics.json").read_text())
        capsys.readouterr()
        assert self.predict(tmp_path, "missing", ["b", "y"], rows) == (3, None)
        assert "no column named 'a'" in capsys.readouterr().err

    def test_model_without_names_stays_positional(self, trained):
        tmp_path, rows = trained
        path = tmp_path / "tr" / "model.json"
        doc = json.loads(path.read_text())
        del doc["feature_names"]
        path.write_text(json.dumps(doc))
        code, same = self.predict(tmp_path, "same", ["a", "b", "y"], rows)
        assert code == 0
        # positional: renamed columns are taken in file order
        assert self.predict(tmp_path, "renamed", ["p", "q", "y"], rows,
                            keys=["a", "b", "y"]) == (0, same)

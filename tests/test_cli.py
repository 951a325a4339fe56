import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from test_golden import STUDIES

import minimaxsplit
from minimaxsplit.cli import build_parser, main
from minimaxsplit.experiments import EXPERIMENTS


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


class TestOutputPathFaults:
    """An output path that cannot be written exits 2 and names the path."""

    def test_out_is_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "f").write_text("keep")
        assert run_cli(["sine", "--out", tmp_path / "f"]) == 2
        assert str(tmp_path / "f") in capsys.readouterr().err
        assert (tmp_path / "f").read_text() == "keep"

    def test_out_below_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "f").write_text("keep")
        assert run_cli(["sine", "--out", tmp_path / "f" / "sub"]) == 2
        assert str(tmp_path / "f" / "sub") in capsys.readouterr().err

    def test_output_name_taken_by_a_directory(self, tmp_path, capsys):
        (tmp_path / "s" / "manifest.json").mkdir(parents=True)
        assert run_cli(["sine", "--out", tmp_path / "s"]) == 2
        assert str(tmp_path / "s" / "manifest.json") in capsys.readouterr().err
        assert (tmp_path / "s" / "manifest.json").is_dir()


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

    @pytest.mark.parametrize("command,field", [
        ("timeseries", "data"), ("martingale", "density"), ("train", "data"),
        ("denoise", "image"), ("predict", "model")])
    def test_path_with_a_nul_character_returns_three(self, tmp_path, capsys, command, field):
        """Opening such a path raises ValueError, not OSError; it takes the
        same error ladder."""
        config = {"data": str(tmp_path / "absent.csv")} if command == "predict" else {}
        code = run_cli([command, "--out", tmp_path / "o", "--config",
                        json.dumps({**config, field: str(tmp_path / "in\x00.csv")})])
        assert code == 3
        assert "data error" in capsys.readouterr().err

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

    def run_file(self, tmp_path, capsys, command, text):
        src = tmp_path / "input.csv"
        src.write_text(text, encoding="utf-8")
        field = "data" if command == "timeseries" else "density"
        code = run_cli([command, "--out", tmp_path / "o", "--config",
                        json.dumps({field: str(src), "max_depth": 2} if command == "martingale"
                                   else {field: str(src), "depths": [1]})])
        return code, capsys.readouterr().err

    def test_one_cell_first_record_returns_three(self, tmp_path, capsys):
        text = "1.0\n" + "".join(f"{k},{k * k}\n" for k in range(2, 12))
        code, err = self.run_file(tmp_path, capsys, "timeseries", text)
        assert code == 3 and "line 1 has fewer than two cells" in err

    # the number rule of train and predict: a digit separator or a non-ASCII
    # digit, both of which `float` reads, is not a number
    @pytest.mark.parametrize("cell", ["1_000", "٣"])
    @pytest.mark.parametrize("command,head,row", [
        ("timeseries", "time,value\n", "11,{}\n"),
        ("martingale", "atom,weight\n", "{},1\n"),
        ("martingale", "atom,weight\n", "0.75,{}\n"),
    ])
    def test_number_rule_of_train_and_predict(self, tmp_path, capsys, cell, command,
                                              head, row):
        good = ("".join(f"{k},{k % 3}\n" for k in range(10)) if command == "timeseries"
                else "0.0,1\n0.5,2\n")
        code, err = self.run_file(tmp_path, capsys, command, head + good + row.format(cell))
        assert code == 3
        assert f"line {good.count(chr(10)) + 2}" in err and repr(cell) in err

    @pytest.mark.parametrize("command,text,line", [
        ("timeseries", "# exported\ntime,value\n\n1,2\n# gap\n2,oops\n", 6),
        ("martingale", "atom,weight\n\n# note\n0.0,1\nhalf,1\n", 5),
    ])
    def test_errors_name_the_file_line(self, tmp_path, capsys, command, text, line):
        code, err = self.run_file(tmp_path, capsys, command, text)
        assert code == 3 and f"line {line}" in err


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


class TestTrainConfigFaultsBeforeData:
    """A train config that cannot run is a config error (exit 2) before the
    data file is read: each of these names a missing file, which would be a
    data error (exit 3) if the config were checked only after loading it."""

    @pytest.mark.parametrize("override,fragment", [
        ({"max_depth": -1}, "max_depth"),
        ({"model": "forest", "n_trees": 0}, "n_trees"),
        ({"model": "forest", "fixed_features": [0]}, "single trees only"),
        ({"fixed_features": [0], "m_try": 1}, "mutually exclusive"),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_returns_two(self, tmp_path, capsys, override, fragment):
        config = {"data": str(tmp_path / "missing.csv"), **override}
        code = run_cli(["train", "--out", tmp_path / "tr", "--config", json.dumps(config)])
        assert code == 2
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "tr").exists()


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

    @pytest.mark.parametrize("digits,fragment", [(400, "noise_sigma"), (5000, "config JSON")])
    def test_huge_int_returns_two(self, tmp_path, capsys, digits, fragment):
        """An int of 400 digits is a JSON number that no float holds; one of
        5000 is past the digit limit of Python's int(), so json.loads itself
        refuses it. Neither is a traceback."""
        config = '{"noise_sigma": 1' + "0" * (digits - 1) + "}"
        assert run_cli(["sine", "--out", tmp_path / "o", "--config", config]) == 2
        assert fragment in capsys.readouterr().err
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


class TestNoiseLevelBound:
    """A finite noise level so large that the study's squares of the noisy
    targets overflow is a config error naming the field and its value, with
    no numpy warning, not a data error (exit 3) or a traceback."""

    @pytest.mark.parametrize("sigma", ["1e308", "1e154", "1e51"])
    @pytest.mark.parametrize("command,key,template", [
        ("sine", "noise_sigma", "{}"),
        ("powell", "noise_sigma", "{}"),
        ("denoise", "noise_sigma", "{}"),
        ("leafsize", "noise_sigmas", "[0.1, {}]"),
    ])
    def test_returns_two(self, tmp_path, capsys, recwarn, command, key, template, sigma):
        config = {**STUDIES[command], key: json.loads(template.format(sigma))}
        assert run_cli([command, "--out", tmp_path / "o", "--config", json.dumps(config)]) == 2
        err = capsys.readouterr().err
        assert f".{key}: " in err and repr(float(sigma)) in err, err
        assert not recwarn.list
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("sine", "noise_sigma", 1e50), ("powell", "noise_sigma", 1e50),
        ("denoise", "noise_sigma", 1e50), ("leafsize", "noise_sigmas", [1e50])])
    def test_largest_level_runs_without_warnings(self, tmp_path, recwarn, command, key, value):
        config = {**STUDIES[command], key: value}
        assert run_cli([command, "--out", tmp_path / "o", "--config", json.dumps(config)]) == 0
        assert not recwarn.list, [str(w.message) for w in recwarn.list]


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

    @pytest.mark.parametrize("target,column", [("a", "a"), (0, "a"), ("b", "b"), (2, "b")])
    def test_target_that_is_a_model_feature_returns_two(self, trained, capsys, target,
                                                         column):
        """Scoring a model against one of its own feature columns, named or
        indexed, is a config error naming that column, not a run of exit 0
        with metrics against the wrong column."""
        tmp_path, rows = trained
        code = self.predict(tmp_path, "self", ["a", "y", "b"], rows, target=target)
        assert code == (2, None)
        assert f"target column {column!r}" in capsys.readouterr().err
        assert not (tmp_path / "self" / "metrics.json").exists()

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


class TestPredictChecksTheModel:
    """A model that would predict NaN or one label for every row, or that
    cannot meet the scoring file, is a data error (exit 3) naming the fault,
    not a run that exits 0 or a config error."""

    @staticmethod
    def leaf_tree(n_features, task="regression", criterion="minimax"):
        leaf = {"depth": 0, "count": 2, "risk": 0.0, "value": 1.0, "log_odds": None,
                "feature": None, "threshold": None, "left": None, "right": None,
                "split_level": None, "leaf_reason": "depth"}
        return {"format": "tree-v1", "task": task, "n_features": n_features,
                "criterion": criterion, "max_depth": 0, "n_min": 1, "n_train": 2,
                "risk_trace": [0.0], "nodes": [leaf]}

    @staticmethod
    def predict(tmp_path, model, data):
        (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
        (tmp_path / "d.csv").write_text(data, encoding="utf-8")
        config = {"model": str(tmp_path / "model.json"), "data": str(tmp_path / "d.csv"),
                  "target": "y"}
        return run_cli(["predict", "--out", tmp_path / "pr", "--config", json.dumps(config)])

    @pytest.mark.parametrize("n_features", [0, -1])
    def test_n_features_below_one(self, tmp_path, capsys, n_features):
        assert self.predict(tmp_path, self.leaf_tree(n_features), "a,y\n1,1\n2,2\n") == 3
        assert "n_features" in capsys.readouterr().err

    def test_unnamed_model_and_file_of_another_width(self, tmp_path, capsys):
        assert self.predict(tmp_path, self.leaf_tree(2), "a,y\n1,1\n2,2\n") == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "d.csv") in err and "2 features" in err

    def test_classification_forest_with_null_log_odds(self, tmp_path, capsys):
        tree = self.leaf_tree(1, "classification", "entropy_minimax")
        forest = {"format": "forest-v1", "n_trees": 1, "m_try": None, "bootstrap": True,
                  "seed": 0, "bootstrap_indices": [[0, 1]], "trees": [tree],
                  **{key: tree[key] for key in ("task", "n_features", "criterion",
                                                "max_depth", "n_min")}}
        assert self.predict(tmp_path, forest, "a,y\n1,1\n2,1\n") == 3
        assert "log_odds" in capsys.readouterr().err
        tree["nodes"][0]["log_odds"] = 1.5
        assert self.predict(tmp_path, forest, "a,y\n1,1\n2,1\n") == 0

    def test_int_past_the_digit_limit(self, tmp_path, capsys):
        """json.loads refuses an int of 5000 digits with a ValueError that is
        not a JSONDecodeError; it is still a data error."""
        model = json.dumps(self.leaf_tree(1)).replace('"n_train": 2', '"n_train": 1' + "0" * 4999)
        (tmp_path / "model.json").write_text(model, encoding="utf-8")
        (tmp_path / "d.csv").write_text("a,y\n1,1\n", encoding="utf-8")
        config = {"model": str(tmp_path / "model.json"), "data": str(tmp_path / "d.csv")}
        assert run_cli(["predict", "--out", tmp_path / "pr", "--config", json.dumps(config)]) == 3
        assert "invalid JSON" in capsys.readouterr().err


class TestTrainTargetScale:
    """A regression target so large that squared sums over the rows
    overflow is a data error (exit 3) naming the file, raised before any
    output is written, not a traceback from the model writer or a root risk
    that reads 0; the largest target within the bound fits with finite risks
    and no numpy warning."""

    @staticmethod
    def train(tmp_path, ys, **extra):
        data = tmp_path / "t.csv"
        data.write_text("a,y\n" + "".join(f"{i},{y!r}\n" for i, y in enumerate(ys)),
                        encoding="utf-8")
        config = {"data": str(data), "target": "y", **extra}
        return run_cli(["train", "--out", tmp_path / "o", "--config", json.dumps(config)])

    @pytest.mark.parametrize("ys,extra", [
        ([1e160, -1e160, 2e160, 5.0], {}),
        ([1e200, 1.0, 2.0, 3.0], {"max_depth": 2}),
        ([1e154, 1e154, -1e154, 3.0], {}),
        ([1e160, -1e160, 2e160, 5.0], {"model": "forest", "n_trees": 2}),
    ])
    def test_returns_three(self, tmp_path, capsys, ys, extra):
        assert self.train(tmp_path, ys, **extra) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "t.csv") in err and "target" in err, err
        assert not any((tmp_path / "o").iterdir())

    def test_largest_target_fits(self, tmp_path, recwarn):
        # four rows: the bound is sqrt(largest float) / 8
        big = math.sqrt(sys.float_info.max) / 8
        assert self.train(tmp_path, [big, -big, big, -0.5 * big]) == 0
        assert not recwarn.list, [str(w.message) for w in recwarn.list]
        model = json.loads((tmp_path / "o" / "model.json").read_text(encoding="utf-8"))
        assert model["risk_trace"][0] > 0
        assert all(math.isfinite(node["risk"]) for node in model["nodes"])


class TestPredictDescendsOnce:
    """Classification `predict` takes labels and log-odds from one descent
    of each tree, and writes the labels and scores of `predict` and
    `predict_value`/`predict_log_odds`."""

    @pytest.mark.parametrize("model,trees", [("forest", 3), ("tree", 1)])
    def test_one_apply_per_tree(self, tmp_path, monkeypatch, model, trees):
        rows = [(i % 7 / 7, (i * 3) % 5, 1 if (i % 7) + (i * 3) % 5 > 5 else -1)
                for i in range(60)]
        data = tmp_path / "c.csv"
        data.write_text("a,b,y\n" + "".join(f"{a!r},{b},{y}\n" for a, b, y in rows),
                        encoding="utf-8")
        config = {"data": str(data), "target": "y", "task": "classification",
                  "criterion": "entropy_minimax", "model": model, "n_trees": trees,
                  "max_depth": 3}
        assert run_cli(["train", "--out", tmp_path / "m", "--config", json.dumps(config)]) == 0
        fitted = minimaxsplit.load_model((tmp_path / "m" / "model.json").read_text())
        calls = []
        apply = minimaxsplit.TreeModel.apply

        def counted(self, X, max_depth=None):
            calls.append(len(X))
            return apply(self, X, max_depth)

        monkeypatch.setattr(minimaxsplit.TreeModel, "apply", counted)
        config = {"model": str(tmp_path / "m" / "model.json"), "data": str(data)}
        assert run_cli(["predict", "--out", tmp_path / "p", "--config", json.dumps(config)]) == 0
        assert calls == [len(rows)] * trees
        monkeypatch.setattr(minimaxsplit.TreeModel, "apply", apply)
        X = [[a, b] for a, b, _ in rows]
        score = (fitted.predict_value(X) if model == "forest"
                 else fitted.predict_log_odds(X))
        want = "row,label,log_odds\n" + "".join(
            f"{i},{int(label)},{float(s)!r}\n"
            for i, (label, s) in enumerate(zip(fitted.predict(X), score)))
        assert (tmp_path / "p" / "predictions.csv").read_text(encoding="utf-8") == want


def test_the_version_stamp_is_pyprojects():
    """pyproject.toml takes the package version from `__version__`, which
    every manifest records, so a raw checkout and an installed tree stamp
    their manifests alike."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    from minimaxsplit.experiments import VERSION

    root = Path(minimaxsplit.__file__).parents[2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        project = pyprojecttoml.read_configuration(root / "pyproject.toml")["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == minimaxsplit.__version__ == VERSION


class TestOneFieldConfigFuzz:
    """Each field of each study config, one at a time over JSON edge values,
    on top of the small configs of `test_golden`: the CLI exits 0, 2 or 3
    within 10 s and never lets an exception escape. Huge valid ints are left
    out: they ask for a large run, which is a resource limit, not a fault."""

    # json.dumps writes the floats as NaN, Infinity and 1e+308
    VALUES = [0, -1, 1e308, math.nan, math.inf, "", None, [], {}]
    SECONDS = 10

    class TooSlow(BaseException):
        """Not an OSError (as TimeoutError is), so no `except OSError` in
        the file readers and writers can turn it into an exit code."""

    @classmethod
    def on_alarm(cls, signum, frame):
        raise cls.TooSlow("one config run took too long")

    @pytest.mark.parametrize("command,field", [
        (command, f.name) for command in STUDIES
        for f in dataclasses.fields(EXPERIMENTS[command][0])])
    def test_field(self, tmp_path, capsys, command, field):
        previous = signal.signal(signal.SIGALRM, self.on_alarm)
        try:
            for k, value in enumerate(self.VALUES):
                config = json.dumps({**STUDIES[command], field: value})
                signal.setitimer(signal.ITIMER_REAL, self.SECONDS)
                code = run_cli([command, "--out", tmp_path / str(k), "--config", config])
                signal.setitimer(signal.ITIMER_REAL, 0)
                assert code in (0, 2, 3), config
                assert "Traceback" not in capsys.readouterr().err
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from minimaxsplit import ConfigError, DataError
from minimaxsplit.experiments import (
    EXPERIMENTS,
    AsbpConfig,
    DenoiseConfig,
    EcpConfig,
    LeafSizeConfig,
    MartingaleRunConfig,
    PowellConfig,
    PredictConfig,
    SineConfig,
    TimeseriesConfig,
    TrainConfig,
    config_from_dict,
    run_asbp,
    run_denoise,
    run_ecp,
    run_leaf_size,
    run_martingale,
    run_powell,
    run_predict,
    run_sine,
    run_timeseries,
    run_train,
)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def tree_bytes(outdir):
    out = {}
    for p in sorted(Path(outdir).iterdir()):
        out[p.name] = p.read_bytes()
    return out


class TestConfigFromDict:
    def test_defaults_and_overrides(self):
        cfg = config_from_dict(EcpConfig, {})
        assert cfg == EcpConfig()
        cfg = config_from_dict(EcpConfig, {"n": 77, "noise_laws": ["normal"]})
        assert cfg.n == 77 and cfg.noise_laws == ("normal",)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(EcpConfig, {"n": 50, "bogus": 1})

    def test_validation_still_fires(self):
        with pytest.raises(ConfigError):
            config_from_dict(MartingaleRunConfig, {"density": "gaussian"})


class TestDirectConstruction:
    """Building a config in Python applies the checks that `--config` JSON
    gets: a value of the wrong type is a ConfigError naming the field, not
    a bare TypeError, a crash inside the runner or a silent run."""

    @pytest.mark.parametrize("cls,kwargs", [
        (EcpConfig, {"n": "5"}),
        (EcpConfig, {"threshold": "0.1"}),
        (LeafSizeConfig, {"noise_sigmas": ("0.1",)}),
        (MartingaleRunConfig, {"density": 5}),
        (EcpConfig, {"n": 20.5}),
        (PowellConfig, {"n_values": (100.0,)}),
        (AsbpConfig, {"d": 2.0}),
        (MartingaleRunConfig, {"n_atoms": 64.0}),
        (TimeseriesConfig, {"downsample": 1.5}),
        (SineConfig, {"p_values": (1.5,)}),
        (DenoiseConfig, {"height": 16.0}),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
    def test_wrong_type_is_a_config_error(self, cls, kwargs):
        name, = kwargs
        with pytest.raises(ConfigError, match=f"^{cls.__name__}.{name}: want "):
            cls(**kwargs)

    @pytest.mark.parametrize("cls,name,value", [
        (SineConfig, "noise_sigma", 10 ** 400),
        (LeafSizeConfig, "noise_sigmas", (0.1, 10 ** 400)),
    ], ids=["noise_sigma", "noise_sigmas"])
    def test_int_beyond_every_float_is_a_config_error(self, cls, name, value):
        """A float field keeps an int as given, so the range rule compares a
        400-digit int, not a float it cannot be turned into."""
        with pytest.raises(ConfigError, match=f"^{cls.__name__}.{name}: want a finite number"):
            cls(**{name: value})

    def test_numpy_ints_and_lists_are_normalized_json_ints_kept(self):
        cfg = SineConfig(n=np.int64(64), p_values=[np.int32(1), 2], noise_sigma=0)
        assert cfg.p_values == (1, 2) and cfg.noise_sigma == 0
        assert [type(v) for v in (cfg.n, *cfg.p_values, cfg.noise_sigma)] == [int] * 4
        assert cfg == config_from_dict(SineConfig, {"n": 64, "p_values": [1, 2],
                                                    "noise_sigma": 0})


class TestManifest:
    def test_manifest_lists_outputs_without_timestamps(self, tmp_path):
        res = run_martingale(MartingaleRunConfig(n_atoms=16, max_depth=3),
                             seed=0, out=tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert set(doc) == {"experiment", "config", "seed", "version", "files",
                            "summary", "warnings"}
        assert doc["experiment"] == "martingale" and doc["seed"] == 0
        listed = set(doc["files"]) | {"manifest.json"}
        on_disk = {p.name for p in (tmp_path / "m").iterdir()}
        assert listed == on_disk

    def test_reruns_are_byte_identical(self, tmp_path):
        for label, cfg, runner in [
            ("ecp", EcpConfig(n=40, replicates=6, noise_laws=("normal",)), run_ecp),
            ("mart", MartingaleRunConfig(n_atoms=32, max_depth=4), run_martingale),
            ("sine", SineConfig(n=64, p_values=(1,), max_depth=4,
                                eval_depths=(2,), n_test=64), run_sine),
        ]:
            a = runner(cfg, seed=9, out=tmp_path / label / "a")
            b = runner(cfg, seed=9, out=tmp_path / label / "b")
            assert tree_bytes(a.outdir) == tree_bytes(b.outdir), label

    def test_seed_changes_stochastic_outputs(self, tmp_path):
        cfg = EcpConfig(n=40, replicates=6, noise_laws=("normal",))
        a = run_ecp(cfg, seed=1, out=tmp_path / "a")
        b = run_ecp(cfg, seed=2, out=tmp_path / "b")
        assert (Path(a.outdir) / "ecp.csv").read_bytes() != \
            (Path(b.outdir) / "ecp.csv").read_bytes()


class TestEcp:
    def test_fractions_and_orderings(self, tmp_path):
        cfg = EcpConfig(n=400, replicates=120, noise_laws=("normal",),
                        methods=("variance", "minimax", "random_uniform",
                                 "random_observed"))
        res = run_ecp(cfg, seed=11, out=tmp_path / "ecp")
        header, rows = read_rows(Path(res.outdir) / "ecp.csv")
        assert header == ["noise_law", "method", "replicate", "smaller_fraction"]
        assert len(rows) == 120 * 4
        for r in rows:
            frac = float(r[3])
            assert 0.0 < frac <= 0.5
        s = res.summary
        assert s["normal/minimax"]["median_fraction"] > 0.35
        assert s["normal/variance"]["median_fraction"] < 0.2
        assert s["normal/minimax"]["frac_below"] < s["normal/variance"]["frac_below"]
        for m in ("random_uniform", "random_observed"):
            assert 0.13 < s[f"normal/{m}"]["median_fraction"] < 0.37

    def test_t_noise_parses(self, tmp_path):
        cfg = EcpConfig(n=30, replicates=4, noise_laws=("t3", "t(1)"),
                        methods=("minimax",))
        res = run_ecp(cfg, seed=0, out=tmp_path / "t")
        assert set(k.split("/")[0] for k in res.summary) == {"t3", "t(1)"}

    def test_unknown_law_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_ecp(EcpConfig(n=30, replicates=2, noise_laws=("cauchyish",)),
                    out=tmp_path / "x")


class TestLeafSize:
    def test_detail_rows_reconstruct_sample_size(self, tmp_path):
        n = 64
        cfg = LeafSizeConfig(n=n, replicates=3, max_depth=4, noise_sigmas=(0.1,),
                             methods=("variance", "minimax"))
        res = run_leaf_size(cfg, seed=4, out=tmp_path / "leaf")
        header, rows = read_rows(Path(res.outdir) / "leafsize_replicates.csv")
        assert header == ["noise_sigma", "method", "depth", "replicate",
                          "n_cells", "mean_leaf_size", "sd_leaf_size"]
        depths = set()
        for r in rows:
            cells, mean = int(r[4]), float(r[5])
            assert cells * mean == pytest.approx(n, abs=1e-9)
            depths.add(int(r[2]))
        assert depths == set(range(0, 5))

    def test_aggregate_schema(self, tmp_path):
        cfg = LeafSizeConfig(n=32, replicates=2, max_depth=3, noise_sigmas=(0.1,),
                             methods=("one_sided_min", "one_sided_max"))
        res = run_leaf_size(cfg, seed=1, out=tmp_path / "leaf")
        header, rows = read_rows(Path(res.outdir) / "leafsize.csv")
        assert header == ["noise_sigma", "method", "depth", "mean_leaf_size",
                          "sd_leaf_size", "mean_n_cells"]
        assert len(rows) == 2 * 4  # methods x depths 0..3


class TestSine:
    def test_minimax_plateau_and_recovery(self, tmp_path):
        cfg = SineConfig(n=256, p_values=(1, 2), max_depth=6,
                         methods=("variance", "minimax"), eval_depths=(2, 4),
                         n_test=512)
        res = run_sine(cfg, seed=3, out=tmp_path / "sine")
        s = res.summary
        # first split of a symmetric sine barely moves the minimax trace
        assert s["p=1/minimax"]["first_ratio"] > 0.95
        assert s["p=1/variance"]["first_ratio"] < 0.9
        assert s["p=2/minimax"]["final_trace"] < s["p=2/variance"]["final_trace"]
        header, rows = read_rows(Path(res.outdir) / "sine_trace.csv")
        assert header == ["p", "method", "depth", "risk"]
        for p in (1, 2):
            for m in ("variance", "minimax"):
                trace = [float(r[3]) for r in rows
                         if r[0] == str(p) and r[1] == m]
                assert len(trace) == 7
                assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_mse_table_schema(self, tmp_path):
        cfg = SineConfig(n=64, p_values=(1,), max_depth=4, eval_depths=(2, 4),
                         n_test=128)
        res = run_sine(cfg, seed=0, out=tmp_path / "sine")
        header, rows = read_rows(Path(res.outdir) / "sine_mse.csv")
        assert header == ["p", "method", "depth", "mean_mse", "sd_mse"]
        assert {int(r[2]) for r in rows} == {2, 4}


class TestAsbp:
    def test_minimax_locks_onto_first_coordinate(self, tmp_path):
        cfg = AsbpConfig(n=512, d=2, max_depth=4, n_test=256,
                         methods=("minimax", "cyclic_minimax"))
        res = run_asbp(cfg, seed=1, out=tmp_path / "asbp")
        header, rows = read_rows(Path(res.outdir) / "asbp_dims.csv")
        assert header == ["method", "level", "features"]
        for r in rows:
            if r[0] != "minimax":
                continue
            feats = set(r[2].split(";"))
            assert feats == {"0"}
        assert res.summary["minimax"]["all_levels_split_first_coordinate"] is True
        cyc = [r for r in rows if r[0] == "cyclic_minimax"]
        assert set(cyc[0][2].split(";")) == {"0"}
        assert set(cyc[1][2].split(";")) == {"1"}

    def test_cyclic_wins_heldout(self, tmp_path):
        cfg = AsbpConfig(n=1024, d=2, max_depth=6, n_test=512,
                         methods=("minimax", "cyclic_minimax"))
        res = run_asbp(cfg, seed=2, out=tmp_path / "asbp")
        assert res.summary["cyclic_minimax"]["final_mse"] < \
            res.summary["minimax"]["final_mse"]


class TestDenoise:
    def test_outputs_and_baseline(self, tmp_path):
        # 32x32 is the smallest size where the texture spans enough pixels
        # for averaging to beat the noisy baseline.
        cfg = DenoiseConfig(height=32, width=32, noise_sigma=0.1, n_trees=5,
                            max_depth=8, methods=("tree:variance",
                                                  "forest:minimax:m1"))
        res = run_denoise(cfg, seed=2, out=tmp_path / "den")
        out = Path(res.outdir)
        for name in ("clean.pgm", "noisy.pgm", "denoised_tree-variance.pgm",
                     "denoised_forest-minimax-m1.pgm", "denoise.csv",
                     "metrics.json", "manifest.json"):
            assert (out / name).exists(), name
        m = res.summary
        assert m["forest:minimax:m1"]["mse"] < m["noisy"]["mse"]
        assert 0.0 <= m["tree:variance"]["ssim"] <= 1.0
        header, rows = read_rows(out / "denoise.csv")
        assert header == ["method", "mse", "rmse", "mae", "r2", "ssim"]
        assert [r[0] for r in rows] == ["noisy", "tree:variance",
                                        "forest:minimax:m1"]

    def test_method_grammar(self, tmp_path):
        for bad in ("tree", "forest:minimax:m2", "tree:bogus", "blob:minimax"):
            with pytest.raises(ConfigError):
                run_denoise(DenoiseConfig(height=16, width=16, methods=(bad,)),
                            out=tmp_path / "x")

    def test_external_image_round_trip(self, tmp_path):
        from minimaxsplit import make_phantom, write_pgm
        src = tmp_path / "img.pgm"
        write_pgm(make_phantom(16, 16), src)
        cfg = DenoiseConfig(image=str(src), n_trees=2, max_depth=4,
                            methods=("tree:minimax",))
        res = run_denoise(cfg, seed=0, out=tmp_path / "den")
        assert "tree:minimax" in res.summary


class TestPowell:
    def test_schema_and_finiteness(self, tmp_path):
        cfg = PowellConfig(n_values=(200,), d_values=(4,), max_depth=2,
                           n_test=200)
        res = run_powell(cfg, seed=5, out=tmp_path / "pow")
        header, rows = read_rows(Path(res.outdir) / "powell.csv")
        assert header == ["n", "d", "method", "mse"]
        assert len(rows) == 2
        for r in rows:
            assert math.isfinite(float(r[3])) and float(r[3]) >= 0.0

    def test_dimension_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            run_powell(PowellConfig(n_values=(100,), d_values=(5,)),
                       out=tmp_path / "x")


class TestTimeseries:
    def write_series(self, path, n=240):
        t = np.linspace(0.0, 1.0, n)
        y = 3.0 * t + 1.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time,value\n")
            for a, b in zip(t, y):
                fh.write(f"{float(a)!r},{float(b)!r}\n")

    def test_linear_series_is_easy(self, tmp_path):
        src = tmp_path / "series.csv"
        self.write_series(src)
        cfg = TimeseriesConfig(data=str(src), depths=(2, 6), holdout=0.25)
        res = run_timeseries(cfg, seed=7, out=tmp_path / "ts")
        header, rows = read_rows(Path(res.outdir) / "timeseries.csv")
        assert header == ["method", "depth", "rmse", "mae", "r2"]
        deep = {r[0]: float(r[4]) for r in rows if int(r[1]) == 6}
        assert deep["variance"] > 0.99 and deep["minimax"] > 0.99
        assert res.summary["n_train"] == 180 and res.summary["n_test"] == 60
        _, preds = read_rows(Path(res.outdir) / "predictions.csv")
        assert len(preds) == 60 * 2 * 2  # one block per (method, depth)

    def test_non_numeric_time_warns(self, tmp_path):
        src = tmp_path / "series.csv"
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("time,value\n")
            for i in range(40):
                fh.write(f"day-{i},{float(i)}\n")
        cfg = TimeseriesConfig(data=str(src), depths=(2,), holdout=0.25)
        res = run_timeseries(cfg, seed=0, out=tmp_path / "ts")
        assert any("row index" in w for w in res.warnings)

    def test_headerless_dated_series_keeps_its_first_record(self, tmp_path):
        """The header rule keys on the value column, so a first record whose
        value is a number is data even when its time cell is not."""
        src = tmp_path / "series.csv"
        src.write_text("".join(f"2020-01-0{k},{k}\n" for k in range(1, 7)), encoding="utf-8")
        cfg = TimeseriesConfig(data=str(src), depths=(1,), holdout=0.2, standardize=False)
        res = run_timeseries(cfg, seed=0, out=tmp_path / "ts")
        assert res.summary["n_train"] + res.summary["n_test"] == 6
        assert any("row index" in w for w in res.warnings)

    def test_synthetic_fallback(self, tmp_path):
        cfg = TimeseriesConfig(n_synthetic=200, depths=(4,), holdout=0.2)
        res = run_timeseries(cfg, seed=3, out=tmp_path / "ts")
        assert res.summary["n_train"] == 160

    def test_bad_file(self, tmp_path):
        src = tmp_path / "broken.csv"
        src.write_text("time,value\n0.0,huh\n", encoding="utf-8")
        with pytest.raises(DataError):
            run_timeseries(TimeseriesConfig(data=str(src)), out=tmp_path / "x")


class TestMartingaleRunner:
    def test_uniform_rules_coincide(self, tmp_path):
        n = 64
        cfg = MartingaleRunConfig(density="uniform", n_atoms=n, max_depth=5)
        res = run_martingale(cfg, seed=0, out=tmp_path / "m")
        header, rows = read_rows(Path(res.outdir) / "decay.csv")
        assert header == ["depth", "variance", "simons", "minimax", "median"]
        for r in rows:
            k = int(r[0])
            vals = [float(v) for v in r[1:]]
            want = 0.25 ** k / 12.0 - 1.0 / (12.0 * n * n)
            for v in vals:
                assert v == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_ratio_blanks_after_exhaustion(self, tmp_path):
        cfg = MartingaleRunConfig(density="uniform", n_atoms=4, max_depth=3)
        res = run_martingale(cfg, seed=0, out=tmp_path / "m")
        header, rows = read_rows(Path(res.outdir) / "ratio.csv")
        # depth-2 partition is already exact, so the k=2 ratio has a zero
        # denominator and the cell is left empty
        last = rows[-1]
        assert int(last[0]) == 2
        assert all(cell == "" for cell in last[1:])

    def test_atom_csv_input(self, tmp_path):
        src = tmp_path / "atoms.csv"
        src.write_text("atom,weight\n0.0,1\n0.5,2\n1.0,1\n", encoding="utf-8")
        cfg = MartingaleRunConfig(density=str(src), max_depth=2)
        res = run_martingale(cfg, seed=0, out=tmp_path / "m")
        assert res.summary["variance"]["initial"] == pytest.approx(0.125)

    def test_atom_csv_errors(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("0.0,1\n0.0,2\n", encoding="utf-8")
        with pytest.raises(DataError):
            run_martingale(MartingaleRunConfig(density=str(bad)),
                           out=tmp_path / "x")
        with pytest.raises(DataError):
            run_martingale(MartingaleRunConfig(density=str(tmp_path / "no.csv")),
                           out=tmp_path / "y")


class TestTrainPredict:
    def write_regression_csv(self, path, n=120, seed=0):
        gen = np.random.default_rng(seed)
        x0, x1 = gen.uniform(size=n), gen.uniform(size=n)
        y = np.where(x0 < 0.5, 1.0, 3.0) + 0.01 * gen.normal(size=n)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x0,x1,y\n")
            for a, b, c in zip(x0, x1, y):
                fh.write(f"{float(a)!r},{float(b)!r},{float(c)!r}\n")

    def test_tree_round_trip(self, tmp_path):
        src = tmp_path / "data.csv"
        self.write_regression_csv(src)
        tr = run_train(TrainConfig(data=str(src), target="y", max_depth=3),
                       seed=1, out=tmp_path / "train")
        assert set(tr.files) == {"model.json", "metrics.json", "manifest.json"}
        assert tr.summary["fit"]["r2"] > 0.95
        pr = run_predict(PredictConfig(model=str(Path(tr.outdir) / "model.json"),
                                       data=str(src), target="y"),
                         out=tmp_path / "pred")
        assert pr.summary["metrics"]["r2"] > 0.95
        header, rows = read_rows(Path(pr.outdir) / "predictions.csv")
        assert header == ["row", "prediction"] and len(rows) == 120

    def test_predict_without_target(self, tmp_path):
        src = tmp_path / "data.csv"
        self.write_regression_csv(src)
        tr = run_train(TrainConfig(data=str(src), target="y", model="forest",
                                   n_trees=3, max_depth=3),
                       seed=2, out=tmp_path / "train")
        bare = tmp_path / "bare.csv"
        with open(src, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(bare, "w", encoding="utf-8") as fh:
            fh.write("x0,x1\n")
            for line in lines[1:]:
                fh.write(",".join(line.split(",")[:2]) + "\n")
        pr = run_predict(PredictConfig(model=str(Path(tr.outdir) / "model.json"),
                                       data=str(bare)),
                         out=tmp_path / "pred")
        assert set(pr.files) == {"predictions.csv", "manifest.json"}
        assert "metrics" not in pr.summary

    def test_classification_schema(self, tmp_path):
        src = tmp_path / "cls.csv"
        gen = np.random.default_rng(3)
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("x,y\n")
            for _ in range(80):
                x = float(gen.uniform())
                fh.write(f"{x!r},{1.0 if x > 0.5 else -1.0}\n")
        tr = run_train(TrainConfig(data=str(src), target="y",
                                   task="classification",
                                   criterion="entropy_minimax", max_depth=3),
                       out=tmp_path / "train")
        assert tr.summary["fit"]["error_rate"] == 0.0
        pr = run_predict(PredictConfig(model=str(Path(tr.outdir) / "model.json"),
                                       data=str(src), target="y"),
                         out=tmp_path / "pred")
        header, rows = read_rows(Path(pr.outdir) / "predictions.csv")
        assert header == ["row", "label", "log_odds"]
        assert {r[1] for r in rows} <= {"-1", "1"}

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            TrainConfig(data="")
        with pytest.raises(ConfigError):
            TrainConfig(data="x.csv", model="boost")
        with pytest.raises(ConfigError):
            PredictConfig(model="", data="x.csv")
        with pytest.raises(DataError):
            run_predict(PredictConfig(model=str(tmp_path / "no.json"),
                                      data=str(tmp_path / "no.csv")),
                        out=tmp_path / "x")


def test_registry_covers_all_runners():
    assert set(EXPERIMENTS) == {"ecp", "leafsize", "sine", "asbp", "denoise",
                                "powell", "timeseries", "martingale", "train",
                                "predict"}
    for name, (cfg_cls, runner) in EXPERIMENTS.items():
        assert callable(runner)
        assert hasattr(cfg_cls, "__dataclass_fields__")

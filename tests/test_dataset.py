import time

import numpy as np
import pytest

from minimaxsplit import (
    CLASSIFICATION,
    REGRESSION,
    AdditiveTVSpec,
    AsbpSpec,
    ConfigError,
    DataError,
    Dataset,
    ImageGrid,
    PiecewiseSpec,
    PowellSpec,
    PureNoiseSpec,
    SineSpec,
    dataset_to_image,
    gen_synthetic,
    image_to_dataset,
    load_csv,
    load_feature_matrix,
    load_pgm,
    make_phantom,
    powell,
    write_pgm,
)
from minimaxsplit.dataset import piecewise_signal

from one_node import NodeView


class TestDataset:
    def test_from_rows_transposes(self):
        ds = Dataset.from_rows([[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0])
        assert ds.features.shape == (2, 2)
        assert ds.features[0].tolist() == [1.0, 3.0]

    def test_callers_arrays_stay_writeable(self):
        X, y = np.zeros((2, 3)), np.zeros(3)
        ds = Dataset(features=X, targets=y, task=REGRESSION)
        assert not ds.features.flags.writeable and not ds.targets.flags.writeable
        assert np.shares_memory(ds.features, X)  # a view, not a copy
        X[0, 0] = 1.0
        y[0] = 1.0
        assert X.flags.writeable and y.flags.writeable

    def test_rejects_nan_and_bad_labels(self):
        with pytest.raises(DataError):
            Dataset(features=[[np.nan]], targets=[0.0], task=REGRESSION)
        with pytest.raises(DataError):
            Dataset(features=[[1.0]], targets=[0.5], task=CLASSIFICATION)
        with pytest.raises(ConfigError):
            Dataset(features=[[1.0]], targets=[1.0], task="ranking")

    def test_feature_index_must_be_an_int(self):
        ds = Dataset.from_rows([[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0])
        node = NodeView(ds, np.arange(2))
        for j in (1.5, True, "1"):
            with pytest.raises(ConfigError, match="feature index must be an int"):
                node.feature_values(j)
        with pytest.raises(ConfigError, match="out of range"):
            node.feature_values(2)
        assert node.feature_values(np.int64(1)).tolist() == [2.0, 4.0]

    def test_subset_allows_duplicates(self):
        ds = Dataset(features=[[1.0, 2.0, 3.0]], targets=[5.0, 6, 7], task=REGRESSION)
        sub = ds.subset([2, 2, 0])
        assert sub.targets.tolist() == [7.0, 7.0, 5.0]

    @pytest.mark.parametrize("indices", [[0.7, 1.9], [-1], [3], [True, False], [], [[0]]],
                             ids=["floats", "negative", "past_the_end", "bools", "empty",
                                  "two_dims"])
    def test_subset_rejects_what_is_not_a_row(self, indices):
        """A float or bool would be cast to some other row and -1 would take
        the last one."""
        ds = Dataset(features=[[1.0, 2.0, 3.0]], targets=[5.0, 6, 7], task=REGRESSION)
        with pytest.raises(DataError, match=r"\[0, 3\)"):
            ds.subset(indices)


class TestCsv:
    def test_column_order_and_sorting(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n2,5\n1,4\n")
        ds = load_csv(p, "y")
        # row order is sample order
        assert ds.targets.tolist() == [5.0, 4.0]
        assert ds.features.tolist() == [[2.0, 1.0]]

    def test_target_by_index(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n1,2,3\n4,5,6\n")
        ds = load_csv(p, 1)
        assert ds.targets.tolist() == [2.0, 5.0]
        assert ds.features.T.tolist() == [[1.0, 3.0], [4.0, 6.0]]

    @pytest.mark.parametrize("body,msg", [
        ("x,y\n1\n", "cells"),
        ("x,y\n1,apple\n", "non-numeric"),
        ("x,y\n", "no data rows"),
        ("", "empty"),
    ])
    def test_malformed(self, tmp_path, body, msg):
        p = tmp_path / "bad.csv"
        p.write_text(body)
        with pytest.raises(DataError, match=msg):
            load_csv(p, "y")

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(DataError, match="no column named"):
            load_csv(p, "z")

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# metadata\nx,y\n1,2\n# another\n3,4\n")
        assert load_csv(p, "y").n_samples == 2

    def test_feature_matrix(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("u,v\n1,2\n3,4\n")
        X = load_feature_matrix(p)
        assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(DataError):
            load_feature_matrix(tmp_path / "absent.csv")


class TestPgm:
    def test_ascii_parse(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_text("P2\n2 2\n255\n0 255 255 0\n")
        img = load_pgm(p)
        assert img.pixels.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_rejects_color_magic(self, tmp_path):
        p = tmp_path / "i.ppm"
        p.write_text("P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(DataError, match="P2 or P5"):
            load_pgm(p)

    def test_comment_and_whitespace_tolerance(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_text("P2 # magic\n# size next\n2 1\n255\n10\t20\n")
        img = load_pgm(p)
        assert img.width == 2 and img.height == 1

    @pytest.mark.parametrize("maxval,binary", [(255, False), (255, True),
                                               (65535, False), (65535, True)])
    def test_round_trip(self, tmp_path, rng, maxval, binary):
        px = rng.integers(0, maxval + 1, (5, 7)) / maxval
        img = ImageGrid(pixels=px)
        p = tmp_path / "i.pgm"
        write_pgm(img, p, maxval=maxval, binary=binary)
        back = load_pgm(p)
        np.testing.assert_allclose(back.pixels, px, atol=0.5 / maxval)

    @pytest.mark.parametrize("text,token", [
        ("P2\n2 1\n1_0\n1 2\n", "b'1_0'"),
        ("P2\n+2 1\n255\n1 2\n", "b'+2'"),
        ("P2\n2 1\n255\n1_0 2\n", "b'1_0'"),
        ("P2\n2 1\n255\n+5 2\n", "b'+5'"),
        ("P2\n2 1\n255\n-5 2\n", "b'-5'"),
        ("P2\n2 1\n255\n5 2.0\n", "b'2.0'"),
        ("P2\n2 1\n255\n5\x0b2 3\n", "b'5\\x0b2'"),
        ("P2\n2 1\n255\n\u0661 2\n", "b'\\xd9\\xa1'"),
    ])
    def test_only_ascii_digit_tokens(self, tmp_path, text, token):
        p = tmp_path / "i.pgm"
        p.write_bytes(text.encode())
        with pytest.raises(DataError, match="non-integer") as err:
            load_pgm(p)
        assert token in str(err.value)

    def test_raster_comments_and_leading_zeros(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_text("P2\n3 1\n0255 # max\n0 # dark\n00000000000000000000255\t017#\n")
        assert load_pgm(p).pixels.tolist() == [[0.0, 1.0, 17 / 255]]

    def test_long_raster_value_exceeds_maxval(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_text("P2\n2 1\n255\n1 " + "9" * 400 + "\n")
        with pytest.raises(DataError, match="exceeds maxval"):
            load_pgm(p)

    def test_comment_text_is_never_a_token(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P2\n# 4 4 255\n")
        with pytest.raises(DataError, match="malformed header"):
            load_pgm(p)

    def test_long_header_comment_loads_fast(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P2\n# " + b"x" * (4 << 20) + b"\n2 1\n255\n0 255\n")
        start = time.perf_counter()
        assert load_pgm(p).pixels.tolist() == [[0.0, 1.0]]
        assert time.perf_counter() - start < 0.5

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_text("P2\n2 2\n255\n0 255 255\n")
        with pytest.raises(DataError, match="truncated"):
            load_pgm(p)


class TestImageBridge:
    def test_pixel_center_coordinates(self):
        img = ImageGrid(pixels=[[0.0, 0.5], [1.0, 0.25]])
        ds = image_to_dataset(img)
        assert ds.features[0].tolist() == [0.25, 0.25, 0.75, 0.75]
        assert ds.features[1].tolist() == [0.25, 0.75, 0.25, 0.75]
        assert ds.targets.tolist() == [0.0, 0.5, 1.0, 0.25]

    def test_round_trip_and_clamp(self):
        img = make_phantom(8, 6)
        ds = image_to_dataset(img)
        back = dataset_to_image(ds.targets, 8, 6)
        assert np.array_equal(back.pixels, img.pixels)
        clipped = dataset_to_image(np.array([-1.0] * 48), 8, 6)
        assert clipped.pixels.min() == 0.0

    def test_phantom_is_valid_and_deterministic(self):
        a, b = make_phantom(), make_phantom()
        assert np.array_equal(a.pixels, b.pixels)
        assert 0.0 <= a.pixels.min() and a.pixels.max() <= 1.0


class TestGenerators:
    def test_powell_values(self):
        assert powell([[0.0, 0.0, 0.0, 0.0]])[0] == 0.0
        # (1+10)^2 + 5*0 + (1-2)^4 + 10*0 = 122
        assert powell([[1.0, 1.0, 1.0, 1.0]])[0] == 122.0

    def test_powell_needs_d_multiple_of_four(self):
        with pytest.raises(ConfigError):
            powell([[1.0, 2.0, 3.0]])

    def test_asbp_formula(self):
        # f(0.5, -0.5) = 0.5 + |-0.5| = 1.0, checked through the generator
        ds = gen_synthetic(AsbpSpec(n=50, d=3), seed=7)
        X = ds.features.T
        expect = X[:, :-1].sum(axis=1) + np.abs(X[:, -1])
        np.testing.assert_array_equal(ds.targets, expect)
        assert 0.5 + abs(-0.5) == 1.0

    def test_piecewise_signal_branches(self):
        x = np.array([0.1, 0.5, 0.9])
        out = piecewise_signal(x)
        assert out[0] == np.sin(0.1)
        assert out[1] == -1.0
        assert out[2] == 0.0

    def test_same_seed_same_dataset(self):
        for spec in (SineSpec(n=40, p=3), PureNoiseSpec(n=40, law="t", df=1.0),
                     PiecewiseSpec(n=40), PowellSpec(n=40, d=4, noise_sigma=0.5)):
            a = gen_synthetic(spec, seed=123)
            b = gen_synthetic(spec, seed=123)
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.targets, b.targets)
            c = gen_synthetic(spec, seed=124)
            assert not np.array_equal(a.targets, c.targets)

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            gen_synthetic(PowellSpec(n=10, d=6), seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(PureNoiseSpec(n=10, law="laplace"), seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(SineSpec(n=0, p=1), seed=0)

    def test_additive_tv_is_exact(self):
        spec = AdditiveTVSpec(n=10, knots=((0.0, 0.5, 1.0), (0.0, 1.0)),
                              values=((0.0, 1.0, 0.0), (2.0, -1.0)), noise_sigma=0.0)
        assert spec.tv == 2.0 + 3.0
        ds = gen_synthetic(spec, seed=5)
        np.testing.assert_allclose(ds.targets, spec.truth(ds.features.T), rtol=0, atol=0)

    def test_additive_tv_random_spec_reproducible(self):
        a = AdditiveTVSpec.random(d=2, seed=9)
        b = AdditiveTVSpec.random(d=2, seed=9)
        assert a == b
        assert a.knots[0][0] == 0.0 and a.knots[0][-1] == 1.0


class TestFeatureNames:
    def test_load_csv_records_stripped_names(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(" b ,y, a\n1,2,3\n4,5,6\n")
        ds = load_csv(p, "y")
        assert ds.feature_names == ("b", "a")
        assert ds.subset([1, 0]).feature_names == ("b", "a")

    @pytest.mark.parametrize("header", ["a,a,y", "a,,y", " a ,a,y"])
    def test_unusable_names_are_not_recorded(self, tmp_path, header):
        p = tmp_path / "d.csv"
        p.write_text(f"{header}\n1,2,3\n")
        assert load_csv(p, "y").feature_names is None

    @pytest.mark.parametrize("names", [("a",), ("a", "a"), ("a", ""), ("a", 2), "ab"])
    def test_dataset_rejects_bad_names(self, names):
        with pytest.raises(DataError):
            Dataset(features=[[1.0], [2.0]], targets=[0.0], task=REGRESSION,
                    feature_names=names)

    def test_dataset_needs_a_feature(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y\n1\n2\n")
        with pytest.raises(DataError, match="at least one feature"):
            load_csv(p, "y")

    def test_feature_matrix_selects_columns(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("u, v ,w\n1,2,3\n4,5,6\n")
        assert load_feature_matrix(p, ["w", "u"]).tolist() == [[3.0, 1.0], [6.0, 4.0]]
        assert load_feature_matrix(p, ["v"], target="u").tolist() == [[2.0, 1.0], [5.0, 4.0]]
        assert load_feature_matrix(p, None, 1).tolist() == [[1.0, 3.0, 2.0], [4.0, 6.0, 5.0]]
        with pytest.raises(DataError, match="no column named 'z'"):
            load_feature_matrix(p, ["u", "z"])
        p.write_text("u,u,w\n1,2,3\n")
        with pytest.raises(DataError, match="appears 2 times"):
            load_feature_matrix(p, ["u"])

    def test_unreadable_text(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"x,y\n\xff,1\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_csv(p, "y")

import math

import numpy as np
import pytest

from minimaxsplit import (
    ConfigError,
    ImageGrid,
    MetricReport,
    make_phantom,
    regression_metrics,
    ssim,
)

from minimaxsplit.metrics import _reference

from conftest import naive_ssim, window_product_ssim


class TestRegressionMetrics:
    def test_hand_example(self):
        rep = regression_metrics([0.0, 2.0], [1.0, 1.0])
        assert rep.mse == 1.0 and rep.rmse == 1.0 and rep.mae == 1.0
        assert rep.r2 == 0.0  # Var(y) = 1, so the fit explains nothing

    def test_perfect_fit(self):
        rep = regression_metrics([1.0, 2, 3], [1.0, 2, 3])
        assert rep.mse == 0.0 and rep.rmse == 0.0 and rep.mae == 0.0
        assert rep.r2 == 1.0

    def test_constant_target_has_no_r2(self):
        rep = regression_metrics([3.0, 3, 3], [2.0, 3, 4])
        assert rep.r2 is None
        assert rep.mse == pytest.approx(2.0 / 3.0)

    def test_as_dict_keeps_nulls(self):
        rep = regression_metrics([3.0, 3.0], [3.0, 3.0])
        d = rep.as_dict()
        assert d["r2"] is None and d["ssim"] is None
        assert set(d) == {"mse", "rmse", "mae", "r2", "ssim"}

    def test_rmse_mae_relationship(self, rng):
        y = rng.normal(size=300)
        yhat = y + rng.normal(size=300)
        rep = regression_metrics(y, yhat)
        assert rep.rmse == pytest.approx(math.sqrt(rep.mse), abs=1e-15)
        assert rep.mae <= rep.rmse + 1e-12  # Jensen

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            regression_metrics([1.0], [1.0, 2.0])
        with pytest.raises(ConfigError):
            regression_metrics([], [])


class TestSsim:
    def test_identical_images_score_exactly_one(self, rng):
        img = rng.random((24, 24))
        assert ssim(img, img) == 1.0
        phantom = make_phantom()
        assert ssim(phantom, phantom) == 1.0

    def test_matches_sliding_reference(self, rng):
        a = rng.random((16, 16))
        b = np.clip(a + 0.2 * rng.normal(size=(16, 16)), 0.0, 1.0)
        assert ssim(a, b) == pytest.approx(naive_ssim(a, b), abs=1e-10)

    @pytest.mark.parametrize("shape, window, sigma", [
        ((64, 64), 11, 1.5), ((16, 23), 11, 1.5), ((9, 9), 5, 1.0), ((11, 11), 11, 1.5),
        ((7, 30), 1, 0.7)])
    def test_bitwise_equal_to_window_products(self, rng, shape, window, sigma):
        """Window moments of product images are the floats that the
        products of the 4-D window views gave, in the same layout."""
        for scale in (1.0, 1e-3, 255.0):
            a = scale * rng.random(shape)
            b = np.clip(a + 0.2 * scale * rng.normal(size=shape), 0.0, None)
            for x, y in ((a, b), (b, a), (a, a)):
                got = ssim(x, y, window=window, sigma=sigma)
                assert got == window_product_ssim(x, y, window=window, sigma=sigma)

    def test_symmetry(self, rng):
        a = rng.random((14, 14))
        b = rng.random((14, 14))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_noise_hurts_monotonically(self, rng):
        base = make_phantom()
        pix = base.pixels
        small = np.clip(pix + 0.05 * rng.normal(size=pix.shape), 0, 1)
        large = np.clip(pix + 0.40 * rng.normal(size=pix.shape), 0, 1)
        assert 1.0 > ssim(base, small) > ssim(base, large)

    def test_accepts_image_grids(self, rng):
        pix = rng.random((12, 12))
        assert ssim(ImageGrid(pix), ImageGrid(pix)) == 1.0
        assert ssim(ImageGrid(pix), pix) == 1.0

    def test_window_options(self, rng):
        a = rng.random((9, 9))
        b = rng.random((9, 9))
        got = ssim(a, b, window=5, sigma=1.0)
        want = naive_ssim(a, b, window=5, sigma=1.0)
        assert got == pytest.approx(want, abs=1e-10)

    def test_reference_moments_give_the_same_float(self, rng):
        """A reference computed once scores every image exactly as the
        plain image does; at another window or sigma its own moments are
        recomputed, not reused."""
        clean = make_phantom()
        ref = _reference(clean.pixels)
        for sigma in (0.0, 0.05, 0.4):
            noisy = clean.pixels + sigma * rng.normal(size=clean.pixels.shape)
            assert ssim(ref, noisy) == ssim(clean.pixels, noisy)
            assert ssim(ref, noisy, window=5, sigma=1.0) == \
                ssim(clean.pixels, noisy, window=5, sigma=1.0)
        with pytest.raises(ConfigError, match="smaller than"):
            _reference(rng.random((8, 8)))

    def test_shape_errors(self, rng):
        with pytest.raises(ConfigError):
            ssim(rng.random((12, 12)), rng.random((12, 13)))
        with pytest.raises(ConfigError):
            ssim(rng.random((8, 8)), rng.random((8, 8)))  # smaller than window
        with pytest.raises(ConfigError):
            ssim(rng.random((12, 12)), rng.random((12, 12)), window=0)

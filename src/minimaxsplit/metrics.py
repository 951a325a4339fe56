"""Regression metrics and windowed structural similarity.

All array metrics divide by the plain count. r2 is literally
1 - mse / Var(y) with the population variance of the reference values, and
is undefined (None) when the reference is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import ImageGrid
from .errors import ConfigError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass(frozen=True)
class MetricReport:
    mse: float
    rmse: float
    mae: float
    r2: Optional[float]
    ssim: Optional[float] = None

    def as_dict(self) -> dict:
        """Flat JSON-ready mapping; undefined entries become null."""
        return {"mse": self.mse, "rmse": self.rmse, "mae": self.mae,
                "r2": self.r2, "ssim": self.ssim}


def regression_metrics(y, yhat) -> MetricReport:
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.size == 0 or y.size != yhat.size:
        raise ConfigError(f"need equal nonzero lengths, got {y.size} and {yhat.size}")
    err = y - yhat
    mse = float(np.mean(err * err))
    var = float(np.mean((y - np.mean(y)) ** 2))
    return MetricReport(
        mse=mse,
        rmse=math.sqrt(mse),
        mae=float(np.mean(np.abs(err))),
        r2=None if var == 0.0 else 1.0 - mse / var,
    )


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    return w / w.sum()


def _window_mean(image: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The w-weighted mean of each fully interior window of `image`; a
    product image's windows are the products of the windows, float for
    float."""
    return np.tensordot(sliding_window_view(image, w.shape), w, axes=([2, 3], [0, 1]))


class _Reference(NamedTuple):
    """An image that `ssim` scores others against, with its own two window
    moments, the mean and E[a^2], at one window and sigma: a study that
    scores several images against one clean image computes them once
    (`_reference`) instead of once per `ssim` call."""

    pixels: np.ndarray
    window: int
    sigma: float
    mu: np.ndarray
    e_sq: np.ndarray


def _reference(a, window: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> _Reference:
    """`a` as the first argument of `ssim` at this window and sigma, its
    moments computed once; `ssim` gives the same float with it as with `a`."""
    A = _as_pixels(a)
    if min(A.shape) < window:
        raise ConfigError(f"image {A.shape} smaller than the {window}x{window} window")
    w = _gaussian_window(window, sigma)
    return _Reference(A, window, sigma, _window_mean(A, w), _window_mean(A * A, w))


def _as_pixels(img) -> np.ndarray:
    if isinstance(img, (ImageGrid, _Reference)):
        return img.pixels
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigError(f"expected a 2-D image, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("image contains non-finite values")
    return arr


def ssim(a, b, *, window: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA,
         k1: float = SSIM_K1, k2: float = SSIM_K2, data_range: float = 1.0) -> float:
    """Mean structural similarity over all fully-interior Gaussian windows.

    Window moments are Gaussian-weighted (weights renormalized to sum 1);
    variances are *not* clamped, so for identical inputs the numerator and
    denominator of every window are the same float expression and the result
    is exactly 1.0. `a` may be a `_Reference`, whose own moments are then
    read rather than recomputed.
    """
    if not isinstance(window, int) or window < 1:
        raise ConfigError(f"window must be a positive int, got {window!r}")
    if not sigma > 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma!r}")
    A = _as_pixels(a)
    B = _as_pixels(b)
    if A.shape != B.shape:
        raise ConfigError(f"image shapes differ: {A.shape} vs {B.shape}")
    if min(A.shape) < window:
        raise ConfigError(f"image {A.shape} smaller than the {window}x{window} window")
    w = _gaussian_window(window, sigma)
    if isinstance(a, _Reference) and (a.window, a.sigma) == (window, sigma):
        mu_a, e_aa = a.mu, a.e_sq
    else:
        mu_a, e_aa = _window_mean(A, w), _window_mean(A * A, w)
    mu_b = _window_mean(B, w)
    e_bb = _window_mean(B * B, w)
    e_ab = _window_mean(A * B, w)
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    per_window = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(np.mean(per_window))

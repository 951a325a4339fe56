"""Minimax-split partition trees and forests, with the martingale
approximation toolkit and experiment harness built on top of them."""

from .dataset import (
    CLASSIFICATION,
    REGRESSION,
    AdditiveTVSpec,
    AsbpSpec,
    Dataset,
    ImageGrid,
    NodeView,
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
    root_node,
    write_pgm,
)
from .errors import ConfigError, DataError, UnsplittableError
from .forest import (
    ForestConfig,
    ForestModel,
    forest_from_json,
    forest_to_json,
    load_model,
    model_to_json,
    train_forest,
)
from .martingale import (
    RULES,
    CellTree,
    DiscreteLaw,
    build_cell_tree,
    law_from_density,
    mse_curve,
    power_density,
    ramp_density,
    random_density,
    rate_bound,
    rate_witness,
    split_cell,
    uniform_grid,
    witness_increments,
)
from .metrics import MetricReport, regression_metrics, ssim
from .rng import derive_seed, stream
from .splitting import (
    SplitCriterion,
    SplitDecision,
    candidate_thresholds,
    entropy,
    minimax_search,
    scan_feature,
)
from .tree import (
    GrowConfig,
    TreeModel,
    best_split,
    canonical_json,
    grow,
    tree_from_json,
    tree_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveTVSpec", "AsbpSpec", "CLASSIFICATION", "CellTree", "ConfigError",
    "DataError", "Dataset", "DiscreteLaw", "ForestConfig", "ForestModel",
    "GrowConfig", "ImageGrid", "MetricReport", "NodeView", "PiecewiseSpec",
    "PowellSpec", "PureNoiseSpec", "REGRESSION", "RULES", "SineSpec",
    "SplitCriterion", "SplitDecision", "TreeModel", "UnsplittableError",
    "best_split", "build_cell_tree", "candidate_thresholds", "canonical_json",
    "dataset_to_image", "derive_seed", "entropy", "forest_from_json",
    "forest_to_json", "gen_synthetic", "grow", "image_to_dataset",
    "law_from_density", "load_csv", "load_feature_matrix", "load_model",
    "load_pgm", "make_phantom", "minimax_search", "model_to_json", "mse_curve",
    "powell", "power_density", "ramp_density", "random_density", "rate_bound",
    "rate_witness", "regression_metrics", "root_node", "scan_feature",
    "split_cell", "ssim", "stream", "train_forest", "tree_from_json",
    "tree_to_json", "uniform_grid", "witness_increments", "write_pgm",
]

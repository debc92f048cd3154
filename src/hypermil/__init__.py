"""Hyperbolic semantic-hierarchy learning on bag-structured features.

Feature bags (patches grouped into regions grouped into slides; each bag
holds its patches in one contiguous block with its region layout, fixed
when it is made) are aggregated with gated attention, lifted onto the
Lorentz model of hyperbolic space, aligned with per-class text anchors
through an exterior-angle contrastive objective, and regularized so that
broader concepts sit inside the entailment cones of finer ones. Classification
is a softmax over negative slide-to-anchor geodesic distances.

Everything runs on a small reverse-mode autodiff engine over numpy
arrays.
"""

from . import autodiff, backend, geometry
from .data import (
    Bundle,
    FeatureBag,
    SyntheticSpec,
    generate,
    make_splits,
    read_bundle,
    write_bundle,
)
from .errors import (
    BadMagicError,
    ConfigError,
    EmptyBagError,
    FormatError,
    GeometryError,
    HypermilError,
    MetricError,
    NumericalError,
    PayloadLengthError,
    ShapeError,
    SplitError,
    TrainingError,
    TruncatedPayloadError,
    VersionError,
)
from .evaluation import (
    MetricReport,
    ablate,
    auc,
    evaluate,
    export_embeddings,
    f1,
    mean_origin_distances,
    predict,
    run_protocol,
)
from .geometry import GeometryConfig, Points
from .losses import LossConfig, cls_loss, total_loss
from .model import (
    HierarchyLevel,
    ModelDims,
    ModelParams,
    embed_slide,
    embed_text,
    init_params,
    load_checkpoint,
    params_from_checkpoint,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    TrainResult,
    gradient_check_suite,
    load_train_config,
    train,
    train_config_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "Bundle",
    "ConfigError",
    "EmptyBagError",
    "FeatureBag",
    "FormatError",
    "GeometryConfig",
    "GeometryError",
    "HierarchyLevel",
    "HypermilError",
    "LossConfig",
    "MetricError",
    "MetricReport",
    "ModelDims",
    "ModelParams",
    "NumericalError",
    "PayloadLengthError",
    "Points",
    "ShapeError",
    "SplitError",
    "SyntheticSpec",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "TruncatedPayloadError",
    "VersionError",
    "ablate",
    "auc",
    "autodiff",
    "backend",
    "cls_loss",
    "embed_slide",
    "embed_text",
    "evaluate",
    "export_embeddings",
    "f1",
    "generate",
    "geometry",
    "gradient_check_suite",
    "init_params",
    "load_checkpoint",
    "load_train_config",
    "make_splits",
    "mean_origin_distances",
    "params_from_checkpoint",
    "predict",
    "read_bundle",
    "run_protocol",
    "save_checkpoint",
    "total_loss",
    "train",
    "train_config_from_dict",
    "write_bundle",
]

"""Classifier training regularised by a generative model over activations.

Subpackages: ``autodiff`` (reverse-mode AD), ``optim`` (Adam, clipping),
``nets`` (recording classifiers), ``masks`` (mask priors, splice), ``dgm``
(the activation generative model), ``train`` (joint trainer and baselines),
``calibrate`` (metrics, MC prediction, ensembling), ``data`` (loaders),
``config``/``cli`` (experiment harness).
"""

import os as _os
import sys as _sys

# The variables that cap BLAS threads. The package caps nothing on import:
# BLAS_CAPPED_AT_LOAD only records whether numpy, which loads below, loads
# under a one-thread cap, as --deterministic asks.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_CAPPED_AT_LOAD = "numpy" not in _sys.modules and all(
    _os.environ.get(_var) == "1" for _var in THREAD_ENV_VARS[:3])

from .autodiff import (  # noqa: E402
    NumericsError,
    PRIMITIVES,
    ShapeError,
    Tensor,
    no_grad,
    stop_gradient,
)
from .optim import Adam, clip_gradients, global_norm  # noqa: E402
from .nets import (  # noqa: E402
    ActivationRecord,
    BatchNorm,
    ClassifierSpec,
    RecordLayout,
    build_classifier,
    dropout_mask_apply,
)
from .masks import Mask, MASK_MODES, empty_mask, sample_mask, splice  # noqa: E402
from .dgm import (  # noqa: E402
    ActivationDGM,
    DGMConfig,
    DiagonalGaussian,
    HyperpriorConfig,
    RunningStandardizer,
    gaussian_loglik_masked,
    hyperprior_penalty,
    kl_diag,
    reparam_sample,
)
from .train import (  # noqa: E402
    TrainConfig,
    TrainLog,
    TrainedBundle,
    augment_data,
    cross_entropy,
    l2_penalty,
    pilot_step,
    train,
)
from .calibrate import (  # noqa: E402
    CalibrationReport,
    EvalConfig,
    bin_reliability,
    ece,
    ensemble_predict,
    entropy_histogram,
    evaluate,
    mc_predict,
    nll,
)
from .data import Dataset, load_cifar10, load_raw_tensor, save_raw_tensor, synth_blobs  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ActivationDGM", "ActivationRecord", "Adam", "BatchNorm", "CalibrationReport",
    "ClassifierSpec", "DGMConfig", "Dataset", "DiagonalGaussian", "EvalConfig",
    "HyperpriorConfig", "MASK_MODES", "Mask", "NumericsError", "PRIMITIVES",
    "RecordLayout", "RunningStandardizer", "ShapeError", "Tensor", "TrainConfig",
    "TrainLog", "TrainedBundle", "augment_data", "bin_reliability", "build_classifier",
    "clip_gradients", "cross_entropy", "dropout_mask_apply", "ece", "empty_mask",
    "ensemble_predict", "entropy_histogram", "evaluate", "gaussian_loglik_masked",
    "global_norm", "hyperprior_penalty", "kl_diag", "l2_penalty", "load_cifar10",
    "load_raw_tensor", "mc_predict", "nll", "no_grad", "pilot_step", "reparam_sample",
    "sample_mask", "save_raw_tensor", "splice", "stop_gradient", "synth_blobs", "train",
]

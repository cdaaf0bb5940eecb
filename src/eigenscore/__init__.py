"""Spectral out-of-distribution scores for denoising models.

The package estimates the leading eigenvalues of a denoiser's posterior
covariance without ever forming a Jacobian, turns them into calibrated
per-sample scores, and ships exact Gaussian-mixture oracles plus a
verification suite for every identity the estimator relies on.
"""

from .errors import EigenscoreError
from .evaluate import RocResult, auroc
from .gmm import GaussianMixture, PosteriorStats, kl_gaussians
from .linalg import qr_orthonormalize, sym_eig
from .mlp import MlpDenoiser, TrainConfig
from .pipeline import (
    Calibration,
    EigenFeature,
    FeatureConfig,
    ScoreRecord,
    eigen_feature,
    eigen_score,
    extract_features,
    fit_calibration,
)
from .rng import RngStream, gaussian_vec
from .schedule import NoiseSchedule, build_schedule, default_timesteps, sigma_at
from .spectral import (
    SpectralConfig,
    SpectralResult,
    analytic_spectrum,
    exact_spectrum,
    subspace_iteration,
)
from .verify import VerifyReport, run_all

__version__ = "0.1.0"

__all__ = [
    "EigenscoreError",
    "GaussianMixture",
    "PosteriorStats",
    "kl_gaussians",
    "qr_orthonormalize",
    "sym_eig",
    "RngStream",
    "gaussian_vec",
    "NoiseSchedule",
    "build_schedule",
    "default_timesteps",
    "sigma_at",
    "SpectralConfig",
    "SpectralResult",
    "subspace_iteration",
    "exact_spectrum",
    "analytic_spectrum",
    "MlpDenoiser",
    "TrainConfig",
    "FeatureConfig",
    "EigenFeature",
    "Calibration",
    "ScoreRecord",
    "eigen_feature",
    "extract_features",
    "fit_calibration",
    "eigen_score",
    "RocResult",
    "auroc",
    "VerifyReport",
    "run_all",
    "__version__",
]

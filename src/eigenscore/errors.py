"""Exception types shared across the package."""


class EigenscoreError(Exception):
    """Base class for all errors raised by this package."""


class DimMismatchError(EigenscoreError):
    """Operand dimensions are incompatible."""


class NotSquareError(EigenscoreError):
    """A square matrix was required."""


class NonFiniteError(EigenscoreError):
    """An input or intermediate value is NaN or infinite."""


class BadRangeError(EigenscoreError):
    """A schedule or config parameter is outside its valid range."""


class IndexOutOfRangeError(EigenscoreError):
    """A timestep index is outside the schedule."""


class SingularCovarianceError(EigenscoreError):
    """A covariance matrix is singular where a density is needed."""


class NotSingleGaussianError(EigenscoreError):
    """A single-component Gaussian was required."""


class NotPSDError(EigenscoreError):
    """A matrix that must be positive semi-definite is not."""


class EmptyDatasetError(EigenscoreError):
    """A dataset with at least one sample was required."""


class DivergedLossError(EigenscoreError):
    """Training loss became NaN or infinite."""


class NonFiniteParametersError(EigenscoreError):
    """Model parameters are NaN or infinite."""


class DimTooLargeError(EigenscoreError):
    """Dense-oracle dimension guard tripped."""


class NonFiniteDenoiserOutputError(EigenscoreError):
    """A denoiser evaluation returned NaN or infinite values."""


class TooFewSamplesError(EigenscoreError):
    """More samples are required for calibration."""


class LayoutMismatchError(EigenscoreError):
    """Feature coordinates do not match the calibration layout."""


class TooFewTimestepsError(EigenscoreError):
    """At least two timesteps are required for a finite difference in t."""


class AnalyticModelRequiredError(EigenscoreError):
    """This operation needs an analytic model, not a learned one."""


class EmptyInputError(EigenscoreError):
    """An empty score list was passed where scores are required."""


class ConfigError(EigenscoreError):
    """A run config failed validation."""


class CheckpointFormatError(EigenscoreError):
    """A checkpoint file is malformed or has an unsupported version."""


class TensorFormatError(EigenscoreError):
    """A tensor file is malformed or has an unsupported version."""

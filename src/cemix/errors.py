"""Exception types shared across the package."""


class CemixError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(CemixError):
    """Cholesky factorization hit a nonpositive pivot."""


class NoBracket(CemixError):
    """Root bracket endpoints do not straddle a sign change."""


class DimensionMismatch(CemixError):
    """Vector/parameter dimensions disagree."""


class DegenerateUpdate(CemixError):
    """All payoff-weighted mass vanished; the update is undefined."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class StagnantRarity(CemixError):
    """Rarity parameters failed to reach 1 within the stage budget."""


class ApproxUnavailable(CemixError):
    """Model has no analytical initialization map."""


class EmbeddingUnavailable(ApproxUnavailable):
    """Model has no rarity embedding; like ApproxUnavailable, the model
    lacks the map an initializer needs."""


class UnequalSampleSize(CemixError):
    """Variance ratio requires reports with equal sample counts."""


class ConfigError(CemixError):
    """Experiment configuration is invalid."""

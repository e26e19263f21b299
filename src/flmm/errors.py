"""Exception hierarchy shared across the package."""


class FlmmError(Exception):
    """Base class for all package errors."""


class ShapeError(FlmmError):
    """Dimension mismatch between operands."""


class DegenerateInputError(FlmmError):
    """Input that normalizes to zero or is otherwise unusable."""


class VocabularyError(FlmmError):
    """Token id outside the model vocabulary."""


class BatchError(FlmmError):
    """Batch too small or empty for the requested operation."""


class NumericError(FlmmError):
    """Non-finite values where finite ones are required."""


class EmptyBankError(FlmmError):
    """Retrieval attempted over an empty caption bank."""


class IdentityError(FlmmError):
    """Mismatched identities (a forward pass or eval batch vs the model
    scoring it, an ASSIGN's frozen base vs the fetched one)."""


class StalenessError(FlmmError):
    """Updates from mixed or out-of-window base versions."""


class FutureVersionError(FlmmError):
    """Update claims a base version newer than the server's."""


class HistoryError(FlmmError):
    """Missing round-log or version-history entry."""


class PlanError(FlmmError):
    """Invalid aggregation plan (unknown block name, empty mask)."""


class FactorizationError(FlmmError):
    """Low-rank refactorization failed to converge."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class SpecError(FlmmError):
    """Invalid corpus or scenario specification."""


class TemplateGapError(FlmmError):
    """Object label with no caption template."""


class StarvationError(FlmmError):
    """A party's kept data shrank below the survival floor."""

    def __init__(self, message: str, party: str):
        super().__init__(message)
        self.party = party


class SizeError(FlmmError):
    """Problem too large for the exact method."""


class SamplingError(FlmmError):
    """Monte Carlo sampling produced no usable samples."""


class MaskingError(FlmmError):
    """Pairwise masks that cannot cancel: fewer than two clients, or a masked
    round closed with parties absent."""


class AuthError(FlmmError):
    """Bad or missing credential."""


class DuplicateError(FlmmError):
    """Second submission from one party in one round."""


class ValidationError(FlmmError):
    """Malformed client update (shape or NaN)."""


class RangeError(FlmmError):
    """Parameter outside its valid range."""


class ProtocolError(FlmmError):
    """Malformed wire frame."""


class TransportError(FlmmError):
    """Connection failed after retries."""


class ConfigError(FlmmError):
    """Invalid scenario configuration."""


class CheckpointError(FlmmError):
    """Corrupt or unreadable checkpoint bytes."""

"""Exception types raised by the quantfactor package."""


class QuantfactorError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QuantfactorError):
    """Array arguments have inconsistent shapes."""


class LengthMismatch(QuantfactorError):
    """Vector arguments have different lengths."""


class DegenerateColumn(QuantfactorError):
    """A covariate column is identically zero, so its penalty weight would vanish."""


class NonFiniteInput(QuantfactorError):
    """An input array contains NaN or infinite entries."""


class SvdFailure(QuantfactorError):
    """The singular value decomposition routine did not converge."""


class NonFiniteIterate(QuantfactorError):
    """An ADMM iterate became non-finite; the penalty parameter is likely misconfigured."""


class RankTooLarge(QuantfactorError):
    """A requested decomposition rank exceeds min(n, T)."""


class AllZeroSpectrum(QuantfactorError):
    """Variance shares are undefined for an all-zero spectrum."""


class AllFitsFailed(QuantfactorError):
    """No point of the tuning grid produced a converged fit."""


class PanelFormatError(QuantfactorError):
    """Base class for panel CSV ingestion errors."""


class EmptyFile(PanelFormatError):
    """The panel file contains no data rows."""


class ParseError(PanelFormatError):
    """A panel or matrix file could not be parsed: header, cell, row width or encoding."""


class DuplicateCell(PanelFormatError):
    """A (unit, period) pair appears more than once."""


class UnbalancedPanel(PanelFormatError):
    """Some unit is missing one or more periods."""

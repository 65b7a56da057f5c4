"""Exception types shared across the package."""


class SusyQMError(Exception):
    """Base class for all errors raised by susyqm."""


class GridError(SusyQMError, ValueError):
    """Invalid grid construction (domain order, too few points)."""


class GridMismatchError(SusyQMError, ValueError):
    """Two grid functions do not live on the same grid."""


class ZeroNormError(SusyQMError, ValueError):
    """A function is numerically zero where a nonzero one is required."""


class NormOverflowError(SusyQMError, ValueError):
    """A function's L2 norm, or the inner product of two, is too large for a float."""


class EvaluationError(SusyQMError, ValueError):
    """A superpotential or potential could not be evaluated finitely."""


class ExpressionError(SusyQMError, ValueError):
    """A superpotential expression string failed to parse or validate."""


class NoBoundStateError(SusyQMError, RuntimeError):
    """The boundary-decay test rejected every candidate bound state."""


class ConvergenceError(SusyQMError, RuntimeError):
    """The eigensolver backend failed to converge."""


class NodePresentError(SusyQMError, ValueError):
    """A supposed ground state has interior nodes."""


class ChainConstructionError(SusyQMError, RuntimeError):
    """Ladder construction of an excited state failed its node check."""


class TransformError(SusyQMError, ValueError):
    """Invalid parameter-transform definition or application."""


class CatalogError(SusyQMError, ValueError):
    """Unknown catalog record or invalid use of one."""

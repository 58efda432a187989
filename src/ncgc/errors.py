"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ingestion/format problems
exit with 2, runtime/numeric failures with 3, bad flags with 4.
"""


class NcgcError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(NcgcError):
    """Operand dimensions are incompatible."""


class ParameterError(NcgcError):
    """An argument is outside its admissible range."""


class NumericError(NcgcError):
    """Non-finite values or numerical breakdown in a computation."""


class ContractError(NcgcError):
    """A caller violated an operation's precondition."""


class IngestionError(NcgcError):
    """A dataset file is missing or malformed; message names file and position."""


class SplitError(NcgcError):
    """Requested split sizes are infeasible for the label histogram."""

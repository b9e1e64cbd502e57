"""Exception types shared across the package."""


class KawareError(Exception):
    """Base class for all library errors."""


class OutOfDomain(KawareError):
    """A coordinate lies outside the grid bounds (non-periodic dimension)."""


class InvalidCell(KawareError):
    """A cell index does not refer to a cell of the grid."""


class UndeclaredName(KawareError):
    """A concept or role name is evaluated without an extent or a role."""


class LtlSyntaxError(KawareError):
    """Concrete-syntax error while parsing a temporal formula or concept.

    ``pos`` is the 0-based character offset into the input string.
    """

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ScenarioParseError(KawareError):
    """The scenario file is not syntactically valid."""


class ScenarioValidationError(KawareError):
    """The scenario file parsed but violates a semantic constraint.

    ``field`` names the offending entry.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class TraceFormatError(KawareError):
    """A trace file cannot be read or is not a trace the simulator writes."""


class CacheFormatError(KawareError):
    """An abstraction cache file cannot be read, is corrupt, or was built
    for another discretization."""


class InitialStateOutsideDomain(KawareError):
    """The initial concrete state is outside the state space."""


class InitialStateNotWinning(KawareError):
    """The initial abstract cell is outside the initial winning region."""

"""Exception types shared across the package.

User-facing errors (bad input, bad preconditions) derive from PhstabError.
InternalProofViolation is different in kind: it signals that one of the
certified inequalities or consistency checks the library maintains
internally failed, which is an implementation bug, never a property of the
input.
"""

from .rational import fraction_string


class PhstabError(Exception):
    """Base class for all errors raised by phstab."""


class InvalidComplex(PhstabError):
    """A simplex list is not a valid simplicial complex.

    Carries ``issues``, the full list of violations found (missing faces,
    duplicates, malformed entries), not just the first.
    """

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class InvalidFiltration(PhstabError):
    """A filtration function fails validation (monotonicity, size, finiteness)."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class DimensionMismatch(PhstabError):
    """Diagram points of different homology dimensions were compared."""


class InvalidMatching(PhstabError):
    """A matching is not a valid (per-dimension) bijection or diagonal matching."""


class CountMismatch(PhstabError):
    """Per-dimension point counts of two diagrams differ; they cannot come
    from filtrations of a shared complex."""

    def __init__(self, dim, n0, n1):
        self.dim = dim
        self.n0 = n0
        self.n1 = n1
        super().__init__(f"dimension {dim}: {n0} points vs {n1} points")


class DomainMismatch(PhstabError):
    """Two filtration functions do not live on the same complex."""


class TOutOfRange(PhstabError):
    """Interpolation parameter outside [0, 1]."""


class NonUniqueValues(PhstabError):
    """A filtration assigns the same value to two simplices where distinct
    values are required."""

    def __init__(self, function_id, pair, value):
        self.function_id = function_id
        self.pair = pair
        self.value = value
        super().__init__(
            f"{function_id}: simplices {pair[0]} and {pair[1]} share value "
            f"{fraction_string(value)}"
        )


class InternalProofViolation(PhstabError):
    """A certified inequality or consistency check failed while verifying
    stability (a bound, a zero-cost re-identification, a composition).

    This is a bug detector: it can only fire if the implementation is wrong,
    never because of the input.
    """


class ParseError(PhstabError):
    """An instance file could not be parsed.

    Carries ``problems``, a list of (line_number, message) pairs covering
    every problem found.
    """

    def __init__(self, problems, path=None):
        self.problems = tuple(problems)
        self.path = path
        where = f"{path}: " if path else ""
        super().__init__(
            where + "; ".join(f"line {ln}: {msg}" for ln, msg in self.problems)
        )

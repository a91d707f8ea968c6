"""Exception types shared across the package.

User-facing errors (bad input, bad preconditions) derive from PhstabError.
An error is its type and its message; only the validators' errors carry
more, the list of every problem found (``issues`` or ``problems``).
InternalProofViolation is different in kind: it signals that one of the
certified inequalities or consistency checks the library maintains
internally failed, which is an implementation bug, never a property of the
input.
"""


class PhstabError(Exception):
    """Base class for all errors raised by phstab."""


class ValidationError(PhstabError):
    """A validator's error.

    Carries ``issues``, every violation found as ``complexes.Issue``
    records, each at the position of its entry; the message joins their
    messages.
    """

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class InvalidComplex(ValidationError):
    """A simplex list is not a valid simplicial complex (malformed entries,
    duplicates, missing faces)."""


class InvalidFiltration(ValidationError):
    """A filtration function fails validation (values that are not a
    sequence, a wrong count, a value that is not a finite rational)."""


class InvalidMatching(PhstabError):
    """A matching is not a valid (per-dimension) bijection or diagonal matching."""


class CountMismatch(PhstabError):
    """Per-dimension point counts of two diagrams differ; they cannot come
    from filtrations of a shared complex."""


class DomainMismatch(PhstabError):
    """Two filtration functions do not live on the same complex."""


class ComplexTooLarge(PhstabError):
    """A generated complex would pass ``generate.MAX_SIMPLICES`` simplices,
    or its vertices ``generate.MAX_VERTICES``."""


class NonUniqueValues(PhstabError):
    """A filtration assigns the same value to two simplices where distinct
    values are required."""


class InternalProofViolation(PhstabError):
    """A certified inequality or consistency check failed while verifying
    stability (a bound, a zero-cost re-identification, a composition).

    This is a bug detector: it can only fire if the implementation is wrong,
    never because of the input.
    """


class ParseError(PhstabError):
    """An instance file could not be parsed.

    Carries ``problems``, a list of (line_number, message) pairs covering
    every problem found; the line number is None for a problem of the
    whole file, which is printed without one.
    """

    def __init__(self, problems, path=None):
        self.problems = tuple(problems)
        self.path = path
        where = f"{path}: " if path else ""
        super().__init__(
            where
            + "; ".join(
                msg if ln is None else f"line {ln}: {msg}"
                for ln, msg in self.problems
            )
        )

"""Finite simplicial complexes and piecewise-constant filtration functions.

A complex is an ordered list of simplices closed under codimension-1 faces.
A filtration function assigns one exact rational value per simplex and is
monotone: every face carries a value no larger than its cofaces, which is
precisely the condition that makes every sublevel set a subcomplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import DomainMismatch, InvalidComplex, InvalidFiltration
from .rational import fraction_string, to_fraction


@dataclass(frozen=True, order=True)
class Simplex:
    """A simplex given by its strictly increasing tuple of vertex ids."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        if not verts:
            raise ValueError("empty simplex")
        for v in verts:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"vertex id {v!r} is not an integer")
            if v < 0:
                raise ValueError(f"negative vertex id {v}")
        if len(set(verts)) != len(verts):
            raise ValueError(f"duplicate vertex in {verts}")
        object.__setattr__(self, "vertices", tuple(sorted(verts)))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def facets(self) -> tuple["Simplex", ...]:
        """All codimension-1 faces; empty for a vertex."""
        if self.dim == 0:
            return ()
        verts = self.vertices
        return tuple(
            Simplex(verts[:i] + verts[i + 1:]) for i in range(len(verts))
        )

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.vertices)


@dataclass(frozen=True)
class SimplicialComplex:
    """An ordered, duplicate-free, face-closed list of simplices."""

    simplices: tuple[Simplex, ...]

    def __post_init__(self):
        object.__setattr__(self, "simplices", tuple(self.simplices))

    def __len__(self) -> int:
        return len(self.simplices)

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Canonical vertex tuple -> position in the simplex list."""
        return {s.vertices: i for i, s in enumerate(self.simplices)}

    @cached_property
    def facet_positions(self) -> tuple[tuple[int, ...], ...]:
        """Positions of the codimension-1 faces of each simplex."""
        idx = self.index
        return tuple(
            tuple(idx[f.vertices] for f in s.facets()) for s in self.simplices
        )

    @property
    def dim(self) -> int:
        """Largest simplex dimension; -1 for the empty complex."""
        return max((s.dim for s in self.simplices), default=-1)


# ---------------------------------------------------------------------------
# Validation issues.  Each issue is a small frozen record; validators collect
# every violation before raising, so one run reports the whole problem.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MalformedSimplex:
    raw: object
    reason: str

    def __str__(self) -> str:
        return f"malformed simplex {self.raw!r}: {self.reason}"


@dataclass(frozen=True)
class DuplicateSimplex:
    simplex: Simplex

    def __str__(self) -> str:
        return f"duplicate simplex {{{self.simplex}}}"


@dataclass(frozen=True)
class MissingFace:
    simplex: Simplex
    face: Simplex

    def __str__(self) -> str:
        return f"simplex {{{self.simplex}}} is missing face {{{self.face}}}"


@dataclass(frozen=True)
class NonMonotone:
    face: Simplex
    coface: Simplex
    face_value: Fraction
    coface_value: Fraction

    def __str__(self) -> str:
        return (
            f"face {{{self.face}}} has value {fraction_string(self.face_value)}"
            f" > {fraction_string(self.coface_value)} on coface {{{self.coface}}}"
        )


@dataclass(frozen=True)
class NonFiniteValue:
    simplex: Simplex
    raw: object

    def __str__(self) -> str:
        return (
            f"simplex {{{self.simplex}}} has value {self.raw!r}, which is not "
            "a finite rational"
        )


@dataclass(frozen=True)
class NotASequence:
    raw: object

    def __str__(self) -> str:
        return f"values {self.raw!r} are not a sequence"


@dataclass(frozen=True)
class SizeMismatch:
    expected: int
    got: int

    def __str__(self) -> str:
        return f"expected {self.expected} values, got {self.got}"


def validate_complex(simplices: Iterable) -> SimplicialComplex:
    """Canonicalize a simplex list into a SimplicialComplex.

    Accepts Simplex instances or raw vertex iterables.  Either returns a
    valid complex preserving the input order, or raises InvalidComplex
    carrying every violation found: malformed entries, duplicates, and
    missing codimension-1 faces.
    """
    issues: list = []
    canon: list[Simplex] = []
    for raw in simplices:
        if isinstance(raw, Simplex):
            canon.append(raw)
            continue
        try:
            canon.append(Simplex(tuple(raw)))
        except (TypeError, ValueError) as exc:
            issues.append(MalformedSimplex(raw, str(exc)))
    seen: set[tuple[int, ...]] = set()
    for s in canon:
        if s.vertices in seen:
            issues.append(DuplicateSimplex(s))
        seen.add(s.vertices)
    for s in canon:
        for face in s.facets():
            if face.vertices not in seen:
                issues.append(MissingFace(s, face))
    if issues:
        raise InvalidComplex(issues)
    return SimplicialComplex(tuple(canon))


@dataclass(frozen=True)
class FiltrationFunction:
    """One exact rational value per simplex of a fixed complex.

    The constructor is the one place values are coerced and counted: a
    value ``to_fraction`` rejects (non-finite, non-numeric, a bool), a
    wrong count or values that are not a sequence at all (a ``str`` or
    ``bytes`` included) raise InvalidFiltration naming every problem.
    """

    complex: SimplicialComplex
    values: tuple[Fraction, ...]

    def __post_init__(self):
        K = self.complex
        try:
            if isinstance(self.values, (str, bytes)):
                raise TypeError  # one value per character is not meant
            raw = tuple(self.values)
        except TypeError:
            raise InvalidFiltration([NotASequence(self.values)]) from None
        if len(raw) != len(K):
            raise InvalidFiltration([SizeMismatch(len(K), len(raw))])
        try:
            values = tuple(to_fraction(v) for v in raw)
        except (TypeError, ValueError):
            bad = []
            for s, v in zip(K.simplices, raw):
                try:
                    to_fraction(v)
                except (TypeError, ValueError):
                    bad.append(NonFiniteValue(s, v))
            raise InvalidFiltration(bad) from None
        object.__setattr__(self, "values", values)


def validate_filtration(K: SimplicialComplex, f: FiltrationFunction) -> tuple:
    """Every (face, coface) pair on which ``f`` decreases, as NonMonotone
    issues; empty when ``f`` is monotone on K."""
    if f.complex is not K and f.complex != K:
        raise DomainMismatch("filtration is not defined on this complex")
    values = f.values
    return tuple(
        NonMonotone(K.simplices[i], s, values[i], values[j])
        for j, s in enumerate(K.simplices)
        for i in K.facet_positions[j]
        if values[i] > values[j]
    )


def find_duplicate_value(f: FiltrationFunction):
    """First pair of positions sharing a value, or None.

    Scans in position order so the report is deterministic.
    """
    first: dict[Fraction, int] = {}
    for j, v in enumerate(f.values):
        if v in first:
            return first[v], j
        first[v] = j
    return None

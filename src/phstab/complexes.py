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
from itertools import combinations
from math import lcm
from typing import Iterable

from .errors import DomainMismatch, InvalidComplex, InvalidFiltration
from .rational import fraction_string, to_fraction


@dataclass(frozen=True, order=True, init=False)
class Simplex:
    """A simplex given by its strictly increasing tuple of vertex ids."""

    vertices: tuple[int, ...]

    def __init__(self, vertices):
        verts = tuple(vertices)
        if not verts:
            raise ValueError("empty simplex")
        for v in verts:
            if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
                raise ValueError(f"vertex id {v!r} is not an integer")
            if v < 0:
                raise ValueError(f"negative vertex id {v}")
        if len(verts) > 1:
            if len(set(verts)) != len(verts):
                raise ValueError(f"duplicate vertex in {verts}")
            verts = tuple(sorted(verts))
        object.__setattr__(self, "vertices", verts)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.vertices)


def facets(vertices: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The vertex tuples of all codimension-1 faces; empty for a vertex."""
    if len(vertices) == 1:
        return ()
    return tuple(combinations(vertices, len(vertices) - 1))[::-1]


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
    def facet_positions(self) -> tuple[tuple, ...]:
        """Positions of the codimension-1 faces of each simplex, in the
        order of ``facets``; None for a face the list lacks, which only a
        complex that ``validate_complex`` has not accepted can have."""
        get = self.index.get
        return tuple(tuple(map(get, facets(s.vertices))) for s in self.simplices)

    @cached_property
    def tie_order(self) -> tuple[int, ...]:
        """Positions sorted by (dimension, vertex sequence): the canonical
        order's tie-break, the same for every function on the complex."""
        keys = [(len(s.vertices), s.vertices) for s in self.simplices]
        return tuple(sorted(range(len(keys)), key=keys.__getitem__))

    @cached_property
    def dims(self) -> tuple[int, ...]:
        """The dimension of each simplex, by position."""
        return tuple(len(s.vertices) - 1 for s in self.simplices)

    @property
    def dim(self) -> int:
        """Largest simplex dimension; -1 for the empty complex."""
        return max((s.dim for s in self.simplices), default=-1)


# ---------------------------------------------------------------------------
# Validation issues.  Validators collect every violation before raising, so
# one run reports the whole problem.  An issue is its message and, when one
# entry is at fault, that entry's position in the sequence validated.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Issue:
    message: str
    index: "int | None" = None

    def __str__(self) -> str:
        return self.message


def validate_complex(simplices: Iterable) -> SimplicialComplex:
    """Canonicalize a simplex list into a SimplicialComplex.

    Accepts Simplex instances or raw vertex iterables.  Either returns a
    valid complex preserving the input order, or raises InvalidComplex
    carrying every violation found: malformed entries, duplicates, and
    missing codimension-1 faces, each at the position of its entry.
    """
    issues: list = []
    canon: list = []  # (input position, Simplex)
    for pos, raw in enumerate(simplices):
        try:
            canon.append((pos, raw if isinstance(raw, Simplex) else Simplex(raw)))
        except (TypeError, ValueError) as exc:
            issues.append(Issue(f"malformed simplex {raw!r}: {exc}", pos))
    # The index holds each vertex tuple once, so it is short exactly on a
    # duplicate; closure reads the complex's face positions, one look-up each.
    K = SimplicialComplex(tuple(s for _, s in canon))
    seen: set[tuple[int, ...]] = set()
    for pos, s in canon if len(K.index) < len(K) else ():
        if s.vertices in seen:
            issues.append(Issue(f"duplicate simplex {{{s}}}", pos))
        seen.add(s.vertices)
    for (pos, s), found in zip(canon, K.facet_positions):
        if None in found:
            issues.extend(
                Issue(f"simplex {{{s}}} is missing face {{{Simplex(face)}}}", pos)
                for face, where in zip(facets(s.vertices), found)
                if where is None
            )
    if issues:
        raise InvalidComplex(issues)
    return K


class FiltrationFunction:
    """One exact rational value per simplex of a fixed complex.

    Value i is ``numerators[i] / scale``, ints over one positive scale;
    ``values``, the same as a tuple of Fractions, is built when first
    read.  ``over_scale`` takes the ints as they are: the parser passes
    both columns of a file over the lcm of every denominator in it.  The
    constructor takes values and is the one place they are coerced and
    counted: a value ``to_fraction`` rejects (non-finite, non-numeric, a
    bool), a wrong count or values that are not a sequence at all (a
    ``str`` or ``bytes`` included) raise InvalidFiltration naming every
    problem; its scale is then the least common denominator.  Two
    functions are equal when their complexes and values are.
    """

    def __init__(self, complex: SimplicialComplex, values):
        K = complex
        try:
            if isinstance(values, (str, bytes)):
                raise TypeError  # one value per character is not meant
            raw = tuple(values)
        except TypeError:
            raise InvalidFiltration(
                [Issue(f"values {values!r} are not a sequence")]
            ) from None
        if len(raw) != len(K):
            raise InvalidFiltration(
                [Issue(f"expected {len(K)} values, got {len(raw)}")]
            )
        coerced, bad = [], []
        for i, v in enumerate(raw):
            try:
                coerced.append(to_fraction(v))
            except (TypeError, ValueError):
                bad.append(Issue(
                    f"simplex {{{K.simplices[i]}}} has value {v!r}, which "
                    "is not a finite rational",
                    i,
                ))
        if bad:
            raise InvalidFiltration(bad)
        self.complex = K
        self.scale = scale = lcm(*(x.denominator for x in coerced))
        self.numerators = tuple(x.numerator * (scale // x.denominator) for x in coerced)

    @classmethod
    def over_scale(
        cls, complex: SimplicialComplex, numerators: tuple, scale: int
    ) -> "FiltrationFunction":
        """The function with values ``numerators[i] / scale``, ``scale`` > 0
        and one int per simplex; nothing is checked or copied."""
        f = cls.__new__(cls)
        f.complex, f.numerators, f.scale = complex, numerators, scale
        return f

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        scale = self.scale
        return tuple(Fraction(x, scale) for x in self.numerators)

    def __eq__(self, other):
        if not isinstance(other, FiltrationFunction):
            return NotImplemented
        return self.complex == other.complex and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.complex, self.values))

    def __repr__(self) -> str:
        return f"FiltrationFunction(complex={self.complex!r}, values={self.values!r})"


def common_scale(f0: FiltrationFunction, f1: FiltrationFunction) -> tuple:
    """(a, b, scale): the numerators of ``f0`` and ``f1`` over one shared
    scale.  Functions that share their scale, as the columns of one file
    do, keep their own numerators; otherwise both go over the lcm.
    Scaling by a positive constant keeps every sign of a difference and
    every ratio of differences, so two functions compare as ints."""
    s0, s1 = f0.scale, f1.scale
    if s0 == s1:
        return f0.numerators, f1.numerators, s0
    scale = lcm(s0, s1)
    m0, m1 = scale // s0, scale // s1
    return [x * m0 for x in f0.numerators], [y * m1 for y in f1.numerators], scale


def validate_filtration(K: SimplicialComplex, f: FiltrationFunction) -> tuple:
    """An Issue for every (face, coface) pair on which ``f`` decreases, at
    the coface's position; empty when ``f`` is monotone on K."""
    if f.complex is not K and f.complex != K:
        raise DomainMismatch("filtration is not defined on this complex")
    nums = f.numerators  # the Fraction values are read only for a message
    return tuple(
        Issue(
            f"face {{{K.simplices[i]}}} has value {fraction_string(f.values[i])}"
            f" > {fraction_string(f.values[j])} on coface {{{s}}}",
            j,
        )
        for j, s in enumerate(K.simplices)
        for i in K.facet_positions[j]
        if nums[i] > nums[j]
    )


def find_duplicate_value(f: FiltrationFunction):
    """First pair of positions sharing a value, or None.

    Scans in position order so the report is deterministic.
    """
    first: dict[int, int] = {}
    for j, v in enumerate(f.numerators):
        if v in first:
            return first[v], j
        first[v] = j
    return None

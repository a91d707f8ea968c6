"""The canonical total order of a filtration.

The persistence algorithm consumes one fixed linear order of the simplices,
given as a tuple of simplex positions, earliest first.  A valid order is
non-decreasing in the function values and places every face before its
cofaces; the canonical one breaks ties in value by dimension and then by
the lexicographic vertex sequence, which makes it deterministic.  It is
computed as one stable sort on ints: the function's values over its
scale (``FiltrationFunction.numerators``), run over the
complex's (dimension, vertices) order (``SimplicialComplex.tie_order``).
"""

from __future__ import annotations

from .complexes import (
    FiltrationFunction,
    SimplicialComplex,
    validate_filtration,
)
from .errors import InvalidFiltration


def total_order(K: SimplicialComplex, f: FiltrationFunction) -> tuple[int, ...]:
    """The canonical order: sort by (value, dimension, vertex sequence).

    Dimension before vertices keeps every prefix face-closed under ties;
    the lexicographic third key makes equal inputs give identical output.
    Sorting the int numerators is stable, so equal values keep the
    (dimension, vertices) order the sort starts from.
    """
    issues = validate_filtration(K, f)
    if issues:
        raise InvalidFiltration(issues)
    return tuple(sorted(K.tie_order, key=f.numerators.__getitem__))

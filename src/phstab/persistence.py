"""Persistence diagrams via boundary-matrix column reduction over GF(2).

The reduction is the plain left-to-right algorithm: while the lowest row of
a column collides with the pivot of an earlier column, add that column in
(symmetric difference of row sets).  Each resulting pivot (low(j), j) pairs
a birth simplex with a death simplex; columns that end up empty and never
serve as a pivot row are essential and get death +inf.  The pair list is a
deterministic function of the complex and the order alone; the function
values enter only when pairs are turned into diagram points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import FiltrationFunction, SimplicialComplex
from .ordering import total_order
from .rational import INF, format_value


@dataclass(frozen=True)
class PivotPair:
    """Birth/death simplex positions (in the complex list); death None when
    the class never dies."""

    birth: int
    death: "int | None"


@dataclass(frozen=True)
class DiagramPoint:
    dim: int
    birth: Fraction
    death: "Fraction | float"  # math.inf for essential classes
    pair: PivotPair

    @property
    def is_essential(self) -> bool:
        return self.death == INF

    def __str__(self) -> str:
        return f"({format_value(self.birth)}, {format_value(self.death)})"


@dataclass(frozen=True)
class Diagram:
    """Multiset of diagram points, listed by birth-simplex order position.

    That listing depends only on the order, not on the function values, so
    diagrams of two functions computed under one shared order line up
    point-by-point.
    """

    points: tuple[DiagramPoint, ...]

    def points_in_dim(self, dim: int) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.points) if p.dim == dim)


def pivot_pairs(K: SimplicialComplex, order: tuple) -> tuple[PivotPair, ...]:
    """Reduce the boundary matrix of (K, order) and return its pivot pairs.

    ``order`` lists simplex positions, earliest first.  Rows and columns
    are order positions: column j holds the order positions of the
    codimension-1 faces of the simplex ``order[j]``.  The list
    contains one PivotPair per diagram point, essentials with death None,
    in the order of the birth simplices, as one scan over the reduced
    columns finds them.  It depends on K and the order only, not on values.
    """
    pos = [0] * len(order)  # complex position -> order position
    for j, c in enumerate(order):
        pos[c] = j
    cols = [{pos[i] for i in K.facet_positions[c]} for c in order]
    owner: dict[int, int] = {}  # pivot row -> owning column
    for j, col in enumerate(cols):
        while col:
            low = max(col)
            k = owner.get(low)
            if k is None:
                owner[low] = j
                break
            col ^= cols[k]
    # A column ends up empty exactly when its simplex gives birth, the
    # pivot rows' own columns included (pairing lemma).
    return tuple(
        PivotPair(order[i], order[owner[i]] if i in owner else None)
        for i, col in enumerate(cols)
        if not col
    )


def diagram_from_pivots(
    K: SimplicialComplex, f: FiltrationFunction, pairs: tuple[PivotPair, ...]
) -> Diagram:
    """Evaluate a pair list against a function compatible with its order."""
    points = []
    for pv in pairs:
        birth = f.values[pv.birth]
        death = f.values[pv.death] if pv.death is not None else INF
        points.append(DiagramPoint(K.simplices[pv.birth].dim, birth, death, pv))
    return Diagram(tuple(points))


def diagram(K: SimplicialComplex, f: FiltrationFunction) -> Diagram:
    """Diagram of f under the canonical order, diagonal points included."""
    return diagram_from_pivots(K, f, pivot_pairs(K, total_order(K, f)))


def format_diagram(
    K: SimplicialComplex, diag: Diagram, dim: "int | None" = None
) -> str:
    """One point per line: dim birth death birth_simplex death_simplex.

    Sorted by (dim, birth, death, birth simplex); '-' marks a missing death
    simplex and 'inf' an infinite death.
    """
    rows = []
    for p in diag.points:
        if dim is not None and p.dim != dim:
            continue
        birth_s = K.simplices[p.pair.birth]
        death_s = K.simplices[p.pair.death] if p.pair.death is not None else None
        rows.append((p.dim, p.birth, p.death, birth_s.vertices, death_s))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    lines = []
    for d, b, dth, bs, ds in rows:
        lines.append(
            f"{d} {format_value(b)} {format_value(dth)} "
            f"{','.join(map(str, bs))} {ds if ds is not None else '-'}"
        )
    return "\n".join(lines)

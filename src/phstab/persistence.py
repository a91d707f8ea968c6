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

from .complexes import FiltrationFunction, SimplicialComplex, validate_filtration
from .ordering import TotalOrder, check_order_compatible, total_order
from .rational import INF, format_value


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse GF(2) boundary matrix; rows and columns are order positions."""

    order: TotalOrder
    columns: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.columns)


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

    order: TotalOrder
    points: tuple[DiagramPoint, ...]
    function_id: str = "f"

    def __len__(self) -> int:
        return len(self.points)

    def points_in_dim(self, dim: int) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.points) if p.dim == dim)

    def dims(self) -> tuple[int, ...]:
        return tuple(sorted({p.dim for p in self.points}))

    def counts_by_dim(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for p in self.points:
            counts[p.dim] = counts.get(p.dim, 0) + 1
        return counts

    def value_multiset(self) -> dict:
        """Multiset of (dim, birth, death) with multiplicities."""
        out: dict = {}
        for p in self.points:
            key = (p.dim, p.birth, p.death)
            out[key] = out.get(key, 0) + 1
        return out


def boundary_matrix(K: SimplicialComplex, order: TotalOrder) -> BoundaryMatrix:
    """Column j holds the order positions of the codim-1 faces of simplex j."""
    pos = order.position_of
    cols = tuple(
        frozenset(pos[i] for i in K.facet_positions[complex_pos])
        for complex_pos in order.permutation
    )
    return BoundaryMatrix(order, cols)


def reduce(M: BoundaryMatrix) -> tuple[PivotPair, ...]:
    """Reduce M and return its pivot pairs.

    The list contains one PivotPair per diagram point: paired simplices
    first, essentials with death None, all sorted by the order position of
    the birth simplex.
    """
    cols = [set(c) for c in M.columns]
    owner: dict[int, int] = {}  # pivot row -> owning column
    for j, col in enumerate(cols):
        while col:
            low = max(col)
            k = owner.get(low)
            if k is None:
                owner[low] = j
                break
            col ^= cols[k]
    perm = M.order.permutation
    births = []  # (birth order position, death order position or None)
    for low, j in owner.items():
        births.append((low, j))
    for i, col in enumerate(cols):
        if not col and i not in owner:
            births.append((i, None))
    births.sort(key=lambda t: t[0])
    return tuple(
        PivotPair(perm[b], perm[d] if d is not None else None) for b, d in births
    )


def pivot_pairs(K: SimplicialComplex, order: TotalOrder) -> tuple[PivotPair, ...]:
    """Pairs and essentials for (K, order); value-independent."""
    return reduce(boundary_matrix(K, order))


def diagram_from_pivots(
    K: SimplicialComplex,
    order: TotalOrder,
    f: FiltrationFunction,
    pairs: tuple[PivotPair, ...],
    function_id: str = "f",
) -> Diagram:
    """Evaluate a pair list against a function compatible with the order."""
    points = []
    for pv in pairs:
        birth = f.values[pv.birth]
        death = f.values[pv.death] if pv.death is not None else INF
        points.append(DiagramPoint(K.simplices[pv.birth].dim, birth, death, pv))
    return Diagram(order, tuple(points), function_id)


def diagram_with_order(
    K: SimplicialComplex,
    f: FiltrationFunction,
    order: TotalOrder,
    function_id: str = "f",
) -> Diagram:
    """Diagram of f under a caller-supplied compatible order.

    Needed wherever one order must serve several functions; raises
    IncompatibleOrder if the order is not valid for f.
    """
    validate_filtration(K, f).raise_if_invalid()
    check_order_compatible(K, f, order)
    return diagram_from_pivots(K, order, f, pivot_pairs(K, order), function_id)


def diagram(
    K: SimplicialComplex, f: FiltrationFunction, function_id: str = "f"
) -> Diagram:
    """Diagram of f under the canonical order, diagonal points included."""
    order = total_order(K, f)
    return diagram_from_pivots(K, order, f, pivot_pairs(K, order), function_id)


def format_diagram(diag: Diagram, dim: "int | None" = None) -> str:
    """One point per line: dim birth death birth_simplex death_simplex.

    Sorted by (dim, birth, death, birth simplex); '-' marks a missing death
    simplex and 'inf' an infinite death.
    """
    K = diag.order.complex
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

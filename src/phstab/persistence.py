"""Persistence diagrams via boundary-matrix column reduction over GF(2).

The reduction is the plain left-to-right algorithm: while the lowest row of
a column collides with the pivot of an earlier column, add that column in.
A column is an int used as a bitset over GF(2), bit r for row r, so adding
a column is one XOR and its lowest row is its highest set bit
(``bit_length() - 1``).  Each resulting pivot (low(j), j) pairs
a birth simplex with a death simplex; columns that end up empty and never
serve as a pivot row are essential and get death +inf.  The pair list is a
deterministic function of the complex and the order alone; the function
values enter only when pairs are turned into diagram points.

A ``Vineyard`` keeps the reduction R = D * V, with V the column operations
done, and carries it across a swap of two adjacent simplices with O(1)
bitset operations instead of reducing again: the transposition cases of
Cohen-Steiner, Edelsbrunner and Morozov, "Vines and Vineyards by Updating
Persistence in Linear Time" (SoCG 2006).  There is one reduction routine,
``_reduce``; it keeps V only for a vineyard, since a diagram needs only
the pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .complexes import FiltrationFunction, SimplicialComplex
from .ordering import total_order
from .rational import INF, format_value


class PivotPair(NamedTuple):
    """Birth/death simplex positions (in the complex list); death None when
    the class never dies.  A tuple, so it equals ``(birth, death)``."""

    birth: int
    death: "int | None"


@dataclass(frozen=True)
class DiagramPoint:
    dim: int
    birth: Fraction
    death: "Fraction | float"  # math.inf for essential classes
    pair: PivotPair

    def __str__(self) -> str:
        return f"({format_value(self.birth)}, {format_value(self.death)})"


class Diagram:
    """Multiset of diagram points, listed by birth-simplex order position.

    That listing depends only on the order, not on the function values, so
    diagrams of two functions computed under one shared order line up
    point-by-point.  A diagram is built from and held as ints over one
    positive ``scale``: point i has dimension ``dims[i]``, birth
    ``births[i] / scale`` and death ``deaths[i] / scale`` (None for an
    essential class), and its birth and death simplices are at positions
    ``birth_simplices[i]`` and ``death_simplices[i]`` of the complex (a
    death None again); nothing is checked.  ``pairs``, the
    PivotPairs of those positions, and ``points``, the DiagramPoints with
    Fraction values, are built when first read; two diagrams are equal
    when their points are, whatever their scales.
    """

    def __init__(
        self,
        dims: tuple,
        births: tuple,
        deaths: tuple,
        scale: int,
        birth_simplices: tuple,
        death_simplices: tuple,
    ):
        self.dims, self.births, self.deaths, self.scale = dims, births, deaths, scale
        self.birth_simplices, self.death_simplices = birth_simplices, death_simplices

    @cached_property
    def pairs(self) -> tuple[PivotPair, ...]:
        return tuple(map(PivotPair, self.birth_simplices, self.death_simplices))

    @cached_property
    def points(self) -> tuple[DiagramPoint, ...]:
        scale = self.scale
        return tuple(
            DiagramPoint(
                dim, Fraction(b, scale), INF if d is None else Fraction(d, scale), pv
            )
            for dim, b, d, pv in zip(self.dims, self.births, self.deaths, self.pairs)
        )

    @cached_property
    def doubled(self) -> list[tuple[int, int]]:
        """Each point as an int (birth, death) pair over ``2 * scale``, where
        half a lifetime is an int too; an essential point's death slot
        holds its birth.  Built once for all the matchings of a diagram."""
        return [
            (2 * b, 2 * (b if d is None else d)) for b, d in zip(self.births, self.deaths)
        ]

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"<Diagram points={self.points!r}>"


class Vineyard:
    """The reduction R = D * V of (K, order), kept across transpositions.

    Rows and columns are labelled by their position in the first order, so
    the first reduction is the bitset loop described above and no swap
    relabels a bitset; label x is the simplex ``simplex[x]``.  ``perm``
    lists the labels in the current order and ``pos`` is its inverse.
    ``R[x]`` is a bitset of row labels, ``V[x]`` one of column labels with
    R[x] the sum of the boundary columns in V[x].  Once labels leave their
    first order a column's low is no longer its highest bit, so it is kept:
    ``low[x]`` is the pivot row of column x (None when R[x] is empty, that
    is when x gives birth) and ``owner[r]`` the column whose pivot is row r.
    """

    def __init__(self, K: SimplicialComplex, order: tuple):
        n = len(order)
        self.R, self.V, self.low, self.owner = _reduce(K, order, keep_v=True)
        self.simplex = tuple(order)
        self.perm = list(range(n))
        self.pos = list(range(n))

    def births(self) -> list[int]:
        """The labels of the birth simplices, in the current order.  A
        simplex gives birth exactly when its column is empty, the pivot
        rows' own columns included (pairing lemma)."""
        low = self.low
        return [x for x in self.perm if low[x] is None]

    def pairs(self) -> tuple[PivotPair, ...]:
        """One PivotPair per diagram point, essentials with death None, in
        the current order of the birth simplices."""
        simplex, owner = self.simplex, self.owner
        return tuple(
            PivotPair(simplex[x], None if owner[x] is None else simplex[owner[x]])
            for x in self.births()
        )

    def transpose(self, i: int) -> None:
        """Swap the simplices at positions i and i + 1 and keep R = D * V
        reduced, V upper unitriangular in the new order.

        Neither simplex may be a face of the other.  With a = perm[i] and
        b = perm[i + 1], V must lose its entry at (a, b), since a now comes
        after b, and a column whose low is b and that holds row a would now
        have the low a.  Each case fixes both with at most two column
        additions; a pair that changes ("switches") contains a or b.
        """
        perm, pos, R, V, low, owner = (
            self.perm, self.pos, self.R, self.V, self.low, self.owner
        )
        a, b = perm[i], perm[i + 1]
        la, lb = low[a], low[b]
        a_in_vb = V[b] >> a & 1
        if la is None and lb is None:  # both give birth
            if a_in_vb:
                V[b] ^= V[a]
            k, l = owner[a], owner[b]
            if l is not None and R[l] >> a & 1:
                if k is None:  # a is essential: b's death passes to a
                    low[l], owner[a], owner[b] = a, l, None
                elif pos[k] < pos[l]:
                    R[l] ^= R[k]
                    V[l] ^= V[k]
                else:
                    R[k] ^= R[l]
                    V[k] ^= V[l]
                    low[k], low[l] = b, a
                    owner[a], owner[b] = l, k
        elif la is not None and lb is not None:  # both die
            if a_in_vb:
                R[b] ^= R[a]
                V[b] ^= V[a]
                if pos[la] > pos[lb]:
                    R[a] ^= R[b]
                    V[a] ^= V[b]
                    low[a], low[b] = lb, la
                    owner[la], owner[lb] = b, a
        elif lb is None:  # a dies, b gives birth
            if a_in_vb:
                R[b] ^= R[a]
                V[b] ^= V[a]
                R[a] ^= R[b]
                V[a] ^= V[b]
                l = owner[b]
                low[a], low[b], owner[la], owner[b] = None, la, b, None
                if l is not None:
                    low[l], owner[a] = a, l
        elif a_in_vb:  # a gives birth, b dies
            V[b] ^= V[a]
        perm[i], perm[i + 1] = b, a
        pos[a], pos[b] = i + 1, i

    def reverse(self, start: int, end: int) -> None:
        """Reverse ``perm[start:end]`` by adjacent transpositions, one per
        pair of its simplices, none of which may be a face of another."""
        for last in range(end - 1, start, -1):
            for i in range(start, last):
                self.transpose(i)


def _reduce(K: SimplicialComplex, order: tuple, keep_v: bool) -> tuple:
    """The reduction of (K, order) with rows and columns labelled by their
    position in ``order``: (R, V, low, owner) as a ``Vineyard`` holds them,
    V None unless ``keep_v``."""
    n = len(order)
    label = [0] * n  # complex position -> label
    for j, c in enumerate(order):
        label[c] = j
    facet_positions = K.facet_positions
    R = []
    for c in order:
        col = 0
        for i in facet_positions[c]:
            col |= 1 << label[i]
        R.append(col)
    V = [1 << j for j in range(n)] if keep_v else None
    low: list = [None] * n
    owner: list = [None] * n
    for j, col in enumerate(R):
        while col:
            r = col.bit_length() - 1
            k = owner[r]
            if k is None:
                owner[r], low[j] = j, r
                break
            col ^= R[k]
            if V:
                V[j] ^= V[k]
        R[j] = col
    return R, V, low, owner


def _pivots(K: SimplicialComplex, order: tuple) -> tuple[tuple, tuple]:
    """(birth simplices, death simplices) of (K, order), as complex
    positions in the order of the births, a death None for an essential
    class; reduced without V."""
    _, _, low, owner = _reduce(K, order, keep_v=False)
    born = [x for x, r in enumerate(low) if r is None]
    return (
        tuple(map(order.__getitem__, born)),
        tuple(None if owner[x] is None else order[owner[x]] for x in born),
    )


def pivot_pairs(K: SimplicialComplex, order: tuple) -> tuple[PivotPair, ...]:
    """Reduce the boundary matrix of (K, order) and return its pivot pairs.

    ``order`` lists simplex positions, earliest first.  The list contains
    one PivotPair per diagram point, essentials with death None, in the
    order of the birth simplices.  It depends on K and the order only, not
    on values.
    """
    return tuple(map(PivotPair, *_pivots(K, order)))


def _evaluate(
    K: SimplicialComplex, f: FiltrationFunction, birth_simplices, death_simplices
) -> Diagram:
    """The diagram of pivot positions under ``f``: its ints, over its scale."""
    nums = f.numerators
    return Diagram(
        tuple(map(K.dims.__getitem__, birth_simplices)),
        tuple(map(nums.__getitem__, birth_simplices)),
        tuple(None if d is None else nums[d] for d in death_simplices),
        f.scale,
        birth_simplices,
        death_simplices,
    )


def diagram_from_pivots(
    K: SimplicialComplex, f: FiltrationFunction, pairs: tuple[PivotPair, ...]
) -> Diagram:
    """Evaluate a pair list against a function compatible with its order:
    the births and deaths are ``f``'s ints, over its scale."""
    return _evaluate(
        K, f, tuple(pv.birth for pv in pairs), tuple(pv.death for pv in pairs)
    )


def diagram(K: SimplicialComplex, f: FiltrationFunction) -> Diagram:
    """Diagram of f under the canonical order, diagonal points included."""
    return _evaluate(K, f, *_pivots(K, total_order(K, f)))


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

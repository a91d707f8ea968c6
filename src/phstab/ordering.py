"""Total orders extending the partial order of a filtration.

The persistence algorithm consumes one fixed linear order of the simplices.
A valid order is non-decreasing in the function values and places every
face before its cofaces; ties in value are broken by dimension and then by
the lexicographic vertex sequence, which makes the order deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import (
    FiltrationFunction,
    SimplicialComplex,
    validate_filtration,
)
from .errors import DomainMismatch, IncompatibleOrder
from .rational import common_numerators, to_fraction


@dataclass(frozen=True)
class TotalOrder:
    """A permutation of simplex positions, earliest first."""

    complex: SimplicialComplex
    permutation: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "permutation", tuple(self.permutation))
        n = len(self.complex)
        if sorted(self.permutation) != list(range(n)):
            raise IncompatibleOrder(
                f"not a permutation of 0..{n - 1}: {self.permutation}"
            )

    def __len__(self) -> int:
        return len(self.permutation)

    @cached_property
    def position_of(self) -> tuple[int, ...]:
        """Inverse permutation: complex position -> order position."""
        inv = [0] * len(self.permutation)
        for order_pos, complex_pos in enumerate(self.permutation):
            inv[complex_pos] = order_pos
        return tuple(inv)


def total_order(K: SimplicialComplex, f: FiltrationFunction) -> TotalOrder:
    """The canonical order: sort by (value, dimension, vertex sequence).

    Dimension before vertices keeps every prefix face-closed under ties;
    the lexicographic third key makes equal inputs give identical output.
    """
    validate_filtration(K, f).raise_if_invalid()
    perm = sorted(
        range(len(K)),
        key=lambda i: (f.values[i], K.simplices[i].dim, K.simplices[i].vertices),
    )
    return TotalOrder(K, tuple(perm))


def check_order_compatible(
    K: SimplicialComplex, f: FiltrationFunction, order: TotalOrder
) -> None:
    """Raise IncompatibleOrder unless ``order`` is valid for (K, f).

    Valid means: values are non-decreasing along the permutation and every
    prefix is face-closed (all faces strictly precede their cofaces).
    """
    if order.complex is not K and order.complex != K:
        raise IncompatibleOrder("order was built for a different complex")
    perm = order.permutation
    for a, b in zip(perm, perm[1:]):
        if f.values[a] > f.values[b]:
            raise IncompatibleOrder(
                f"values decrease along the order: f({K.simplices[a]}) = "
                f"{f.values[a]} > {f.values[b]} = f({K.simplices[b]})"
            )
    pos = order.position_of
    for j, complex_pos in enumerate(perm):
        for face_pos in K.facet_positions[complex_pos]:
            if pos[face_pos] >= j:
                raise IncompatibleOrder(
                    f"face {{{K.simplices[face_pos]}}} does not precede "
                    f"{{{K.simplices[complex_pos]}}}"
                )


def is_order_constant(
    f0: FiltrationFunction, f1: FiltrationFunction, alpha, beta
) -> bool:
    """True iff no simplex pair swaps strictly inside [alpha, beta].

    For every pair, the sign of f_t(sigma) - f_t(tau) must not flip over the
    interval; a zero at either end is compatible with both signs.  Because
    the interpolation is linear in t, testing the two endpoint values is
    exact.
    """
    if f0.complex is not f1.complex and f0.complex != f1.complex:
        raise DomainMismatch("functions live on different complexes")
    a, b = to_fraction(alpha), to_fraction(beta)
    if not a < b:
        raise ValueError(f"need alpha < beta, got {a} >= {b}")
    # f_t scaled by a positive constant: (q - p) * x + p * y for t = p / q
    x, y = common_numerators(f0.values, f1.values)
    va = [(a.denominator - a.numerator) * u + a.numerator * v for u, v in zip(x, y)]
    vb = [(b.denominator - b.numerator) * u + b.numerator * v for u, v in zip(x, y)]
    n = len(va)
    for i in range(n):
        for j in range(i + 1, n):
            da = va[i] - va[j]
            db = vb[i] - vb[j]
            if (da > 0 and db < 0) or (da < 0 and db > 0):
                return False
    return True

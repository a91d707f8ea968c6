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
from .errors import IncompatibleOrder
from .rational import fraction_string


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
                f"{fraction_string(f.values[a])} > "
                f"{fraction_string(f.values[b])} = f({K.simplices[b]})"
            )
    pos = order.position_of
    for j, complex_pos in enumerate(perm):
        for face_pos in K.facet_positions[complex_pos]:
            if pos[face_pos] >= j:
                raise IncompatibleOrder(
                    f"face {{{K.simplices[face_pos]}}} does not precede "
                    f"{{{K.simplices[complex_pos]}}}"
                )

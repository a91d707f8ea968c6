"""The canonical total order of a filtration.

The persistence algorithm consumes one fixed linear order of the simplices.
A valid order is non-decreasing in the function values and places every
face before its cofaces; the canonical one breaks ties in value by
dimension and then by the lexicographic vertex sequence, which makes it
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import (
    FiltrationFunction,
    SimplicialComplex,
    validate_filtration,
)
from .errors import IncompatibleOrder, InvalidFiltration


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
    issues = validate_filtration(K, f)
    if issues:
        raise InvalidFiltration(issues)
    perm = sorted(
        range(len(K)),
        key=lambda i: (f.values[i], K.simplices[i].dim, K.simplices[i].vertices),
    )
    return TotalOrder(K, tuple(perm))

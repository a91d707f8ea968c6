"""Linear homotopy between two filtrations and its crossing schedule.

f_t assigns each simplex the exact convex combination of its two endpoint
values.  ``interpolate`` evaluates it on ints: with f0 and f1 over one
scale L (``complexes.common_scale``), f_t at t = p/q is a list of ints
over q * L, and the verification compares nothing else.  For
unique-valued endpoints, any two simplices' interpolated value lines
cross at most once, so the parameters where some pair of values
coincides form a finite set of rationals strictly inside (0, 1): the
crossing schedule.  Between consecutive crossings the induced simplex
order is constant.  A pair crosses exactly when f0 and f1 order it
differently, so the schedule is read off the inversions between the two
orders, found by an insertion sort, not by testing every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import FiltrationFunction, common_scale, find_duplicate_value
from .errors import DomainMismatch, NonUniqueValues
from .rational import fraction_string


@dataclass(frozen=True)
class CrossingSchedule:
    """Sorted parameters where at least one simplex pair coincides.

    ``pairs_at[k]`` lists the (i, j) simplex position pairs whose values
    agree at ``times[k]``; i < j, sorted.
    """

    times: tuple[Fraction, ...]
    pairs_at: tuple[tuple[tuple[int, int], ...], ...]

    def __len__(self) -> int:
        return len(self.times)

    def breakpoints(self) -> tuple[Fraction, ...]:
        """The schedule framed by the endpoints 0 and 1."""
        return (Fraction(0),) + self.times + (Fraction(1),)


def _require_shared_complex(f0: FiltrationFunction, f1: FiltrationFunction):
    if f0.complex is not f1.complex and f0.complex != f1.complex:
        raise DomainMismatch("functions live on different complexes")


def interpolate(a: list[int], b: list[int], t: Fraction) -> list[int]:
    """f_t at ``t = p/q`` in [0, 1], as ints over the denominator q * L.

    ``a`` and ``b`` are the values of f0 and f1 as int numerators over one
    scale L (``complexes.common_scale``), so
    (1 - t) * a/L + t * b/L = (a * (q - p) + b * p) / (q * L).  Values at
    one t share that denominator, so they compare and hash as ints; a
    value becomes a Fraction only to be printed.
    """
    p, q = t.numerator, t.denominator
    r = q - p
    return [x * r + y * p for x, y in zip(a, b)]


def sup_norm(f0: FiltrationFunction, f1: FiltrationFunction) -> Fraction:
    """Largest per-simplex absolute difference; 0 for identical functions.

    One int maximum over the numerators of both functions on their shared
    scale, made a Fraction once.
    """
    _require_shared_complex(f0, f1)
    a, b, scale = common_scale(f0, f1)
    return Fraction(max((abs(y - x) for x, y in zip(a, b)), default=0), scale)


def crossing_times(
    f0: FiltrationFunction, f1: FiltrationFunction
) -> CrossingSchedule:
    """All parameters in (0, 1) where two interpolated values coincide.

    Requires unique values at both endpoints, which forces every crossing
    strictly inside the interval: for a pair with endpoint gaps d0 and d1 of
    opposite sign, the unique crossing is t = d0 / (d0 - d1).  Pairs whose
    gaps share a sign (including parallel lines) never cross: the crossing
    pairs are exactly the inversions between the orders of f0 and f1.
    """
    _require_shared_complex(f0, f1)
    for fid, f in (("f0", f0), ("f1", f1)):
        dup = find_duplicate_value(f)
        if dup is not None:
            i, j = dup
            K = f.complex
            raise NonUniqueValues(
                f"{fid}: simplices {K.simplices[i]} and {K.simplices[j]} "
                f"share value {fraction_string(f.values[i])}"
            )
    # Integer numerators over one shared scale: a pair's gaps and
    # crossing time are unchanged by the scale.  An insertion sort of f0's
    # order by f1's values swaps each inverted pair exactly once: O(n log n
    # + C) for C crossing pairs, where testing every pair is O(n^2).
    v0, v1, _ = common_scale(f0, f1)
    by_time: dict[Fraction, list[tuple[int, int]]] = {}
    run: list[int] = []  # f0's order, sorted by f1 so far
    for a in sorted(range(len(v0)), key=v0.__getitem__):
        x, y = v0[a], v1[a]
        k = len(run)
        run.append(a)
        while k and v1[run[k - 1]] > y:
            b = run[k - 1]
            run[k] = b
            k -= 1
            d0 = x - v0[b]  # d0 / (d0 - d1) is the same from either end
            t = Fraction(d0, d0 - y + v1[b])
            by_time.setdefault(t, []).append((a, b) if a < b else (b, a))
        run[k] = a
    times = tuple(sorted(by_time))
    pairs_at = tuple(tuple(sorted(by_time[t])) for t in times)
    return CrossingSchedule(times, pairs_at)

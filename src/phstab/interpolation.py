"""Linear homotopy between two filtrations and its crossing schedule.

f_t assigns each simplex the exact convex combination of its two endpoint
values.  For unique-valued endpoints, any two simplices' interpolated value
lines cross at most once, so the parameters where some pair of values
coincides form a finite set of rationals strictly inside (0, 1): the
crossing schedule.  Between consecutive crossings the induced simplex order
is constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import FiltrationFunction, find_duplicate_value
from .errors import DomainMismatch, NonUniqueValues, TOutOfRange
from .rational import common_numerators, fraction_string, to_fraction


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


def interpolate(
    f0: FiltrationFunction, f1: FiltrationFunction, t
) -> FiltrationFunction:
    """The exact convex combination (1-t) * f0 + t * f1.

    Monotone whenever both endpoints are, so the result is again a valid
    filtration on the shared complex.
    """
    _require_shared_complex(f0, f1)
    t = to_fraction(t)
    if not 0 <= t <= 1:
        raise TOutOfRange(f"t = {fraction_string(t)} outside [0, 1]")
    if t == 0:
        return f0
    if t == 1:
        return f1
    # At t = p/q, (1-t) * a/c + t * b/d = (a*d*(q-p) + b*c*p) / (c*d*q):
    # one gcd per value instead of one per Fraction operation.
    p, q = t.numerator, t.denominator
    r = q - p
    values = tuple(
        Fraction(
            a.numerator * b.denominator * r + b.numerator * a.denominator * p,
            a.denominator * b.denominator * q,
        )
        for a, b in zip(f0.values, f1.values)
    )
    return FiltrationFunction(f0.complex, values)


def sup_norm(f0: FiltrationFunction, f1: FiltrationFunction) -> Fraction:
    """Largest per-simplex absolute difference; 0 for identical functions."""
    _require_shared_complex(f0, f1)
    return max(
        (abs(a - b) for a, b in zip(f0.values, f1.values)), default=Fraction(0)
    )


def crossing_times(
    f0: FiltrationFunction, f1: FiltrationFunction
) -> CrossingSchedule:
    """All parameters in (0, 1) where two interpolated values coincide.

    Requires unique values at both endpoints, which forces every crossing
    strictly inside the interval: for a pair with endpoint gaps d0 and d1 of
    opposite sign, the unique crossing is t = d0 / (d0 - d1).  Pairs whose
    gaps share a sign (including parallel lines) never cross.
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
    # Scan integer numerators over one common denominator: a pair's gaps
    # and crossing time are unchanged by the scale, and only pairs that
    # actually cross pay for a Fraction.
    v0, v1 = common_numerators(f0.values, f1.values)
    by_time: dict[Fraction, list[tuple[int, int]]] = {}
    n = len(v0)
    for i in range(n):
        a0, a1 = v0[i], v1[i]
        for j in range(i + 1, n):
            d0 = a0 - v0[j]
            d1 = a1 - v1[j]
            if (d0 > 0) == (d1 > 0):  # unique values: neither gap is 0
                continue
            by_time.setdefault(Fraction(d0, d0 - d1), []).append((i, j))
    times = tuple(sorted(by_time))
    pairs_at = tuple(tuple(sorted(by_time[t])) for t in times)
    return CrossingSchedule(times, pairs_at)

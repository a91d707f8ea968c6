"""Linear homotopy between two filtrations and its crossing schedule.

f_t assigns each simplex the exact convex combination of its two endpoint
values.  ``interpolate`` evaluates it on ints: with f0 and f1 over one
scale L (``complexes.common_scale``), f_t at t = p/q is a list of ints
over q * L, so values at one t compare as ints.  For
unique-valued endpoints, any two simplices' interpolated value lines
cross at most once, so the parameters where some pair of values
coincides form a finite set of rationals strictly inside (0, 1): the
crossing schedule.  Between consecutive crossings the induced simplex
order is constant.  A pair crosses exactly when f0 and f1 order it
differently, so the schedule is read off the inversions between the two
orders, found by an insertion sort, not by testing every pair.  Each
crossing time d0 / D has an exact int key floor(t * span^2)
(``time_key``), so the pairs are grouped and sorted on ints and
one Fraction is built per distinct time, not per pair; verify keys its
certificates the same way.
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


def time_key_scale(a: list[int], b: list[int]) -> int:
    """The scale S of the exact int key floor(t * S) of a crossing time t.

    ``a`` and ``b`` are f0 and f1 as ints over one scale.  Two simplices
    with endpoint gaps d0 > 0 and d1 < 0 cross at t = d0 / D, D = d0 - d1,
    and 0 < D <= span, the range of ``a`` plus the range of ``b``.  Two distinct such times d0/D and e/E differ by
    |d0 E - e D| / (D E) >= 1/span^2, so with S = span^2 their keys
    floor(t * S) are at least one apart: distinct crossing times get
    distinct keys, in the order of the times, and equal times (2/4 and
    3/6) one key.  The floor never decreases as t grows, so for any t a
    key below (above) another's is a time below (above) it; only equal
    keys need the times themselves compared.  0 with no simplices.
    """
    if not a:
        return 0
    span = max(a) - min(a) + max(b) - min(b)
    return span * span


def time_key(num: int, den: int, scale: int) -> int:
    """The int key floor(t * scale) of t = num / den, den > 0, on the
    scale of ``time_key_scale``."""
    return num * scale // den


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
    The pairs are grouped and sorted by the exact int keys of their times
    (``time_key``), so the schedule builds one Fraction per distinct
    time.
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
    scale = time_key_scale(v0, v1)
    by_key: dict[int, list] = {}  # time key -> the pairs crossing then
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
            key = time_key(d0, d0 - y + v1[b], scale)
            group = by_key.get(key)
            if group is None:
                by_key[key] = group = []
            group.append((a, b) if a < b else (b, a))
        run[k] = a
    times, pairs_at = [], []
    for key in sorted(by_key):
        pairs = by_key.pop(key)
        i, j = pairs[0]  # the time, from any one of its pairs
        d0 = v0[i] - v0[j]
        times.append(Fraction(d0, d0 - v1[i] + v1[j]))
        pairs.sort()
        pairs_at.append(tuple(pairs))
    return CrossingSchedule(tuple(times), tuple(pairs_at))

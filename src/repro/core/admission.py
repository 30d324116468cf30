"""Admission control: the left side of eq. (1) and headroom questions.

`repro.core.curves.is_admissible` answers "does this set fit?" from
scratch; it stays the reference.  A scheduler whose curve set changes one
class at a time keeps an :class:`RtDemand` instead -- the exact running
sum ``sum_i S_i(t)`` -- and answers the same question in O(#distinct
knees) rather than O(#curves).  Operators also want *headroom* questions:

* :func:`admissible_rate_headroom` -- the largest linear rate that can
  still be admitted next to an existing curve set;
* :func:`max_admissible_scale` -- the largest factor by which a candidate
  curve can be scaled while the whole set stays feasible;
* :func:`utilization_profile` -- sum-of-curves divided by the server line
  at each breakpoint, showing *where* (at which time scale) the link is
  tight: concave sets are burst-limited (tight at small t), linear sets
  rate-limited (tight asymptotically).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.curves import (
    REL_TOL,
    ServiceCurve,
    is_admissible,
    sum_curves,
)
from repro.core.errors import ConfigurationError

#: Every finite double is an integer multiple of 2**-1074, so scaling by
#: 2**1074 turns each one into an exact int: sums of such ints do not
#: depend on their order, and adding then removing a curve restores the
#: sum bit for bit.
_SCALE_BITS = 1074
_ONE = 1 << _SCALE_BITS
_ONE_SQ = _ONE * _ONE
_TOL_NUM, _TOL_DEN = REL_TOL.as_integer_ratio()


def _fixed(x: float) -> int:
    """``x * 2**_SCALE_BITS``, exactly."""
    num, den = x.as_integer_ratio()  # den is a power of two
    return num << (_SCALE_BITS + 1 - den.bit_length())


def _over(demand: int, supply: int, one: int) -> bool:
    """``demand`` exceeds ``supply`` beyond ``REL_TOL * max(1, demand,
    supply)`` -- the rule of :meth:`PiecewiseLinearCurve.dominates`, on
    fixed-point values whose unit is ``one``."""
    return demand > supply and (
        (demand - supply) * _TOL_DEN > _TOL_NUM * max(one, demand, supply)
    )


class RtDemand:
    """The exact sum of a changing set of two-piece service curves.

    Stored as the sum's initial slope plus, for every knee ``d``, the sum
    of ``m2 - m1`` over the curves that bend there (knees whose changes
    cancel are dropped, so two aggregates of the same curve set compare
    equal).  Values are fixed-point ints (:func:`_fixed`); the products
    with ``d`` that give the sum's value are formed only in :meth:`fits`
    and :meth:`headroom`.
    """

    __slots__ = ("_slope", "_knees", "_order")

    def __init__(self, curves: Iterable[ServiceCurve] = ()):
        self._slope = 0
        self._knees: Dict[float, int] = {}
        #: ``(d, fixed d)`` in increasing ``d``; None after the knee set
        #: changed.
        self._order: Optional[List[Tuple[float, int]]] = []
        for curve in curves:
            self.add(curve)

    def add(self, curve: ServiceCurve) -> None:
        self._update(curve, 1)

    def remove(self, curve: ServiceCurve) -> None:
        """Take out a curve previously :meth:`add`-ed."""
        self._update(curve, -1)

    def _update(self, curve: ServiceCurve, sign: int) -> None:
        if curve.is_linear:
            self._slope += sign * _fixed(curve.m2)
            return
        m1 = _fixed(curve.m1)
        self._slope += sign * m1
        knees = self._knees
        d = curve.d
        change = knees.get(d, 0) + sign * (_fixed(curve.m2) - m1)
        if change:
            if d not in knees:
                self._order = None
            knees[d] = change
        else:
            del knees[d]
            self._order = None

    def _knee_values(self):
        """``(x, sum(x))`` at every knee in increasing order, ``x`` at unit
        ``_ONE`` and the sum's value at unit ``_ONE_SQ``."""
        order = self._order
        if order is None:
            order = self._order = [(d, _fixed(d)) for d in sorted(self._knees)]
        knees = self._knees
        slope = self._slope
        value = last = 0
        for d, x in order:
            value += slope * (x - last)
            slope += knees[d]
            last = x
            yield x, value

    def _final_slope(self) -> int:
        return self._slope + sum(self._knees.values())

    def fits(self, rate: float) -> bool:
        """Eq. (1): ``sum_i S_i(t) <= rate * t`` for every ``t``.

        Checked on the final slope and at every knee, with the relative
        tolerance :func:`~repro.core.curves.is_admissible` applies.
        """
        r = _fixed(rate)
        if _over(self._final_slope(), r, _ONE):
            return False
        return not any(_over(value, r * x, _ONE_SQ)
                       for x, value in self._knee_values())

    def headroom(self, rate: float) -> float:
        """Largest linear rate that still fits beside the sum (>= 0).

        The slack rate ``rate - sum(t) / t`` is smallest just after
        ``t = 0`` (the initial slope), at a knee or asymptotically.
        """
        r = _fixed(rate)
        # The smallest slack as an exact fraction num / den (unit _ONE).
        num, den = r - max(self._slope, self._final_slope()), 1
        for x, value in self._knee_values():
            if (r * x - value) * den < num * x:
                num, den = r * x - value, x
        return max(0.0, num / (den * _ONE))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RtDemand):
            return NotImplemented
        return self._slope == other._slope and self._knees == other._knees

    def __repr__(self) -> str:
        return f"RtDemand(slope={self._slope / _ONE:g}, knees={len(self._knees)})"


def admissible_rate_headroom(
    existing: Sequence[ServiceCurve], server_rate: float
) -> float:
    """Largest linear rate admissible alongside ``existing`` curves.

    For a linear candidate the binding constraint is the tightest point of
    ``server_rate * t - sum(existing)(t)`` over ``t``; since all curves are
    piecewise linear the minimum of the *slack rate* is attained at a
    breakpoint or asymptotically (:meth:`RtDemand.headroom`).
    """
    if server_rate <= 0:
        raise ConfigurationError("server_rate must be positive")
    return RtDemand(existing).headroom(server_rate)


def max_admissible_scale(
    existing: Sequence[ServiceCurve],
    candidate: ServiceCurve,
    server_rate: float,
    tolerance: float = 1e-6,
) -> float:
    """Largest factor k such that ``existing + [candidate.scaled(k)]`` fits.

    Binary search over k (the feasible set in k is an interval starting at
    0 because scaling is linear in the curve values).
    """
    if not is_admissible(list(existing), server_rate):
        return 0.0
    lo, hi = 0.0, 1.0
    # Grow hi until infeasible (or absurdly large).
    while hi < 1e9 and is_admissible(
        list(existing) + [candidate.scaled(hi)], server_rate
    ):
        lo, hi = hi, hi * 2.0
    if hi >= 1e9:
        return hi
    while hi - lo > tolerance * max(1.0, hi):
        mid = (lo + hi) / 2.0
        if is_admissible(list(existing) + [candidate.scaled(mid)], server_rate):
            lo = mid
        else:
            hi = mid
    return lo


def uniform_admissible_scale(
    curves: Sequence[ServiceCurve],
    server_rate: float,
    tolerance: float = 1e-6,
) -> float:
    """Largest k <= 1 such that ``[c.scaled(k) for c in curves]`` fits.

    This is the "scale-rt" overload policy's knob: when churn or a
    link-rate drop makes the admitted set infeasible, every real-time
    guarantee is degraded by the same factor instead of rejecting flows.
    Returns 1.0 when the set already fits (guarantees are never inflated
    beyond what was requested).  Feasibility is monotone in k because
    scaling is linear in the curve values.
    """
    if server_rate <= 0:
        raise ConfigurationError("server_rate must be positive")
    if not curves or is_admissible(list(curves), server_rate):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if is_admissible([c.scaled(mid) for c in curves], server_rate):
            lo = mid
        else:
            hi = mid
    return lo


def utilization_profile(
    curves: Sequence[ServiceCurve], server_rate: float
) -> List[Tuple[float, float]]:
    """(t, sum(curves)(t) / (server_rate * t)) at every breakpoint.

    Values above 1.0 mark the time scales at which the set overbooks the
    server.  The final entry uses a large probe time (asymptotic rate).
    """
    if not curves:
        return []
    total = sum_curves([curve.to_piecewise() for curve in curves])
    profile: List[Tuple[float, float]] = []
    for x, y in total.points:
        if x > 0:
            profile.append((x, y / (server_rate * x)))
    probe = (total.points[-1][0] + 1.0) * 1e6
    profile.append((probe, total.value(probe) / (server_rate * probe)))
    return profile

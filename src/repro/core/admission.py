"""Admission control: the left side of eq. (1) and headroom questions.

:class:`RtDemand` keeps the exact sum ``sum_i S_i(t)`` of a curve set that
changes one class at a time and checks eq. (1) in O(#distinct knees)
(`repro.core.curves.is_admissible` stays the from-scratch reference).
Eq. (1) is linear in every curve, so the headroom questions are closed
forms over the same knees:

* :func:`admissible_rate_headroom` -- the largest linear rate that can
  still be admitted next to an existing curve set;
* :func:`max_admissible_scale` / :func:`uniform_admissible_scale` -- the
  largest factor for one candidate curve / every curve;
* :func:`utilization_profile` -- the sum over the server line at each
  knee: *where* (at which time scale) the link is tight.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.curves import REL_TOL, ServiceCurve
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
    equal).  Values are fixed-point ints (:func:`_fixed`); the sum's
    values are formed only by the walks over the knees (:meth:`_values`).
    """

    __slots__ = ("_slope", "_knees", "_order")

    def __init__(self, curves: Iterable[ServiceCurve] = ()):
        self._slope = 0
        self._knees: Dict[float, int] = {}
        #: :meth:`_knees_in_order`, or None after the knee set changed.
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

    def _knees_in_order(self) -> List[Tuple[float, int]]:
        """``(d, fixed d)`` for every knee, in increasing ``d``."""
        order = self._order
        if order is None:
            order = self._order = [(d, _fixed(d)) for d in sorted(self._knees)]
        return order

    def _values(self, points: List[Tuple[float, int]]) -> Iterator[Tuple[int, int]]:
        """``(x, sum(x))`` (unit ``_ONE_SQ``) at each ``(t, x = fixed t)`` of
        ``points``, which must be increasing and hold every knee."""
        knees = self._knees
        slope = self._slope
        value = last = 0
        for d, x in points:
            value += slope * (x - last)
            slope += knees.get(d, 0)
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
                       for x, value in self._values(self._knees_in_order()))

    def headroom(self, rate: float) -> float:
        """Largest linear rate that still fits beside the sum (>= 0).

        The slack rate ``rate - sum(t) / t`` is smallest just after
        ``t = 0`` (the initial slope), at a knee or asymptotically.
        """
        r = _fixed(rate)
        # The smallest slack as an exact fraction num / den (unit _ONE).
        num, den = r - max(self._slope, self._final_slope()), 1
        for x, value in self._values(self._knees_in_order()):
            if (r * x - value) * den < num * x:
                num, den = r * x - value, x
        return max(0.0, num / (den * _ONE))

    def max_scale(self, rate: float, base: Optional[RtDemand] = None) -> float:
        """Largest k >= 0 such that ``base + k * self`` fits ``rate``, rounded
        down to a double; ``inf`` when this sum is zero or k exceeds doubles.

        Between knees the slack ``rate * t - base(t)`` and ``self(t)`` are
        both linear, so k is their smallest exact ratio at a knee of either
        sum or in the final slopes.  Callers confirm k on the curves they
        install (:meth:`ServiceCurve.scaled` rounds) and step down one ulp
        if those do not fit.
        """
        base = base if base is not None else RtDemand()
        r = _fixed(rate)
        points = [(d, _fixed(d))
                  for d in sorted(self._knees.keys() | base._knees.keys())]
        bounds = [(r * x - used, need) for (x, used), (_, need)
                  in zip(base._values(points), self._values(points))]
        bounds.append((r - base._final_slope(), self._final_slope()))
        num, den = 1, 0  # the tightest bound so far, num / den; 1 / 0 is inf
        for room, demand in bounds:
            if demand > 0 and room * den < num * demand:
                num, den = room, demand
        try:
            k = max(num, 0) / den  # rounded to nearest: step down if it went up
        except (ZeroDivisionError, OverflowError):  # zero sum; k above doubles
            return math.inf
        k_num, k_den = k.as_integer_ratio()
        return math.nextafter(k, 0.0) if k_num * den > num * k_den else k

    def utilization(self, rate: float) -> List[Tuple[float, float]]:
        """``(t, sum(t) / (rate * t))`` at every knee and a far probe time."""
        probe = (max(self._knees, default=0.0) + 1.0) * 1e6
        points = [*self._knees_in_order(), (probe, _fixed(probe))]
        r = _fixed(rate)
        return [(t, value / (r * x))
                for (t, _), (x, value) in zip(points, self._values(points))]

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
    existing: Sequence[ServiceCurve], candidate: ServiceCurve, server_rate: float
) -> float:
    """Largest factor k such that ``existing + [candidate.scaled(k)]`` fits:
    0.0 when ``existing`` alone does not, ``inf`` for a zero candidate."""
    if server_rate <= 0:
        raise ConfigurationError("server_rate must be positive")
    demand = RtDemand(existing)
    if not demand.fits(server_rate):
        return 0.0
    k = RtDemand([candidate]).max_scale(server_rate, demand)
    if k < math.inf:
        demand.add(candidate.scaled(k))
    return k if demand.fits(server_rate) else math.nextafter(k, 0.0)


def uniform_admissible_scale(
    curves: Sequence[ServiceCurve], server_rate: float
) -> float:
    """Largest k <= 1 such that ``[c.scaled(k) for c in curves]`` fits (1.0
    when the set already fits: guarantees are never inflated).

    This is the "scale-rt" overload policy's knob: when churn or a
    link-rate drop makes the admitted set infeasible, every real-time
    guarantee is degraded by the same factor instead of rejecting flows.
    """
    if server_rate <= 0:
        raise ConfigurationError("server_rate must be positive")
    demand = RtDemand(curves)
    if demand.fits(server_rate):
        return 1.0
    k = demand.max_scale(server_rate)
    scaled = RtDemand(curve.scaled(k) for curve in curves)
    return k if scaled.fits(server_rate) else math.nextafter(k, 0.0)


def utilization_profile(
    curves: Sequence[ServiceCurve], server_rate: float
) -> List[Tuple[float, float]]:
    """(t, sum(curves)(t) / (server_rate * t)) at every knee of the sum and
    a large probe time (asymptotic rate); values above 1.0 mark the time
    scales at which the set overbooks the server."""
    return RtDemand(curves).utilization(server_rate) if curves else []

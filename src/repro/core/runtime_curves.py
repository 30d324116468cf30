"""O(1) runtime curves: the deadline / eligible / virtual curve machinery.

Section V of the paper shows that when service curves are restricted to
two-piece linear shapes (concave, or convex with a horizontal first
segment), the per-class *deadline curve* (eq. 7, ``update_dc`` of Fig. 8),
*eligible curve* (eq. 11) and *virtual curve* (eq. 12) all remain two-piece
linear and can be updated in constant time whenever a class transitions from
passive to active.  This module implements that machinery; it is the Python
analogue of the ``rtsc_*`` routines in the ALTQ/NetBSD implementation the
authors shipped.

A :class:`RuntimeCurve` is a two-piece linear function anchored at a point
``(x0, y0)``: slope ``m1`` for ``dx`` units of x, then slope ``m2`` forever.
For a deadline curve, x is wall-clock time and y is cumulative real-time
service ``c_i``; for a virtual curve, x is parent virtual time and y is
total service ``w_i``.

The central operation is :meth:`RuntimeCurve.min_with` which replaces the
curve by ``min(old_curve, spec shifted to (x, y))`` on the domain
``[x, inf)`` -- exactly eq. 7 / eq. 12.  For concave specs the result is the
exact minimum (the crossing-point analysis of Fig. 8).  For strictly convex
specs the exact minimum can need more than two pieces; following the
original implementation we then keep whichever curve is lower at the new
anchor, which can only over-estimate the deadline curve -- i.e. produce
*earlier* deadlines -- so every service-curve guarantee is preserved (the
cost is a small loss of link-sharing accuracy, never of correctness).
Property tests in ``tests/test_runtime_curves.py`` verify both claims
against the exact piecewise algebra.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.curves import INFINITY, PiecewiseLinearCurve, ServiceCurve


class RuntimeCurve:
    """Two-piece linear curve anchored at ``(x0, y0)`` with O(1) updates."""

    __slots__ = ("x0", "y0", "m1", "dx", "m2", "_kx", "_ky")

    def __init__(self, x0: float, y0: float, m1: float, dx: float, m2: float):
        self.x0 = x0
        self.y0 = y0
        self.m1 = m1
        self.dx = dx
        self.m2 = m2
        # Memoized knee (computed on first inverse() past y0, cleared by
        # the mutating operations).  inverse() runs several times per
        # packet served, and its operands advance monotonically, so the
        # knee test dominates; caching it avoids recomputing the knee
        # point on every call.  The cached values are the *same
        # expressions* the uncached path evaluates, so results are
        # bit-identical.
        self._kx = 0.0
        self._ky = None

    @classmethod
    def from_spec(cls, spec: ServiceCurve, x: float, y: float) -> "RuntimeCurve":
        """The service curve translated so its origin sits at ``(x, y)``.

        This is the initialization step of eq. 7 / eq. 12: when a session
        becomes backlogged for the first time, its deadline (virtual) curve
        is its service curve, anchored at the current time (parent virtual
        time) and its cumulative service.
        """
        return cls(x, y, spec.m1, spec.d, spec.m2)

    # -- evaluation ---------------------------------------------------------

    @property
    def knee(self) -> Tuple[float, float]:
        """The point where the slope changes from m1 to m2."""
        return (self.x0 + self.dx, self.y0 + self.m1 * self.dx)

    def value(self, x: float) -> float:
        """Curve value at ``x`` (clamped to ``y0`` for ``x < x0``)."""
        if x <= self.x0:
            return self.y0
        if x <= self.x0 + self.dx:
            return self.y0 + self.m1 * (x - self.x0)
        return self.y0 + self.m1 * self.dx + self.m2 * (x - self.x0 - self.dx)

    def inverse(self, y: float) -> float:
        """Smallest ``x >= x0`` with ``value(x) >= y`` (inf if unreachable).

        This is how deadlines (``d = DC^{-1}(c + packet_len)``), eligible
        times (``e = EC^{-1}(c)``) and virtual times (``v = VC^{-1}(w)``)
        are computed.
        """
        if y <= self.y0:
            return self.x0
        knee_y = self._ky
        if knee_y is None:
            dx = self.dx
            knee_x = self._kx = self.x0 + dx
            knee_y = self._ky = self.y0 + self.m1 * dx
        else:
            knee_x = self._kx
        if y <= knee_y:
            # m1 > 0 here since knee_y > y0.
            return self.x0 + (y - self.y0) / self.m1
        if self.m2 == 0:
            return INFINITY
        return knee_x + (y - knee_y) / self.m2

    # -- the update operation (eq. 7 / Fig. 8 / eq. 12) ---------------------

    def min_with(self, spec: ServiceCurve, x: float, y: float) -> None:
        """Replace this curve by ``min(self, spec shifted to (x, y))``.

        Called when the class becomes active at time (or parent virtual
        time) ``x`` having received ``y`` cumulative service.  Only the
        domain ``x' >= x`` matters afterwards, because the inverse is only
        evaluated at service levels ``>= y`` from now on.
        """
        y_here = self.value(x)

        if spec.m1 <= spec.m2:
            # Convex (or linear) spec: as in the original implementation,
            # keep whichever curve is lower at the new anchor.  When the old
            # curve is lower it stays lower until a possible late crossing;
            # ignoring that crossing only raises the curve (safe, see module
            # docstring).  When the new copy is lower it is lower forever
            # (the difference new - old is non-increasing for convex specs).
            if y_here < y:
                return
            self._replace(spec, x, y)
            return

        # Concave spec.  If the new copy starts above the old curve it stays
        # above forever (the difference new - old is non-decreasing while the
        # new copy is in its steep first segment, and constant afterwards).
        if y > y_here:
            return

        # New copy starts at or below the old curve.  While the old curve is
        # still in its first segment both run at slope m1 and the gap is
        # constant; once the old curve drops to slope m2 the new copy (still
        # at slope m1 > m2) closes the gap and may cross at x*.
        knee_x, knee_y = self.knee
        dslope = spec.m1 - spec.m2
        # Crossing of  y + m1*(t - x)  with the old m2-line through the knee.
        cross = (knee_y - y + spec.m1 * x - spec.m2 * knee_x) / dslope
        cross = max(cross, x)
        if cross >= x + spec.d:
            # The new copy bends to m2 before catching up: it is the minimum
            # everywhere on [x, inf).
            self._replace(spec, x, y)
            return
        # Minimum: new copy's first segment until the crossing, then the old
        # curve's m2 tail -- still two-piece.
        self.x0 = x
        self.y0 = y
        self.m1 = spec.m1
        self.dx = cross - x
        self.m2 = spec.m2
        self._ky = None

    def _replace(self, spec: ServiceCurve, x: float, y: float) -> None:
        self.x0 = x
        self.y0 = y
        self.m1 = spec.m1
        self.dx = spec.d
        self.m2 = spec.m2
        self._ky = None

    # -- interop ------------------------------------------------------------

    def to_piecewise(self) -> PiecewiseLinearCurve:
        if self.dx == 0 or self.m1 == self.m2:
            return PiecewiseLinearCurve.line(self.x0, self.y0, self.m2)
        knee_x, knee_y = self.knee
        return PiecewiseLinearCurve(
            [(self.x0, self.y0), (knee_x, knee_y)], self.m2
        )

    def copy(self) -> "RuntimeCurve":
        return RuntimeCurve(self.x0, self.y0, self.m1, self.dx, self.m2)

    def __repr__(self) -> str:
        return (
            f"RuntimeCurve(x0={self.x0:g}, y0={self.y0:g}, m1={self.m1:g}, "
            f"dx={self.dx:g}, m2={self.m2:g})"
        )


def eligible_spec(spec: ServiceCurve) -> ServiceCurve:
    """The service-curve shape whose shifted copies form the eligible curve.

    Section IV-B: for a *concave* service curve the eligible curve equals
    the deadline curve (no future demand spike to provision for), so the
    eligible spec is the curve itself.  For a *convex* two-piece curve the
    eligible curve is the line from the deadline curve's start with the
    second (higher) slope: the real-time criterion may run ahead of the
    deadline curve to bank service for the steep tail.
    """
    if spec.is_concave:
        return spec
    return ServiceCurve.linear(spec.m2)


def make_deadline_curve(spec: ServiceCurve, now: float, service: float) -> RuntimeCurve:
    """Fresh deadline curve for a class becoming active for the first time."""
    return RuntimeCurve.from_spec(spec, now, service)


def make_eligible_curve(spec: ServiceCurve, now: float, service: float) -> RuntimeCurve:
    """Fresh eligible curve (see :func:`eligible_spec`)."""
    return RuntimeCurve.from_spec(eligible_spec(spec), now, service)

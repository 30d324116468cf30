"""Analytical delay bounds from service curves (Sections II and VI).

For a session constrained by a token-bucket arrival envelope
``A(t) = min(peak * t, sigma + rho * t)`` and guaranteed a service curve
``S``, the worst-case delay is the maximum *horizontal* distance between
the arrival envelope and the service curve:

    d_max = sup_t ( S^{-1}(A(t)) - t )

Theorem 2 adds one maximum-size-packet transmission time for H-FSC.
These functions let the experiments print analytic bounds next to the
measured maxima, and the tests assert measurement <= bound.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.curves import INFINITY, ServiceCurve
from repro.core.errors import ConfigurationError


def token_bucket_envelope(sigma: float, rho: float, peak: float = math.inf):
    """Arrival envelope A(t) for a (sigma, rho, peak) token bucket."""
    if sigma < 0 or rho < 0:
        raise ConfigurationError("sigma and rho must be non-negative")

    def envelope(t: float) -> float:
        if t <= 0:
            return 0.0
        return min(peak * t, sigma + rho * t)

    return envelope


def service_curve_delay_bound(
    spec: ServiceCurve,
    sigma: float,
    rho: float,
    peak: float = math.inf,
) -> float:
    """Worst-case queueing delay for a (sigma, rho, peak) session on ``S``.

    Requires ``rho <= spec.rate`` for a finite bound (otherwise the queue
    grows without bound and the result is ``inf``).
    """
    if rho > spec.rate:
        return INFINITY
    envelope = token_bucket_envelope(sigma, rho, peak)
    # S^{-1}(A(t)) - t is piecewise linear in t, with breakpoints where A
    # changes slope and where A(t) reaches S's knee value; past both its
    # slope is rho/m2 - 1 <= 0.  So the supremum is attained at t = 0+ or
    # at one of those two points.  A rises at ``peak`` until t_peak and
    # at ``rho`` after it.
    #
    # The t = 0+ value is taken as a limit, not as A at some small t: a
    # tiny rho times a small t underflows to no traffic at all.  A(0+) is
    # sigma with no peak limit; otherwise (or with sigma = 0) any traffic
    # is an infinitesimal amount, which S serves by the end of its flat
    # start (d when m1 = 0, else 0).
    start = sigma if peak == math.inf else 0.0
    if start > 0:
        worst = spec.inverse(start)
    elif peak > 0 and (sigma > 0 or rho > 0):
        if spec.knee_y > 0:
            worst = 0.0
        else:
            worst = spec.d if spec.m2 > 0 else INFINITY
    else:
        worst = 0.0
    if worst == INFINITY:
        return INFINITY
    t_peak = 0.0
    if peak != math.inf:
        t_peak = sigma / (peak - rho) if peak > rho else math.inf
    candidates = []
    if 0.0 < t_peak < math.inf:
        candidates.append(t_peak)
    knee_y = spec.knee_y
    if knee_y > 0:
        if t_peak > 0 and knee_y <= peak * t_peak:
            candidates.append(knee_y / peak)
        elif knee_y > sigma and rho > 0:
            candidates.append((knee_y - sigma) / rho)
    for t in candidates:
        demand = envelope(t)
        finish = spec.inverse(demand)
        if finish == INFINITY:
            return INFINITY
        worst = max(worst, finish - t)
    return max(worst, 0.0)


def hfsc_delay_bound(
    spec: ServiceCurve,
    sigma: float,
    rho: float,
    max_packet: float,
    link_rate: float,
    peak: float = math.inf,
) -> float:
    """Theorem 2: the service-curve bound plus one max-packet time."""
    if max_packet <= 0 or link_rate <= 0:
        raise ConfigurationError("max_packet and link_rate must be positive")
    base = service_curve_delay_bound(spec, sigma, rho, peak)
    if base == INFINITY:
        return INFINITY
    return base + max_packet / link_rate


def coupled_delay_bound(rate: float, sigma: float) -> float:
    """Delay bound of a *linear* curve: burst over rate.

    This is the coupling the paper criticizes: with only a rate parameter,
    the only way to cut delay is to reserve more bandwidth.
    """
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    return sigma / rate

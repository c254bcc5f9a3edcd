"""Configuration potentials, latent heats, the bulk/surface compatibility check, and
the scalar ODE of the spatially homogeneous reduction (integrate_homogeneous).

The configuration entropy density is split as

    s0(r) = delta * r^2 / 2 - F(r),      -s0'(r) = f(r) - delta * r,

with F convex, f = F' nondecreasing and f(0) = 0, so that f carries the whole
monotone (possibly singular) part and delta the concave perturbation.
Two families are built in:

    logarithmic   F(r) = (1+r) ln(1+r) + (1-r) ln(1-r)   on (-1, 1)
                  f(r) = ln((1+r)/(1-r)),  f'(r) = 2 / (1 - r^2)
    quartic       F(r) = r^4 / 4,  f(r) = r^3             on (-inf, inf)

delta never enters f itself; it is carried alongside so callers can assemble
the split implicit/explicit terms.  The latent heat is the quadratic
lambda(r) = -a r^2 + b r + c.

The analysis rests on two structural hypotheses, both proved here in closed
form.  Compatibility: the surface domain lies inside the bulk one (so a
logarithmic bulk rejects a quartic surface) and f * f_surf >= c_s f^2 - C_s
there with c_s > 0.  Every admissible pair has C_s = 0, whatever delta:
  * Same family: f * f = f^2, so c_s = 1.
  * Quartic bulk, logarithmic surface: both f are odd and f * f_surf =
    r^3 * 2 artanh(r), so c_s = min over (0, 1) of 2 artanh(r) / r^3, which
    is 4.0339960793287... at r = 0.8894367592 (+inf at both ends).
Coercivity, lambda - s0 >= c1 r^2 - c2 with c1 > 0, holds for every family,
latent heat and delta, so nothing checks it:
lambda - s0 = F - delta r^2 / 2 + lambda.
  * Quartic: the sum is r^4/4 - (a + delta/2) r^2 + b r + c, and for every
    c1 > 0 the quartic term dominates (a + delta/2 + c1) r^2 - b r, so the
    sum is >= c1 r^2 - c2.
  * Logarithmic: r^2 < 1 on (-1, 1), and F and lambda are bounded there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

QUARTIC_LOG_C_S = 4.0339960793   # min of 2 artanh(r) / r^3 on (0, 1), rounded down

# The open domain of each potential family: singular on a bounded interval,
# regular on the whole line.
DOMAINS = {"logarithmic": (-1.0, 1.0), "quartic": (-math.inf, math.inf)}


@dataclass(frozen=True)
class Potential:
    """One member of a potential family plus its concave coefficient delta."""

    kind: str
    delta: float = 0.0

    @property
    def domain(self) -> tuple[float, float]:
        """The open domain (lo, hi) the family fixes (DOMAINS)."""
        return DOMAINS[self.kind]

    def contains(self, r) -> bool:
        """True when every entry of the non-empty r lies in the open domain; NaN never does."""
        r = np.asarray(r)
        lo, hi = self.domain
        return bool(lo < r.min() and r.max() < hi)


def evaluate(p: Potential, r):
    """Return (F(r), f(r), f'(r)) for r strictly inside the domain (any shape)."""
    arr = np.asarray(r, dtype=float)
    if not p.contains(arr):
        raise DomainError(
            f"argument outside the open domain {p.domain} of the {p.kind} potential"
        )
    if p.kind == "logarithmic":
        log_p, log_m = np.log1p(arr), np.log1p(-arr)
        big_f = (1.0 + arr) * log_p + (1.0 - arr) * log_m
        return big_f, log_p - log_m, 2.0 / (1.0 - arr * arr)
    return 0.25 * arr**4, arr**3, 3.0 * arr * arr


@dataclass(frozen=True)
class LatentHeat:
    """Quadratic latent heat lambda(r) = -a r^2 + b r + c."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0


def latent_eval(l: LatentHeat, r):
    """Return (lambda(r), lambda'(r), lambda''(r)); lambda'' is the constant -2a."""
    arr = np.asarray(r, dtype=float)
    return -l.a * arr * arr + l.b * arr + l.c, -2.0 * l.a * arr + l.b, -2.0 * l.a


def scalar_f(p: Potential):
    """Plain-float f(r) closure (fast path for the scalar ODE oracle)."""
    if p.kind == "logarithmic":
        return lambda r: math.log1p(r) - math.log1p(-r)
    return lambda r: r * r * r


def integrate_homogeneous(theta0: float, chi0: float, pot: Potential, lat: LatentHeat,
                          tau_ref: float, t_end: float):
    """Classical RK4 oracle for the spatially homogeneous reduction.

    With f_surf = f and lambda_surf = lambda_bulk, every node obeys the
    scalar law chi' = -f(chi) + delta chi + lambda'(chi) (-1/theta) with
    theta' = -lambda'(chi) chi'.  The combination theta + lambda(chi) is a
    first integral, so the system is integrated as a scalar ODE for chi and
    theta is reconstructed from the invariant: conservation is exact by
    construction.  Returns (t, theta, chi) sample arrays.
    """
    if theta0 <= 0.0:
        raise DomainError("theta0 must be positive")
    if not pot.contains(chi0):
        raise DomainError("chi0 outside the potential domain")
    a, b, c0 = lat.a, lat.b, lat.c
    lam0 = -a * chi0 * chi0 + b * chi0 + c0
    e0 = theta0 + lam0
    f = scalar_f(pot)
    delta = pot.delta
    lo, hi = pot.domain

    def rhs(c: float) -> float:
        if not lo < c < hi:
            raise DomainError("trajectory left the potential domain; reduce the step (time.dt)")
        th = e0 + a * c * c - b * c - c0
        if th <= 0.0:
            raise DomainError("temperature reached zero along the trajectory; "
                              "reduce the step (time.dt)")
        return -f(c) + delta * c - (-2.0 * a * c + b) / th

    if t_end <= 0.0:
        return np.array([0.0]), np.array([theta0]), np.array([chi0])
    n = max(1, round(t_end / tau_ref))
    h = t_end / n
    stride = max(1, n // 1000)
    ts, chis = [0.0], [chi0]
    c = chi0
    h6 = h / 6.0
    for i in range(1, n + 1):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * h * k1)
        k3 = rhs(c + 0.5 * h * k2)
        k4 = rhs(c + h * k3)
        c = c + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not lo < c < hi:
            raise DomainError("trajectory left the potential domain; reduce the step (time.dt)")
        if i % stride == 0 or i == n:
            ts.append(i * h)
            chis.append(c)
    chi_arr = np.array(chis)
    theta_arr = e0 + a * chi_arr * chi_arr - b * chi_arr - c0
    return np.array(ts), theta_arr, chi_arr


def latent_range(l: LatentHeat) -> tuple[float, float]:
    """Exact (min, max) of lambda over [-1, 1]: endpoints plus interior vertex."""
    candidates = [-1.0, 1.0]
    if l.a != 0.0:
        vertex = l.b / (2.0 * l.a)
        if -1.0 < vertex < 1.0:
            candidates.append(vertex)
    values = [-l.a * r * r + l.b * r + l.c for r in candidates]
    return min(values), max(values)


def separating_slope_margin(l: LatentHeat) -> float:
    """liminf of lambda'(r) sign(r) as |r| -> 1: min(lambda'(1), -lambda'(-1)).

    Positive margin means lambda' points outward near both pure states, the
    sign condition under which stationary phases stay separated from +-1.
    """
    return min(l.b - 2.0 * l.a, -l.b - 2.0 * l.a)


def check_compatibility(f_bulk: Potential, f_surf: Potential) -> float:
    """Return c_s > 0 with f * f_surf >= c_s f^2 (C_s = 0) on the surface domain,
    as the module docstring proves; DomainError if that domain is not inside
    the bulk one."""
    (lo_s, hi_s), (lo_b, hi_b) = f_surf.domain, f_bulk.domain
    if lo_s < lo_b or hi_s > hi_b:
        raise DomainError(
            "surface potential domain must be contained in the bulk potential domain: "
            f"{f_surf.domain} is not inside {f_bulk.domain}"
        )
    return 1.0 if f_bulk.kind == f_surf.kind else QUARTIC_LOG_C_S

"""Configuration potentials, latent heats, and the bulk/surface compatibility check.

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

The analysis rests on two structural hypotheses.  Compatibility of the
bulk and surface monotone parts depends on the pair, so check_compatibility
fits its constants on samples.  Coercivity, lambda - s0 >= c1 r^2 - c2 with
c1 > 0, holds for every family, latent heat and delta, so nothing checks it:
lambda - s0 = F - delta r^2 / 2 + lambda.
  * Quartic: the sum is r^4/4 - (a + delta/2) r^2 + b r + c, and for every
    c1 > 0 the quartic term dominates (a + delta/2 + c1) r^2 - b r, so the
    sum is >= c1 r^2 - c2.
  * Logarithmic: r^2 < 1 on (-1, 1), and F and lambda are bounded there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# Sampling controls for the compatibility check: relative margin kept away
# from singular endpoints, the sampled radius of an unbounded domain, and the
# number of samples.
SAMPLE_MARGIN_REL = 1.0e-6
SAMPLE_RADIUS = 10.0
COMPAT_SAMPLES = 4001

# The open domain of each potential family: singular on a bounded interval,
# regular on the whole line.
DOMAINS = {"logarithmic": (-1.0, 1.0), "quartic": (-math.inf, math.inf)}


@dataclass(frozen=True)
class Potential:
    """One member of a potential family plus its concave coefficient delta.

    The open domain (domain_lo, domain_hi) is fixed by the family (DOMAINS)."""

    kind: str
    delta: float = 0.0
    domain_lo: float = field(init=False)
    domain_hi: float = field(init=False)

    def __post_init__(self):
        lo, hi = DOMAINS[self.kind]
        object.__setattr__(self, "domain_lo", lo)
        object.__setattr__(self, "domain_hi", hi)

    @property
    def singular(self) -> bool:
        """True when the domain is a bounded interval with f blowing up at the ends."""
        return math.isfinite(self.domain_lo)

    def contains(self, r) -> bool:
        """True when every entry lies in the open domain; NaN never does, and an
        empty array trivially does."""
        r = np.asarray(r)
        return r.size == 0 or bool(self.domain_lo < r.min() and
                                   r.max() < self.domain_hi)

    def guarded_bounds(self, guard_eps: float) -> tuple[float, float]:
        """Closed box kept by Newton iterates: singular endpoints shrunk by guard_eps
        (an infinite end stays infinite)."""
        return self.domain_lo + guard_eps, self.domain_hi - guard_eps


def evaluate(p: Potential, r):
    """Return (F(r), f(r), f'(r)) for r strictly inside the domain (any shape)."""
    arr = np.asarray(r, dtype=float)
    if not p.contains(arr):
        raise DomainError(
            f"argument outside the open domain ({p.domain_lo}, {p.domain_hi}) "
            f"of the {p.kind} potential"
        )
    if p.kind == "logarithmic":
        log_p, log_m = np.log1p(arr), np.log1p(-arr)
        big_f = (1.0 + arr) * log_p + (1.0 - arr) * log_m
        return big_f, log_p - log_m, 2.0 / (1.0 - arr * arr)
    return 0.25 * arr**4, arr**3, 3.0 * arr * arr


def scalar_f(p: Potential):
    """Plain-float f(r) closure (fast path for the scalar ODE oracle)."""
    if p.kind == "logarithmic":
        return lambda r: math.log1p(r) - math.log1p(-r)
    return lambda r: r * r * r


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


@dataclass(frozen=True)
class CompatReport:
    """Fitted constants of the bulk/surface compatibility inequality."""

    c_s: float
    big_c_s: float


def check_compatibility(f_bulk: Potential, f_surf: Potential) -> CompatReport:
    """Fit f * f_surf >= c_s f^2 - C_s on samples of the surface domain.

    The surface monotone part must dominate the bulk one, so the surface
    domain has to sit inside the bulk domain; a DomainError is raised when
    the inclusion fails.  Every pair that passes has c_s > 0: the same family
    gives c_s = 1, and a quartic bulk with a logarithmic surface has
    f * f_surf >= 0.  The samples fill the surface domain, SAMPLE_MARGIN_REL
    of its half-width away from singular ends, [-SAMPLE_RADIUS, SAMPLE_RADIUS]
    on the whole line.
    """
    if f_surf.domain_lo < f_bulk.domain_lo or f_surf.domain_hi > f_bulk.domain_hi:
        raise DomainError(
            "surface potential domain must be contained in the bulk potential domain: "
            f"({f_surf.domain_lo}, {f_surf.domain_hi}) is not inside "
            f"({f_bulk.domain_lo}, {f_bulk.domain_hi})"
        )
    if f_surf.singular:
        margin = SAMPLE_MARGIN_REL * (0.5 * (f_surf.domain_hi - f_surf.domain_lo))
        samples = np.linspace(f_surf.domain_lo + margin, f_surf.domain_hi - margin,
                              COMPAT_SAMPLES)
    else:
        samples = np.linspace(-SAMPLE_RADIUS, SAMPLE_RADIUS, COMPAT_SAMPLES)
    _, fb, _ = evaluate(f_bulk, samples)
    _, fs, _ = evaluate(f_surf, samples)
    nonzero = fb != 0.0
    product = fb * fs
    square = fb * fb
    c_s = float(np.min(product[nonzero] / square[nonzero]))
    big_c = float(max(0.0, np.max(c_s * square - product)))
    return CompatReport(c_s=c_s, big_c_s=big_c)

"""Configuration potentials, latent heats, and structural hypothesis checks.

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

The check_* functions verify, by sampling, the structural hypotheses the
analysis rests on: the bulk/surface compatibility of the monotone parts, and
coercivity of lambda - s0 against r^2.  The fitted constants are reported so
a failure near a singular endpoint is distinguishable from a genuine
violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# Sampling controls for the hypothesis checks: relative margin kept away from
# singular endpoints, and the sampled radius of an unbounded domain.
SAMPLE_MARGIN_REL = 1.0e-6
SAMPLE_RADIUS = 10.0

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
        if self.kind not in DOMAINS:
            raise DomainError(f"unknown potential kind '{self.kind}'")
        if self.delta < 0.0:
            raise DomainError("delta must be >= 0")
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


def latent_range(l: LatentHeat, lo: float = -1.0, hi: float = 1.0) -> tuple[float, float]:
    """Exact (min, max) of lambda over [lo, hi]: endpoints plus interior vertex."""
    candidates = [lo, hi]
    if l.a != 0.0:
        vertex = l.b / (2.0 * l.a)
        if lo < vertex < hi:
            candidates.append(vertex)
    values = [-l.a * r * r + l.b * r + l.c for r in candidates]
    return min(values), max(values)


def separating_slope_margin(l: LatentHeat) -> float:
    """liminf of lambda'(r) sign(r) as |r| -> 1: min(lambda'(1), -lambda'(-1)).

    Positive margin means lambda' points outward near both pure states, the
    sign condition under which stationary phases stay separated from +-1.
    """
    return min(l.b - 2.0 * l.a, -l.b - 2.0 * l.a)


def _sample_points(p: Potential, n: int) -> np.ndarray:
    """n points filling the domain of p: SAMPLE_MARGIN_REL of the half-width
    away from the ends of a singular domain, [-SAMPLE_RADIUS, SAMPLE_RADIUS]
    on the whole line."""
    if not p.singular:
        return np.linspace(-SAMPLE_RADIUS, SAMPLE_RADIUS, n)
    margin = SAMPLE_MARGIN_REL * (0.5 * (p.domain_hi - p.domain_lo))
    return np.linspace(p.domain_lo + margin, p.domain_hi - margin, n)


@dataclass(frozen=True)
class CompatReport:
    """Fitted constants of the bulk/surface compatibility inequality."""

    ok: bool
    c_s: float
    big_c_s: float
    kappa_s: float | None
    big_c_sing: float | None


def check_compatibility(f_bulk: Potential, f_surf: Potential, n_samples: int = 4001) -> CompatReport:
    """Fit f * f_surf >= c_s f^2 - C_s on samples of the surface domain.

    The surface monotone part must dominate the bulk one, so the surface
    domain has to sit inside the bulk domain; a DomainError is raised when
    the inclusion fails.  For a pair of singular potentials the companion
    bound |f_surf| >= kappa_s |f| - C is fitted as well, and ok requires
    both fitted leading constants to be positive.
    """
    if f_surf.domain_lo < f_bulk.domain_lo or f_surf.domain_hi > f_bulk.domain_hi:
        raise DomainError(
            "surface potential domain must be contained in the bulk potential domain: "
            f"({f_surf.domain_lo}, {f_surf.domain_hi}) is not inside "
            f"({f_bulk.domain_lo}, {f_bulk.domain_hi})"
        )
    samples = _sample_points(f_surf, n_samples)
    _, fb, _ = evaluate(f_bulk, samples)
    _, fs, _ = evaluate(f_surf, samples)
    nonzero = fb != 0.0
    product = fb * fs
    square = fb * fb
    if not np.any(nonzero):
        c_s = 1.0
    else:
        c_s = float(np.min(product[nonzero] / square[nonzero]))
    big_c = float(max(0.0, np.max(c_s * square - product)))
    kappa_s = big_c_sing = None
    ok = c_s > 0.0
    if f_bulk.singular and f_surf.singular:
        kappa_s = float(min(1.0, np.min(np.abs(fs[nonzero]) / np.abs(fb[nonzero]))))
        big_c_sing = float(max(0.0, np.max(kappa_s * np.abs(fb) - np.abs(fs))))
        ok = ok and kappa_s > 0.0
    return CompatReport(ok=ok, c_s=c_s, big_c_s=big_c, kappa_s=kappa_s, big_c_sing=big_c_sing)


@dataclass(frozen=True)
class PairCoercivity:
    """Slope c1 of the fit lambda - s0 >= c1 r^2 - c2 for one (potential, latent) pair."""

    ok: bool
    bounded_domain: bool
    c1: float


@dataclass(frozen=True)
class CoercivityReport:
    ok: bool
    bulk: PairCoercivity
    surf: PairCoercivity


def _coercivity_pair(p: Potential, l: LatentHeat, n_samples: int) -> PairCoercivity:
    samples = _sample_points(p, n_samples)
    big_f, _, _ = evaluate(p, samples)
    lam, _, _ = latent_eval(l, samples)
    # g = lambda - s0 = lambda + F - delta r^2 / 2 must dominate c1 r^2.
    g = lam + big_f - 0.5 * p.delta * samples * samples
    bounded = p.singular
    if bounded:
        c1 = 1.0
        ok = True
    else:
        # Slope read off at the sampled extremes; positive iff the quartic
        # growth beats the quadratic terms within the sampled radius.
        c1 = 0.5 * min(g[0] / samples[0] ** 2, g[-1] / samples[-1] ** 2)
        ok = c1 > 0.0
    return PairCoercivity(ok=ok, bounded_domain=bounded, c1=float(c1))


def check_coercivity(
    p_bulk: Potential, p_surf: Potential,
    l_bulk: LatentHeat, l_surf: LatentHeat,
    n_samples: int = 4001,
) -> CoercivityReport:
    """Verify lambda - s0 >= c1 r^2 - c2 on samples for both domain/boundary pairs.

    On a bounded potential domain the bound holds automatically (r^2 is
    bounded), which the pair report records; on an unbounded domain c1 > 0
    requires the convex quartic growth to dominate the latent quadratic on
    the sampled range.
    """
    bulk = _coercivity_pair(p_bulk, l_bulk, n_samples)
    surf = _coercivity_pair(p_surf, l_surf, n_samples)
    return CoercivityReport(ok=bulk.ok and surf.ok, bulk=bulk, surf=surf)

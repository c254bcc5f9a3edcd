"""Independent reference implementations the tests compare against.

Everything here takes a deliberately different route than the package:
2D rolls instead of flat edge lists, per-node Python loops instead of
vectorized sums, plain bisection instead of Newton, and a two-variable
RK4 that does not use the conserved combination.  Frozen once written;
a change here means re-deriving the expected values, not patching them.
"""

import math

import numpy as np


def simpson(fn, a, b, panels=10_000):
    """Composite Simpson quadrature; panels is forced even."""
    if panels % 2:
        panels += 1
    xs = np.linspace(a, b, panels + 1)
    ys = np.array([fn(x) for x in xs])
    h = (b - a) / panels
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def bisect(fn, lo, hi, iters=200):
    """Plain bisection; fn(lo) and fn(hi) must differ in sign."""
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def to_2d(g, z):
    return np.asarray(z, dtype=float).reshape(g.ny + 1, g.nx)


def percent_csv(z):
    """The CSV text of a matrix with every value through '%.16e', ',' between values
    and '\\n' after each row."""
    return "".join(",".join("%.16e" % x for x in row) + "\n"
                   for row in np.asarray(z, dtype=float).tolist()).encode("ascii")


def write_snapshot_percent(field, g, path):
    """The snapshot writer that the vectorized one replaced: each row through one
    '%.16e' format string, top row first, written in one piece."""
    row_fmt = ",".join(["%.16e"] * g.nx) + "\n"
    with open(path, "wb") as fh:
        fh.write("".join([row_fmt % tuple(row) for row in to_2d(g, field)[::-1].tolist()])
                 .encode("ascii"))


def stiffness_apply(g, z):
    """Bulk+surface operator via rolls on the (ny+1, nx) layout."""
    z2 = to_2d(g, z)
    wx = np.full(g.ny + 1, g.hy / g.hx)
    wx[0] = wx[-1] = 0.5 * g.hy / g.hx + 1.0 / g.hx
    out = wx[:, None] * (2.0 * z2 - np.roll(z2, 1, axis=1) - np.roll(z2, -1, axis=1))
    d = np.diff(z2, axis=0) * (g.hx / g.hy)
    out[:-1] -= d
    out[1:] += d
    return out.ravel()


def surf_form(g, z, w):
    """Boundary-circle first-difference form alone."""
    z2, w2 = to_2d(g, z), to_2d(g, w)
    total = 0.0
    for j in (0, g.ny):
        dz = np.roll(z2[j], -1) - z2[j]
        dw = np.roll(w2[j], -1) - w2[j]
        total += float(np.sum(dz * dw)) / g.hx
    return total


def full_form(g, z, w):
    """z^T K w summed edge family by edge family on the 2D layout."""
    z2, w2 = to_2d(g, z), to_2d(g, w)
    total = 0.0
    for j in range(g.ny + 1):
        alpha = 0.5 if j in (0, g.ny) else 1.0
        dz = np.roll(z2[j], -1) - z2[j]
        dw = np.roll(w2[j], -1) - w2[j]
        total += alpha * g.hy / g.hx * float(np.sum(dz * dw))
    for j in range(g.ny):
        total += g.hx / g.hy * float(np.sum((z2[j + 1] - z2[j]) * (w2[j + 1] - w2[j])))
    return total + surf_form(g, z, w)


def dense_matrix(apply_fn, n):
    cols = np.zeros((n, n))
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        cols[:, i] = apply_fn(e)
        e[i] = 0.0
    return cols


def mass_weights(g):
    """(m_bulk, m_surf) from the trapezoidal cell picture, raveled."""
    mb = np.full((g.ny + 1, g.nx), g.hx * g.hy)
    mb[0] *= 0.5
    mb[-1] *= 0.5
    ms = np.zeros((g.ny + 1, g.nx))
    ms[0] = g.hx
    ms[-1] = g.hx
    return mb.ravel(), ms.ravel()


def log_big_f(r):
    return (1.0 + r) * math.log(1.0 + r) + (1.0 - r) * math.log(1.0 - r)


def quartic_big_f(r):
    return 0.25 * r ** 4


def big_f_of(p):
    return log_big_f if p.kind == "logarithmic" else quartic_big_f


def latent(l, r):
    return -l.a * r * r + l.b * r + l.c


def small_f_pair(p, r):
    """(f, f') = (F', F'') of the potential family, by closed form."""
    if p.kind == "logarithmic":
        return math.log(1.0 + r) - math.log(1.0 - r), 2.0 / (1.0 - r * r)
    return r ** 3, 3.0 * r * r


def phase_operator_oracle(g, chi, u, p_bulk, p_surf, l_bulk, l_surf):
    """Stationary phase residual K chi + sum_parts m (f - delta chi - lambda' u),
    its diagonal sum_parts m (f' - delta - lambda'' u) and m lambda(chi), node by
    node; surface terms only where the surface weight is nonzero."""
    mb, ms = mass_weights(g)
    res = stiffness_apply(g, chi)
    diag = np.zeros(g.n_nodes)
    lam = np.zeros(g.n_nodes)
    for i in range(g.n_nodes):
        r = chi[i]
        for w, p, l in ((mb[i], p_bulk, l_bulk), (ms[i], p_surf, l_surf)):
            if w == 0.0:
                continue
            f, fp = small_f_pair(p, r)
            res[i] += w * (f - p.delta * r - (-2.0 * l.a * r + l.b) * u[i])
            diag[i] += w * (fp - p.delta + 2.0 * l.a * u[i])
            lam[i] += w * latent(l, r)
    return res, diag, lam


def mass_oracle(g, theta, chi, l_bulk, l_surf):
    mb, ms = mass_weights(g)
    total = 0.0
    for i in range(g.n_nodes):
        total += mb[i] * (theta[i] + latent(l_bulk, chi[i]))
        total += ms[i] * (theta[i] + latent(l_surf, chi[i]))
    return total


def energy_oracle(g, theta, chi, p_bulk, p_surf, l_bulk, l_surf):
    mb, ms = mass_weights(g)
    fb, fs = big_f_of(p_bulk), big_f_of(p_surf)
    total = 0.5 * full_form(g, chi, chi)
    for i in range(g.n_nodes):
        th, r = theta[i], chi[i]
        total += mb[i] * (th - math.log(th) + latent(l_bulk, r)
                          + fb(r) - 0.5 * p_bulk.delta * r * r)
        total += ms[i] * (th - math.log(th) + latent(l_surf, r)
                          + fs(r) - 0.5 * p_surf.delta * r * r)
    return total


def entropy_oracle(g, theta, chi, p_bulk, p_surf):
    mb, ms = mass_weights(g)
    fb, fs = big_f_of(p_bulk), big_f_of(p_surf)
    total = -0.5 * full_form(g, chi, chi)
    for i in range(g.n_nodes):
        th, r = theta[i], chi[i]
        total += mb[i] * (math.log(th) + 0.5 * p_bulk.delta * r * r - fb(r))
        total += ms[i] * (math.log(th) + 0.5 * p_surf.delta * r * r - fs(r))
    return total


def dissipation_oracle(g, u_new, chi_old, chi_new, tau):
    mb, ms = mass_weights(g)
    total = full_form(g, u_new, u_new)
    for i in range(g.n_nodes):
        rate = (chi_new[i] - chi_old[i]) / tau
        total += (mb[i] + ms[i]) * rate * rate
    return tau * total


def energy_remainder_oracle(g, u_n, chi_n, u, chi, p_bulk, p_surf, l_bulk, l_surf):
    """Closed form of R = E(n+1) + D(n+1) - E(n) for one source-free step from
    (u_n, chi_n) to (u, chi): the phase step tested with dchi = chi - chi_n and the
    heat step with 1 + u leave, with K 1 = 0,

      R = -sum m B_g(theta_n, theta) - sum m B_F(chi_n, chi) - dchi^T K dchi / 2
          - sum m (delta/2) dchi^2 - sum m (u - u_n) lambda'(chi_n) dchi + sum m a u dchi^2

    where g(theta) = theta - ln theta and B_h(p, q) = h(p) - h(q) - h'(q)(p - q).  Each
    law weighs with its own measure, node by node: the bulk one on every row, the
    surface one on the boundary circles."""
    mb, ms = mass_weights(g)
    dchi = chi - chi_n
    total = -0.5 * full_form(g, dchi, dchi)
    for i in range(g.n_nodes):
        th_n, th, d = -1.0 / u_n[i], -1.0 / u[i], dchi[i]
        b_g = th_n - math.log(th_n) - (th - math.log(th)) - (1.0 + u[i]) * (th_n - th)
        for w, p, l in ((mb[i], p_bulk, l_bulk), (ms[i], p_surf, l_surf)):
            if w == 0.0:
                continue
            big_f = big_f_of(p)
            b_f = big_f(chi_n[i]) - big_f(chi[i]) + small_f_pair(p, chi[i])[0] * d
            lamp_n = -2.0 * l.a * chi_n[i] + l.b
            total += w * (-b_g - b_f - 0.5 * p.delta * d * d
                          - (u[i] - u_n[i]) * lamp_n * d + l.a * u[i] * d * d)
    return total


def rk4_pair(theta0, chi0, f, delta, a, b, tau, t_end):
    """Classical RK4 on the full (theta, chi) pair; no invariant shortcut."""
    def rhs(y):
        th, c = y
        lamp = -2.0 * a * c + b
        cdot = -f(c) + delta * c + lamp * (-1.0 / th)
        return np.array([-lamp * cdot, cdot])

    y = np.array([theta0, chi0], dtype=float)
    for _ in range(round(t_end / tau)):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * tau * k1)
        k3 = rhs(y + 0.5 * tau * k2)
        k4 = rhs(y + tau * k3)
        y = y + tau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y[0]), float(y[1])

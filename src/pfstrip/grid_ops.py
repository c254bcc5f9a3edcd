"""Periodic-strip geometry, bulk/surface measures, the coupled stiffness operator, CG and MINRES.

The domain is the strip (0,Lx) x (0,Ly), periodic in x, with the two boundary
circles y = 0 and y = Ly carrying their own surface unknowns.  Nodes are
vertex-centered: nx periodic columns, ny+1 rows, flattened row-major
(idx = j*nx + i), so boundary unknowns coincide with trace values.

The stiffness operator K assembles the combined bulk + surface Dirichlet
form.  The normal derivative never appears as a stencil: boundary rows
couple to the interior only through the vertical difference terms of the
weak form, which is what makes constants an exact kernel vector and the
form symmetric positive semidefinite by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SolverError

MAX_RESTARTS = 32   # failed true-residual checks per CG or MINRES solve; a healthy one has <= 1


@dataclass(frozen=True, eq=False)
class Grid:
    lx: float
    ly: float
    nx: int
    ny: int
    hx: float
    hy: float
    n_nodes: int
    x: np.ndarray = field(repr=False)   # flat node x coordinates
    y: np.ndarray = field(repr=False)   # flat node y coordinates
    boundary: np.ndarray = field(repr=False)   # flat indices of rows j=0 and j=ny

    def reshape(self, z: np.ndarray) -> np.ndarray:
        """View a flat nodal vector as (ny+1, nx), row j first."""
        return np.asarray(z).reshape(self.ny + 1, self.nx)


def build_grid(lx: float, ly: float, nx: int, ny: int) -> Grid:
    """Precompute node coordinates and boundary indices."""
    hx, hy = lx / nx, ly / ny
    n = (ny + 1) * nx
    i = np.tile(np.arange(nx), ny + 1)
    j = np.repeat(np.arange(ny + 1), nx)
    boundary = np.concatenate([np.arange(nx), np.arange(ny * nx, n)])
    return Grid(lx=lx, ly=ly, nx=nx, ny=ny, hx=hx, hy=hy, n_nodes=n,
                x=i * hx, y=j * hy, boundary=boundary)


@dataclass(frozen=True, eq=False)
class MassVectors:
    """Quadrature weights realizing the combined volume + surface measure."""

    m_bulk: np.ndarray
    m_surf: np.ndarray
    m_comb: np.ndarray

    @cached_property
    def total(self) -> float:
        return float(np.sum(self.m_comb))


def assemble_masses(g: Grid) -> MassVectors:
    """Trapezoidal-in-y bulk weights plus surface weights on the boundary rows."""
    m_bulk = np.full(g.n_nodes, g.hx * g.hy)
    m_bulk[g.boundary] = 0.5 * g.hx * g.hy
    m_surf = np.zeros(g.n_nodes)
    m_surf[g.boundary] = g.hx
    return MassVectors(m_bulk=m_bulk, m_surf=m_surf, m_comb=m_bulk + m_surf)


@dataclass(frozen=True, eq=False)
class StiffnessOp:
    """Symmetric PSD operator K = K_bulk + K_surf in tensor form, with its edge list.

    The x-edge weight wx_j depends only on the row j and every y edge weighs
    hx/hy, so on the (ny+1, nx) view Z of z, K z = wx (.) (Z Lx) + Ly Z, with
    Lx the periodic second difference and Ly = (hx/hy) D^T D the path
    Laplacian in y.  The edge list (a, b, w) stores every difference pair once
    with its total weight, so the quadratic form can be evaluated as a sum of
    squares, exactly nonnegative in floating point.
    """

    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_w: np.ndarray
    wx: np.ndarray = field(repr=False)   # (ny+1, 1): x-edge weight of each row
    lx: np.ndarray = field(repr=False)   # (nx, nx)
    ly: np.ndarray = field(repr=False)   # (ny+1, ny+1)

    def apply(self, z: np.ndarray) -> np.ndarray:
        zz = z.reshape(self.ly.shape[0], -1)
        kz = zz @ self.lx
        kz *= self.wx
        kz += self.ly @ zz
        return kz.ravel()

    def quad(self, z: np.ndarray) -> float:
        """z^T K z as sum of w (z_a - z_b)^2; >= 0 exactly."""
        d = z[self.edge_a] - z[self.edge_b]
        return float(self.edge_w.dot(d * d))

    @cached_property
    def matrix(self):
        """K as a scipy CSR matrix, built from the edge list on first access.

        For tests and outside tools; the package itself never touches it, so
        importing pfstrip does not load scipy."""
        import scipy.sparse as sp

        a, b, w = self.edge_a.astype(np.int32), self.edge_b.astype(np.int32), self.edge_w
        n = self.ly.shape[0] * self.lx.shape[0]
        return sp.coo_matrix((np.concatenate([w, w, -w, -w]),
                              (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                             shape=(n, n)).tocsr()


def assemble_stiffness(g: Grid) -> StiffnessOp:
    """Assemble the combined form from its x-difference and y-difference edges.

    x edges on row j carry weight hy*alpha_j/hx with alpha_j = 1/2 on the
    boundary rows (half bulk cell) plus 1/hx there for the surface Dirichlet
    form; y edges carry hx/hy.
    """
    nx, ny, n = g.nx, g.ny, g.n_nodes
    wx = np.full(ny + 1, g.hy / g.hx)
    wx[[0, ny]] = g.hy * 0.5 / g.hx + 1.0 / g.hx

    idx = np.arange(n).reshape(ny + 1, nx)
    edge_a = np.concatenate([idx.ravel(), idx[:-1].ravel()])
    edge_b = np.concatenate([np.roll(idx, -1, axis=1).ravel(), idx[1:].ravel()])
    edge_w = np.concatenate([np.repeat(wx, nx), np.full(ny * nx, g.hx / g.hy)])

    eye = np.eye(nx)
    diff = np.diff(np.eye(ny + 1), axis=0)
    return StiffnessOp(
        edge_a=edge_a, edge_b=edge_b, edge_w=edge_w, wx=wx[:, None],
        lx=2.0 * eye - np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0),
        ly=(g.hx / g.hy) * (diff.T @ diff))


@dataclass(frozen=True, eq=False)
class ShiftedInverse:
    """Exact inverse of K + c diag(m_comb) for any scalar c > 0 (fast diagonalization).

    The x-edge weight of row j equals m_comb_j / hx^2, so with D = diag(m_comb
    per row), A_x the periodic x-Laplacian and K_y the y-edge path Laplacian,
    K + c M = D (x) (A_x + c I) + K_y (x) I.  qx is the real Fourier basis
    diagonalizing A_x (eigenvalues a_k); vy solves K_y V = D V diag(s) with
    V^T D V = I.  Then (K + c M)^-1 R = V [(V^T R qx) / (s_l + a_k + c)] qx^T.
    solver(c) forms s_l + a_k + c once and returns the callable r -> (K + c M)^-1 r.
    """

    vy: np.ndarray
    qx: np.ndarray
    eig: np.ndarray   # s_l + a_k, shape (ny+1, nx)

    def solver(self, c: float):
        den = self.eig + c
        def solve(r: np.ndarray) -> np.ndarray:
            y = self.vy.T @ r.reshape(den.shape) @ self.qx
            y /= den
            return (self.vy @ y @ self.qx.T).ravel()
        return solve


def assemble_shifted_inverse(g: Grid, m: MassVectors) -> ShiftedInverse:
    """The separable eigenbasis of K + c M: analytic in x, one eigh in y."""
    k = np.arange(g.nx)
    phase = 2.0 * np.pi * np.outer(k, k) / g.nx
    qx = np.where(k <= g.nx // 2, np.cos(phase), np.sin(phase))
    qx /= np.linalg.norm(qx, axis=0)
    a = (2.0 * np.sin(np.pi * k / g.nx) / g.hx) ** 2
    diff = np.diff(np.eye(g.ny + 1), axis=0)
    d_isqrt = 1.0 / np.sqrt(m.m_comb[:: g.nx])
    s, w = np.linalg.eigh((g.hx / g.hy) * d_isqrt[:, None] * (diff.T @ diff) * d_isqrt)
    s[0] = 0.0   # constants span ker K_y; eigh's round-off there would swamp a small c
    return ShiftedInverse(vy=d_isqrt[:, None] * w, qx=qx, eig=s[:, None] + a)


def solve_spd(apply, precond, rhs: np.ndarray, split: np.ndarray,
              tol: float = 1.0e-10, max_iter: int | None = None) -> np.ndarray:
    """Split preconditioned conjugate gradients for the SPD operator P + diag(split).

    rhs is a float vector, precond a callable r -> P^-1 r applying the exact inverse of P
    (a new array) and apply(z) the full operator product (P + diag(split)) z.  P p follows
    the recurrence P p <- r + beta P p, so each iteration forms the operator product as
    P p + split p, and apply runs only for the true-residual checks (after Eisenstat's
    trick).  Each iteration checks the residual, preconditions it and updates, so precond
    runs once per iteration and never after the last update.  Stops when the true residual
    satisfies ||apply(x) - rhs||_2 <= tol ||rhs||_2; restarts from the true residual when
    only the recurrence does, and raises SolverError after MAX_RESTARTS restarts.
    Sequential and deterministic for fixed inputs.  Vector inner products use ndarray.dot,
    the same ddot as @ at about half the call cost; matrix products keep @, which is about
    1 us faster per 96^2 product.
    """
    max_iter = 10 * rhs.size if max_iter is None else max_iter
    bnorm = math.sqrt(rhs.dot(rhs))
    x = np.zeros(rhs.size)
    if bnorm == 0.0:
        return x
    r = rhs.copy()
    p = None   # (re)start: p and P p are set from the next preconditioned residual
    restarts = 0
    for it in range(max_iter):
        if math.sqrt(r.dot(r)) <= tol * bnorm:
            # confirm against the true residual; the recurrence may have drifted
            r_true = rhs - apply(x)
            if math.sqrt(r_true.dot(r_true)) <= tol * bnorm:
                return x
            restarts += 1
            if restarts > MAX_RESTARTS:
                raise SolverError(f"conjugate gradients stagnated: {MAX_RESTARTS} restarts "
                                  f"in {it} iterations")
            r, p = r_true, None
        z = precond(r)
        rz_new = float(r.dot(z))
        if p is None:
            p, pp = z, r.copy()   # p and P p
        else:
            beta = rz_new / rz
            p *= beta
            p += z
            pp *= beta
            pp += r
        rz = rz_new
        q = pp + split * p
        pq = float(p.dot(q))
        if pq <= 0.0:
            raise SolverError("conjugate gradients: operator not positive definite")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
    r = rhs - apply(x)
    if math.sqrt(r.dot(r)) <= tol * bnorm:
        return x
    raise SolverError(f"conjugate gradients did not converge in {max_iter} iterations")


def solve_minres(apply, precond, rhs: np.ndarray, split, tol: float = 1.0e-10,
                 max_iter: int | None = None) -> np.ndarray:
    """Preconditioned MINRES (Paige and Saunders 1975) for a symmetric, possibly
    indefinite A = P + S with P SPD: precond is the exact P^-1 (a new array) and
    apply(z) the full A z, as in solve_spd, but split is a callable v -> S v,
    not solve_spd's diagonal array, since S may couple entries (a bordered system).
    The Lanczos vector is v = P^-1 w / beta, so A v = w / beta + S v, and apply
    runs only for the true-residual checks.  The residual rhs - A x follows the
    recurrence r <- s^2 r - (c phibar / gamma) w of the Givens rotation (c, s).
    Stops, restarts (at most MAX_RESTARTS times) and raises as solve_spd does.
    """
    max_iter = 10 * rhs.size if max_iter is None else max_iter
    bnorm = math.sqrt(rhs.dot(rhs))
    x = np.zeros(rhs.size)
    if bnorm == 0.0:
        return x
    r, w, restarts = rhs.copy(), None, 0
    for it in range(max_iter):
        if math.sqrt(r.dot(r)) <= tol * bnorm:
            r_true = rhs - apply(x)
            if math.sqrt(r_true.dot(r_true)) <= tol * bnorm:
                return x
            restarts += 1
            if restarts > MAX_RESTARTS:
                raise SolverError(f"MINRES stagnated: {MAX_RESTARTS} restarts in {it} iterations")
            r, w = r_true, None
        if w is None:   # (re)start the Lanczos process and its rotations at r
            w, w_old, z = r.copy(), 0.0, precond(r)
            beta = beta_old = phibar = math.sqrt(r.dot(z))
            cs, sn, dbar, eps, d, d_old = -1.0, 0.0, 0.0, 0.0, 0.0, 0.0
        v = z / beta
        y = w / beta + split(v) - (beta / beta_old) * w_old
        alpha = float(v.dot(y))
        y -= (alpha / beta) * w
        w_old, w, z = w, y, precond(y)
        beta_old, beta = beta, math.sqrt(y.dot(z))
        eps_old, delta = eps, cs * dbar + sn * alpha
        gbar, eps, dbar = sn * dbar - cs * alpha, sn * beta, -cs * beta
        gamma = math.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        d_old, d = d, (v - eps_old * d_old - delta * d) / gamma
        x += (cs * phibar) * d
        r = (sn * sn) * r - (cs * phibar / gamma) * w
        phibar *= sn
    r = rhs - apply(x)
    if math.sqrt(r.dot(r)) <= tol * bnorm:
        return x
    raise SolverError(f"MINRES did not converge in {max_iter} iterations")

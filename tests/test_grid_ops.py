"""Grid geometry, measures, the coupled stiffness operator, PCG, and the MINRES of
the stationary fallback, which shares PCG's split-operator test systems."""

import ast
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
import pfstrip
from pfstrip.errors import SolverError
from pfstrip.grid_ops import (MAX_RESTARTS, assemble_masses, assemble_shifted_inverse,
                              assemble_stiffness, build_grid, solve_minres, solve_spd)

# First nonconstant eigenvalue of the x-independent reduction of the coupled
# form: -z'' = lam z on (0,1) with flux condition z'(1) = lam z(1) and
# -z'(0) = lam z(0) from the boundary mass.  Odd modes z = sin(k(y - 1/2))
# give tan(k/2) = 1/k; the first root is k = 1.3065423741888063.
COUPLED_EIG = 1.7070529755509227


def test_build_grid_small():
    g = build_grid(1.0, 1.0, 4, 2)
    assert g.n_nodes == 12 and g.hx == 0.25 and g.hy == 0.5
    assert sorted(g.boundary) == [0, 1, 2, 3, 8, 9, 10, 11]


def test_build_grid_rectangular():
    g = build_grid(2.0, 1.0, 8, 4)
    assert g.n_nodes == 40 and g.hx == 0.25 and g.hy == 0.25


def test_node_coordinates_row_major():
    g = build_grid(1.0, 1.0, 4, 2)
    # idx = j*nx + i; node 5 is (i=1, j=1)
    assert g.x[5] == 0.25 and g.y[5] == 0.5
    assert g.y[0] == 0.0 and g.y[-1] == 1.0


def test_mass_values_on_unit_grid():
    m = assemble_masses(build_grid(1.0, 1.0, 4, 2))
    assert m.m_bulk[5] == 0.125 and m.m_surf[5] == 0.0
    assert m.m_bulk[0] == 0.0625 and m.m_surf[0] == 0.25 and m.m_comb[0] == 0.3125


@pytest.mark.parametrize("lx,ly,nx,ny", [(1.0, 1.0, 4, 2), (1.0, 1.0, 16, 8),
                                         (2.0, 1.0, 8, 4), (0.5, 2.0, 8, 6)])
def test_mass_totals(lx, ly, nx, ny):
    m = assemble_masses(build_grid(lx, ly, nx, ny))
    assert np.sum(m.m_bulk) == pytest.approx(lx * ly, rel=1e-14)
    assert np.sum(m.m_surf) == pytest.approx(2.0 * lx, rel=1e-14)
    assert np.sum(m.m_comb) == pytest.approx(lx * ly + 2.0 * lx, rel=1e-14)
    assert np.all(m.m_bulk > 0.0) and np.all(m.m_comb > 0.0)


def test_stiffness_annihilates_constants():
    for dims in ((1.0, 1.0, 8, 4), (2.0, 0.5, 16, 6)):
        g = build_grid(*dims)
        k = assemble_stiffness(g)
        scale = np.abs(k.matrix).sum(axis=1).max()
        assert np.max(np.abs(k.apply(np.ones(g.n_nodes)))) <= 1e-12 * scale


@pytest.mark.parametrize("lx,ly,nx,ny", [(1.0, 1.0, 4, 2), (1.3, 0.7, 9, 3),
                                         (2.0, 1.0, 8, 4), (1.0, 1.0, 16, 8)])
def test_tensor_apply_matches_csr(rng, lx, ly, nx, ny):
    g = build_grid(lx, ly, nx, ny)
    k = assemble_stiffness(g)
    for _ in range(5):
        z = rng.standard_normal(g.n_nodes)
        ref = k.matrix @ z
        assert np.linalg.norm(k.apply(z) - ref) <= 1e-15 * np.linalg.norm(ref)
    assert np.array_equal(k.apply(np.ones(g.n_nodes)), np.zeros(g.n_nodes))


def test_stiffness_symmetry_and_psd(rng):
    g = build_grid(1.0, 1.0, 16, 8)
    k = assemble_stiffness(g)
    for _ in range(5):
        z = rng.standard_normal(g.n_nodes)
        w = rng.standard_normal(g.n_nodes)
        zkw, wkz = z @ k.apply(w), w @ k.apply(z)
        assert zkw == pytest.approx(wkz, rel=1e-12)
        assert z @ k.apply(z) >= -1e-12 * (z @ z)


def test_stiffness_matches_form_oracle(rng):
    g = build_grid(1.0, 1.0, 8, 6)
    k = assemble_stiffness(g)
    for _ in range(5):
        z = rng.standard_normal(g.n_nodes)
        w = rng.standard_normal(g.n_nodes)
        assert z @ k.apply(w) == pytest.approx(oracles.full_form(g, z, w), rel=1e-12)
        assert np.allclose(k.apply(z), oracles.stiffness_apply(g, z),
                           rtol=1e-12, atol=1e-13)


def test_surface_form_cosine_example():
    g = build_grid(1.0, 1.0, 8, 4)
    k = assemble_stiffness(g)
    z = np.cos(2.0 * np.pi * np.arange(g.nx) / g.nx)
    z = np.tile(z, g.ny + 1)
    direct = 0.0
    for i in range(g.nx):
        d = np.cos(2.0 * np.pi * (i + 1) / g.nx) - np.cos(2.0 * np.pi * i / g.nx)
        direct += d * d / g.hx
    direct *= 2.0  # both boundary circles
    val = oracles.surf_form(g, z, z)
    assert val > 0.0
    assert val == pytest.approx(direct, rel=1e-12)
    # z is constant in y, so K adds only the bulk x edges (row weights summing to ny)
    bulk = g.ny * g.hy * direct / 2.0
    assert k.quad(z) - bulk == pytest.approx(direct, rel=1e-12)


def test_surface_form_vanishes_on_interior_support(rng):
    g = build_grid(1.0, 1.0, 8, 4)
    z = rng.standard_normal(g.n_nodes)
    z[g.boundary] = 0.0
    w = rng.standard_normal(g.n_nodes)
    assert abs(oracles.surf_form(g, z, w)) <= 1e-14


def test_first_eigenvalue_converges_to_coupled_form():
    errs = []
    for n in (32, 64):
        g = build_grid(1.0, 1.0, n, n)
        k = assemble_stiffness(g)
        m = sp.diags(assemble_masses(g).m_comb).tocsc()
        vals = spla.eigsh(k.matrix.tocsc(), k=3, M=m, sigma=0.0, which="LM",
                          v0=np.ones(g.n_nodes), return_eigenvectors=False)
        lam1 = sorted(v for v in vals if v > 1e-8)[0]
        errs.append(abs(lam1 - COUPLED_EIG) / COUPLED_EIG)
    assert errs[1] <= 0.05
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


def test_operator_self_convergence_is_second_order():
    def a_of(n):
        g = build_grid(1.0, 1.0, n, n)
        z = (np.sin(2.0 * np.pi * g.x)
             + (2.0 * g.y + g.y ** 2 + 2.0 * g.y ** 3 - 1.5 * g.y ** 4)
             * (1.0 + 0.5 * np.cos(2.0 * np.pi * g.x)))
        return assemble_stiffness(g).apply(z) / assemble_masses(g).m_comb

    def restrict(a, nf, nc):
        r = nf // nc
        return a.reshape(nf + 1, nf)[::r, ::r].ravel()

    a16, a32, a64 = a_of(16), a_of(32), a_of(64)
    d1 = np.max(np.abs(a16 - restrict(a32, 32, 16)))
    d2 = np.max(np.abs(a32 - restrict(a64, 64, 32)))
    assert d1 / d2 == pytest.approx(4.0, abs=0.5)


def mass_shift(nx, ny, c):
    """K + c m_comb with its exact inverse: the split system with split 0."""
    g = build_grid(1.0, 1.0, nx, ny)
    k = assemble_stiffness(g)
    m = assemble_masses(g)
    inv = assemble_shifted_inverse(g, m)
    return (lambda z: c * m.m_comb * z + k.apply(z), inv.solver(c),
            m.m_comb, np.zeros(g.n_nodes))


def test_solve_spd_identity(rng):
    rhs = rng.standard_normal(40)
    x = solve_spd(lambda z: z, lambda v: 1.0 * v, rhs, np.zeros(40))
    assert np.allclose(x, rhs, rtol=1e-10, atol=1e-12)


def test_solve_spd_constant_rhs_inverts_mass_shift():
    tau = 0.1
    apply_fn, precond, mc, zero = mass_shift(8, 4, 1.0 / tau)
    x = solve_spd(apply_fn, precond, mc * 1.0, zero)
    assert np.allclose(x, tau, rtol=1e-10, atol=1e-12)


def test_solve_spd_against_dense_factorization(rng):
    apply_fn, precond, mc, zero = mass_shift(16, 16, 1.0)
    rhs = rng.standard_normal(mc.size)
    x = solve_spd(apply_fn, precond, rhs, zero, tol=1e-12)
    xd = np.linalg.solve(oracles.dense_matrix(apply_fn, mc.size), rhs)
    assert np.linalg.norm(x - xd) <= 1e-8 * np.linalg.norm(xd)


def test_solve_spd_mean_zero_preservation(rng):
    tau = 0.05
    apply_fn, precond, mc, zero = mass_shift(8, 4, 1.0 / tau)
    r = rng.standard_normal(mc.size)
    x = solve_spd(apply_fn, precond, mc * r, zero, tol=1e-13)
    assert np.sum(mc * x) == pytest.approx(tau * np.sum(mc * r), rel=1e-9)


def test_solve_spd_iteration_cap(rng):
    apply_fn, precond, e = split_system(8, 4)
    rhs = rng.standard_normal(e.size)
    with pytest.raises(SolverError):
        solve_spd(apply_fn, precond, rhs, e, tol=1e-14, max_iter=2)


SHIFT_GRIDS = [(1.0, 1.0, 8, 4), (1.3, 0.7, 9, 3), (1.0, 1.0, 16, 16)]


@pytest.mark.parametrize("lx,ly,nx,ny", SHIFT_GRIDS + [(0.5, 2.0, 8, 6)])
def test_x_edge_weights_equal_row_mass_over_hx2(lx, ly, nx, ny):
    # the identity that makes K + c M separable, hence its inverse exact
    g = build_grid(lx, ly, nx, ny)
    k = assemble_stiffness(g)
    mc = assemble_masses(g).m_comb
    x_edge = k.edge_a // nx == k.edge_b // nx
    assert np.count_nonzero(x_edge) == (ny + 1) * nx
    assert np.allclose(k.edge_w[x_edge], mc[k.edge_a[x_edge]] / g.hx ** 2,
                       rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e4])
@pytest.mark.parametrize("lx,ly,nx,ny", SHIFT_GRIDS)
def test_shifted_inverse_matches_dense_solve(rng, lx, ly, nx, ny, c):
    g = build_grid(lx, ly, nx, ny)
    k = assemble_stiffness(g)
    m = assemble_masses(g)
    rhs = rng.standard_normal(g.n_nodes)
    dense = oracles.dense_matrix(lambda z: k.apply(z) + c * m.m_comb * z, g.n_nodes)
    xd = np.linalg.solve(dense, rhs)
    x = assemble_shifted_inverse(g, m).solver(c)(rhs)
    assert np.linalg.norm(x - xd) <= 1e-10 * np.linalg.norm(xd)


def phase_shift(g, m):
    """The phase-step shape m_comb / tau + m_bulk f'(chi), with f' varying over the strip."""
    return m.m_comb / 1e-3 \
        + m.m_bulk * 50.0 * (1.0 + np.cos(2.0 * np.pi * g.x) * np.sin(np.pi * g.y))


def test_shifted_inverse_pcg_agrees_with_dense_solve(rng):
    g = build_grid(1.0, 1.0, 16, 16)
    k = assemble_stiffness(g)
    m = assemble_masses(g)
    d = phase_shift(g, m)
    apply_fn = lambda z: k.apply(z) + d * z
    rhs = rng.standard_normal(g.n_nodes)
    c = float(np.mean(d / m.m_comb))
    inv = assemble_shifted_inverse(g, m)
    tol = 1e-10
    x = solve_spd(apply_fn, inv.solver(c), rhs, d - c * m.m_comb, tol=tol)
    xd = np.linalg.solve(oracles.dense_matrix(apply_fn, g.n_nodes), rhs)
    assert np.linalg.norm(apply_fn(x) - rhs) <= tol * np.linalg.norm(rhs)
    assert np.linalg.norm(x - xd) <= 10 * tol * np.linalg.norm(xd)


def counted(fn):
    """fn with a call counter in .calls."""
    def wrapped(v):
        wrapped.calls += 1
        return fn(v)
    wrapped.calls = 0
    return wrapped


def split_system(nx, ny):
    """The non-uniform phase-step shift, split as P + diag(e) with P = K + c M."""
    g = build_grid(1.0, 1.0, nx, ny)
    k = assemble_stiffness(g)
    m = assemble_masses(g)
    d = phase_shift(g, m)
    c = float(np.mean(d / m.m_comb))
    inv = assemble_shifted_inverse(g, m)
    return counted(lambda z: k.apply(z) + d * z), inv.solver(c), d - c * m.m_comb


def test_split_pcg_agrees_with_dense_solve_and_skips_applies(rng):
    apply_fn, precond, e = split_system(16, 16)
    rhs = rng.standard_normal(e.size)
    tol = 1e-10
    x = solve_spd(apply_fn, precond, rhs, e, tol=tol)
    assert apply_fn.calls <= 2, apply_fn.calls
    xd = np.linalg.solve(oracles.dense_matrix(apply_fn, e.size), rhs)
    assert np.linalg.norm(apply_fn(x) - rhs) <= tol * np.linalg.norm(rhs)
    assert np.linalg.norm(x - xd) <= 10 * tol * np.linalg.norm(xd)


def test_solve_spd_makes_one_precond_apply_per_update(rng):
    # with split 0 the exact inverse solves in one update: one apply of each
    apply_fn, precond, mc, zero = mass_shift(16, 16, 1.0)
    apply_fn, precond = counted(apply_fn), counted(precond)
    solve_spd(apply_fn, precond, rng.standard_normal(mc.size), zero)
    assert (precond.calls, apply_fn.calls) == (1, 1)
    # the split system: as many applies as updates, the least max_iter that converges
    apply_fn, precond, e = split_system(16, 16)
    precond = counted(precond)
    rhs = rng.standard_normal(e.size)
    x = solve_spd(apply_fn, precond, rhs, e)
    n = precond.calls
    assert n > 1
    assert np.array_equal(solve_spd(apply_fn, precond, rhs, e, max_iter=n), x)
    with pytest.raises(SolverError, match=f"in {n - 1} iterations"):
        solve_spd(apply_fn, precond, rhs, e, max_iter=n - 1)


def test_solve_spd_loose_tolerance_returns_zeros_without_precond(rng):
    apply_fn, precond, mc, zero = mass_shift(8, 4, 1.0)
    precond = counted(precond)
    x = solve_spd(apply_fn, precond, rng.standard_normal(mc.size), zero, tol=1.0)
    assert not x.any() and precond.calls == 0


@pytest.mark.parametrize("nx,ny", [(8, 4), (16, 16)])
@pytest.mark.parametrize("factor", [0.0, 3.0, -20.0, 50.0])
def test_split_pcg_with_a_wrong_split_verifies_or_raises(rng, nx, ny, factor):
    # factor 0 and 3 converge by restarts from the true residual; -20 and 50
    # make the recurrence operator indefinite or divergent
    apply_fn, precond, e = split_system(nx, ny)
    rhs = rng.standard_normal(e.size)
    try:
        x = solve_spd(apply_fn, precond, rhs, factor * e, tol=1e-10)
    except SolverError:
        assert factor not in (0.0, 3.0)
        return
    assert np.linalg.norm(apply_fn(x) - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_split_pcg_caps_its_restarts(rng):
    # split -20 e on 16x16 stagnates: the recurrence converges, the true residual
    # does not, and every check restarts; the solve must stop at the cap
    apply_fn, precond, e = split_system(16, 16)
    rhs = rng.standard_normal(e.size)
    with pytest.raises(SolverError, match="restarts"):
        solve_spd(apply_fn, precond, rhs, -20.0 * e, tol=1e-10)
    assert apply_fn.calls <= MAX_RESTARTS + 1, apply_fn.calls


def indefinite_system(rng, nx, ny, bordered):
    """K + diag(d) with d of mixed sign, or [[K + diag(d), -b], [-b^T, -c]] if bordered:
    solve_minres's (apply, precond, split) at P = K + sM, or blkdiag(K + sM, c), with
    s = max(|mean(d/m)|, 1e-3), and the dense matrix for the oracles."""
    g = build_grid(1.0, 1.0, nx, ny)
    k = assemble_stiffness(g)
    m = assemble_masses(g)
    n, mc = g.n_nodes, m.m_comb
    d = mc * rng.uniform(-30.0, 20.0, n)
    s = max(abs(float(np.mean(d / mc))), 1e-3)
    p_inv, e = assemble_shifted_inverse(g, m).solver(s), d - s * mc
    if not bordered:
        apply_fn = counted(lambda z: k.apply(z) + d * z)
        return apply_fn, p_inv, lambda v: e * v, oracles.dense_matrix(apply_fn, n)
    b, c = mc * rng.uniform(-1.0, 1.0, n), 2.3
    apply_fn = counted(lambda z: np.append(k.apply(z[:n]) + d * z[:n] - b * z[n],
                                           -b @ z[:n] - c * z[n]))
    return (apply_fn, lambda w: np.append(p_inv(w[:n]), w[n] / c),
            lambda v: np.append(e * v[:n] - b * v[n], -b @ v[:n] - 2.0 * c * v[n]),
            oracles.dense_matrix(apply_fn, n + 1))


@pytest.mark.parametrize("bordered", [False, True])
@pytest.mark.parametrize("nx,ny", [(8, 4), (16, 8), (9, 3)])
def test_minres_agrees_with_scipy_and_dense_solve(rng, nx, ny, bordered):
    apply_fn, precond, split, dense = indefinite_system(rng, nx, ny, bordered)
    eig = np.linalg.eigvalsh(dense)
    assert eig[0] < 0.0 < eig[-1]
    rhs = rng.standard_normal(dense.shape[0])
    apply_fn.calls = 0
    x = solve_minres(apply_fn, precond, rhs, split, tol=1e-12)
    assert apply_fn.calls <= 2, apply_fn.calls
    xd = np.linalg.solve(dense, rhs)
    m_inv = spla.LinearOperator(dense.shape, matvec=precond)
    xs, info = spla.minres(dense, rhs, M=m_inv, rtol=1e-13, maxiter=10 * rhs.size)
    assert info == 0
    assert np.linalg.norm(x - xd) <= 1e-9 * np.linalg.norm(xd)
    assert np.linalg.norm(x - xs) <= 1e-9 * np.linalg.norm(xs)


def test_minres_zero_rhs_returns_zeros(rng):
    apply_fn, precond, split, dense = indefinite_system(rng, 8, 4, True)
    apply_fn.calls, precond = 0, counted(precond)
    x = solve_minres(apply_fn, precond, np.zeros(dense.shape[0]), split)
    assert x.shape == (dense.shape[0],) and not x.any()
    assert (precond.calls, apply_fn.calls) == (0, 0)


def test_minres_iteration_cap(rng):
    apply_fn, precond, split, dense = indefinite_system(rng, 16, 8, True)
    rhs = rng.standard_normal(dense.shape[0])
    with pytest.raises(SolverError, match="MINRES did not converge in 2 iterations"):
        solve_minres(apply_fn, precond, rhs, split, tol=1e-12, max_iter=2)


def test_minres_returns_a_solution_found_at_its_iteration_cap(rng):
    """With A = P the preconditioned operator is the identity, so one iteration solves the
    system: at max_iter = 1 the true-residual check after the loop returns it."""
    g = build_grid(1.0, 1.0, 8, 4)
    k, m = assemble_stiffness(g), assemble_masses(g)
    p_inv, rhs = assemble_shifted_inverse(g, m).solver(2.0), rng.standard_normal(g.n_nodes)
    x = solve_minres(lambda z: k.apply(z) + 2.0 * m.m_comb * z, p_inv, rhs, lambda v: 0.0 * v,
                     tol=1e-12, max_iter=1)
    assert np.max(np.abs(x - p_inv(rhs))) <= 1e-12 * np.max(np.abs(x))


def test_minres_caps_its_restarts(rng):
    # a wrong split: the recurrence converges, the true residual does not
    apply_fn, precond, e = split_system(16, 16)
    rhs = rng.standard_normal(e.size)
    with pytest.raises(SolverError, match="MINRES stagnated"):
        solve_minres(apply_fn, precond, rhs, lambda v: -20.0 * e * v, tol=1e-10)
    assert apply_fn.calls <= MAX_RESTARTS + 1, apply_fn.calls


MATMUL_OWNERS = {"StiffnessOp.apply", "ShiftedInverse.solver", "assemble_stiffness",
                 "assemble_shifted_inverse"}


def test_matmul_only_multiplies_matrices():
    """`@` appears in src/pfstrip only inside the four functions that multiply matrices.
    A product of two vectors is written a.dot(b): the same ddot at about half the call
    cost of `@`'s generalized-ufunc dispatch, and a time step makes about 30 of them."""
    owners = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            prefixes = (".".join(scope[:i]) for i in range(1, len(scope) + 1))
            owner = next((name for name in prefixes if name in MATMUL_OWNERS), None)
            assert owner, f"{path.name}:{node.lineno}: `@` in {'.'.join(scope)}"
            owners.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(pathlib.Path(pfstrip.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    assert owners == MATMUL_OWNERS   # each allowance is still used


def test_no_relative_import_inside_a_function():
    """Every module imports its package siblings at its top, so no two modules import each
    other and no function hides a circular import.  An absolute import inside a function
    (StiffnessOp.matrix's scipy, loaded only on access) stays allowed."""
    for path in sorted(pathlib.Path(pfstrip.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    assert not (isinstance(node, ast.ImportFrom) and node.level), \
                        f"{path.name}:{node.lineno}: relative import in {func.name}"

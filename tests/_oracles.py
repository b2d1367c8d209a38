"""Independent brute-force oracles used to freeze expected values.

These never call the library's optimizers: the sphere oracle enumerates a
dense quasi-uniform grid on the unit sphere of C^2 (moduli parameter times a
relative phase, global phase fixed by invariance) and refines around the
best cell; the torus oracle scans the phases of the polydisc's extreme points
in any dimension and polishes every local peak of the scan.  Where the maths
gives a closed form, it is used instead: no grid limits its accuracy.
"""

import numpy as np


def lp_batched(x: np.ndarray, p: float) -> np.ndarray:
    """l_p norms of the columns of x."""
    mods = np.abs(x)
    if p == np.inf:
        return mods.max(axis=0)
    if p == 1.0:
        return mods.sum(axis=0)
    if p == 2.0:
        return np.sqrt((mods**2).sum(axis=0))
    return (mods**p).sum(axis=0) ** (1.0 / p)


def _sphere_points(domain_p: float, t: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Points (r1, r2 e^{i phi}) with l_p modulus profile (cos t, sin t)."""
    r1 = np.cos(t)[:, None] * np.ones_like(phi)[None, :]
    r2 = np.sin(t)[:, None] * np.exp(1j * phi)[None, :]
    x = np.stack([r1.ravel(), r2.ravel()]).astype(np.complex128)
    scale = lp_batched(x, domain_p)
    return x / scale


def dense_sphere_max(objective_batched, domain_p: float, grid: int = 341, rounds: int = 3):
    """max of a phase-invariant objective over the l_p unit sphere of C^2.

    ``objective_batched`` maps a (2, N) array of points to N values.  Runs
    ``grid**2`` points per round and shrinks the window around the argmax.
    """
    t_lo, t_hi = 0.0, np.pi / 2
    f_lo, f_hi = 0.0, 2 * np.pi
    best = -np.inf
    for _ in range(rounds):
        t = np.linspace(t_lo, t_hi, grid)
        phi = np.linspace(f_lo, f_hi, grid)
        x = _sphere_points(domain_p, t, phi)
        vals = objective_batched(x)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        ti, fi = divmod(k, grid)
        dt = (t_hi - t_lo) / (grid - 1)
        df = (f_hi - f_lo) / (grid - 1)
        t_lo, t_hi = max(0.0, t[ti] - 2 * dt), min(np.pi / 2, t[ti] + 2 * dt)
        f_lo, f_hi = phi[fi] - 2 * df, phi[fi] + 2 * df
    return best


def dense_gind_oracle(a: np.ndarray, domain_p: float, codomain_p: float, codomain_scale: float = 1.0):
    """Generalized induced norm of a 2x2 matrix by dense enumeration."""
    a = np.asarray(a, dtype=np.complex128)

    def objective(x):
        return codomain_scale * lp_batched(a @ x, codomain_p)

    return dense_sphere_max(objective, domain_p)


def dense_torus_max(objective_batched, radii, grid: int, rounds: int = 40, width: int = 9):
    """max of a convex, phase-invariant objective over the polydisc |x_j| <= r_j.

    The maximum lies on the torus x_j = r_j e^{i theta_j}, theta_0 = 0.
    ``objective_batched`` maps an (n, N) array of points to N values.  Scans
    ``grid**(n-1)`` phase vectors, then polishes every grid point that no
    axis neighbour beats with ``rounds`` local ``width**(n-1)`` grids, each
    half as wide as the one before.
    """
    r = np.asarray(radii, dtype=float)
    d = r.size - 1

    def points(theta):
        x = np.empty((d + 1, len(theta)), dtype=np.complex128)
        x[0] = r[0]
        x[1:] = r[1:, None] * np.exp(1j * theta.T)
        return x

    if d == 0:
        return float(objective_batched(points(np.zeros((1, 0))))[0])
    axis = 2 * np.pi * np.arange(grid) / grid
    mesh = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1)
    vals = objective_batched(points(mesh.reshape(-1, d))).reshape((grid,) * d)
    peaks = np.ones(vals.shape, dtype=bool)
    for ax in range(d):
        for shift in (1, -1):
            peaks &= vals >= np.roll(vals, shift, axis=ax)
    local = np.linspace(-1.0, 1.0, width)
    offsets = np.stack(np.meshgrid(*[local] * d, indexing="ij"), axis=-1).reshape(-1, d)
    best = -np.inf
    for idx in np.argwhere(peaks):
        center, value = axis[idx], float(vals[tuple(idx)])
        half = 2 * np.pi / grid
        for _ in range(rounds):
            cand = center + half * offsets
            cand_vals = objective_batched(points(cand))
            k = int(np.argmax(cand_vals))
            if cand_vals[k] >= value:
                center, value = cand[k], float(cand_vals[k])
            half /= 2
        best = max(best, value)
    return best


def linf_to_l2_closed_form(a, radii) -> float:
    """max ||Ax||_2 over the polydisc |x_j| <= r_j of a matrix with two
    columns: ||x_0 a_0 + x_1 a_1||^2 peaks at |x_j| = r_j with a relative phase
    that aligns the cross term, sqrt(r_0^2 |a_0|^2 + r_1^2 |a_1|^2 +
    2 r_0 r_1 |<a_0, a_1>|)."""
    a = np.asarray(a, dtype=np.complex128)
    r0, r1 = radii
    c0, c1 = a[:, 0], a[:, 1]
    sq = r0**2 * np.vdot(c0, c0).real + r1**2 * np.vdot(c1, c1).real
    return float(np.sqrt(sq + 2 * r0 * r1 * abs(np.vdot(c0, c1))))


def half_pairs_l2_closed_form(a) -> float:
    """max ||Ax||_2 over the unit ball of max(l1, 2 l-inf): its maximal
    vertices put 1/2 on two coordinates j < k (on the one at n = 1), so the
    maximum is the best two-column closed form at radii 1/2,
    max_{j<k} 1/2 sqrt(|a_j|^2 + |a_k|^2 + 2 |<a_j, a_k>|)."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[1]
    if n == 1:
        return 0.5 * float(np.sqrt(np.vdot(a[:, 0], a[:, 0]).real))
    return max(
        linf_to_l2_closed_form(a[:, [j, k]], (0.5, 0.5))
        for j in range(n)
        for k in range(j + 1, n)
    )

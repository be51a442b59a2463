"""symmetrizer_apply one field at a time: a test oracle.

The package's symmetrizer (bfdsim.energy._symmetrizer_parts) splits S by
powers of eps, S = S0 + eps*S1 + eps^2*S2, stacks its operands into one
inverse transform and its products into one forward transform, and reads
the dealiased v_j v_k from the state's memo.  This is the same split
operator with every operand, product and v_j v_k formed by its own
ifft_real or product_hat call, in the order the formulas are written, and
S0 + eps*S1 + eps^2*S2 summed as symmetrizer_apply sums it.  Each per-mode
operation and each transform is the one the package runs, and a stacked
transform is bitwise a per-field one, so the two agree bitwise.  Fields
read through .values are transformed one at a time here and cached, so
give each side fields of its own.
"""

from bfdsim.params import VARIANT_BD_DISTINCT, VARIANT_BD_EQUAL, check_variant
from bfdsim.symbols import symbol_table


def _vv_values(grid, vvals):
    """Dealiased values of every v_j v_k, each symmetric pair formed once."""
    dim = len(vvals)
    vv = [[None] * dim for _ in range(dim)]
    for j in range(dim):
        for k in range(j, dim):
            vv[j][k] = vv[k][j] = grid.ifft_real(grid.product_hat(vvals[j] * vvals[k]))
    return vv


def _dot(fs, gs):
    return sum(f * g for f, g in zip(fs, gs))


def symmetrizer_parts(state, arg_z, arg_v, variant):
    """[(S_i zeta component, [S_i v_j components]) for i = 0, 1, 2] applied
    to (arg_z, arg_v), S the case's symmetrizer with the coefficients
    (zeta, v) of the state; S2 is absent for b = d."""
    grid = state.grid
    p = state.params
    check_variant(p, variant)
    tab = symbol_table(grid, p)
    gg = p.gamma * (1.0 - p.gamma)
    omc = tab.one_minus_cmu
    zvals = state.zeta.values
    vvals = [c.values for c in state.v]
    dims = range(grid.dim)
    z_hat, v_hat = arg_z.hat, [a.hat for a in arg_v]

    if variant == VARIANT_BD_EQUAL:
        z_arg = arg_z.values
        v_arg = [a.values for a in arg_v]
        s0 = (gg * omc * z_hat, [tab.A * v_hat[j] for j in dims])
        s1 = (-grid.product_hat(_dot(vvals, v_arg)),
              [-grid.product_hat(zvals * v_arg[j] + vvals[j] * z_arg) for j in dims])
        return [s0, s1]

    z_omc = grid.ifft_real(omc * z_hat)
    v_omc = [grid.ifft_real(omc * a) for a in v_hat]
    vv = _vv_values(grid, vvals)

    if variant == VARIANT_BD_DISTINCT:
        g = tab.g
        v_x = v_omc
        v_y = [grid.ifft_real((g - 1.0) * a) for a in v_hat]
        m0_z, m0_v = gg * (gg * omc**2 * g), gg * (tab.A * omc)
        m_z, m_zx, m_vz, m_vy = -gg * g, -gg, -gg * g, 1.0
    else:
        helm_d = tab.helmholtz_d
        v_x = [grid.ifft_real(helm_d * a) for a in v_hat]
        v_y = [grid.ifft_real(grid.abs2_xi * a) for a in v_hat]  # -Lap arg_v
        m0_z, m0_v = gg * (gg * omc**2), gg * omc * (tab.A * helm_d)
        m_z, m_zx, m_vz, m_vy = -gg, -gg * omc, -gg, -(p.d * p.mu)
    s0 = (m0_z * z_hat, [m0_v * v_hat[j] for j in dims])
    s1 = (m_z * grid.product_hat(_dot(vvals, v_omc)),
          [m_zx * grid.product_hat(zvals * v_x[j]) + m_vz * grid.product_hat(vvals[j] * z_omc)
           for j in dims])
    s2 = (0.0 * z_hat, [m_vy * grid.product_hat(_dot(vv[j], v_y)) for j in dims])
    return [s0, s1, s2]


def symmetrizer_apply(state, arg_z, arg_v, variant):
    """The spectra of S applied to (arg_z, arg_v): S0 + eps*S1 (+ eps^2*S2)."""
    eps = state.params.epsilon
    (z0, v0), (z1, v1), *rest = symmetrizer_parts(state, arg_z, arg_v, variant)
    out_z = z0 + eps * z1
    out_v = [a + eps * b for a, b in zip(v0, v1)]
    for z2, v2 in rest:
        out_z = out_z + eps**2 * z2
        out_v = [a + eps**2 * b for a, b in zip(out_v, v2)]
    return out_z, tuple(out_v)

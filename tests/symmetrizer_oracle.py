"""symmetrizer_apply one field at a time: a test oracle.

The package's symmetrizer_apply (bfdsim.energy) stacks its operands into
one inverse transform and its products into one forward transform, and
reads the dealiased v_j v_k from the state's memo.  This is the same
operator with every operand, product and v_j v_k formed by its own
ifft_real or product_hat call, in the order the formulas are written.
Each per-mode operation and each transform is the one the package runs,
and a stacked transform is bitwise a per-field one, so the two agree
bitwise.  Fields read through .values are transformed one at a time here
and cached, so give each side fields of its own.
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


def symmetrizer_apply(state, arg_z, arg_v, variant):
    """The spectra of S applied to (arg_z, arg_v), S the case's symmetrizer
    with the coefficients (zeta, v) of the state."""
    grid = state.grid
    p = state.params
    check_variant(p, variant)
    tab = symbol_table(grid, p)
    gamma, eps, mu = p.gamma, p.epsilon, p.mu
    gg = gamma * (1.0 - gamma)
    omc = tab.one_minus_cmu
    zvals = state.zeta.values
    vvals = [c.values for c in state.v]
    dims = range(grid.dim)
    z_hat, v_hat = arg_z.hat, [a.hat for a in arg_v]

    if variant == VARIANT_BD_EQUAL:
        z_arg = arg_z.values
        v_arg = [a.values for a in arg_v]
        out_z = gg * omc * z_hat - eps * grid.product_hat(_dot(vvals, v_arg))
        out_v = tuple(
            tab.A * v_hat[j] - eps * grid.product_hat(zvals * v_arg[j] + vvals[j] * z_arg)
            for j in dims)
        return out_z, out_v

    z_omc = grid.ifft_real(omc * z_hat)
    v_omc = [grid.ifft_real(omc * a) for a in v_hat]
    vv = _vv_values(grid, vvals)

    if variant == VARIANT_BD_DISTINCT:
        g = tab.g
        v_g1 = [grid.ifft_real((g - 1.0) * a) for a in v_hat]
        out_z = (gg * (gg * omc**2 * g * z_hat)
                 - gg * eps * g * grid.product_hat(_dot(vvals, v_omc)))
        out_v = tuple(
            gg * (tab.A * omc * v_hat[j])
            + grid.product_hat(eps**2 * _dot(vv[j], v_g1) - gg * eps * zvals * v_omc[j])
            - gg * eps * g * grid.product_hat(vvals[j] * z_omc)
            for j in dims)
        return out_z, out_v

    helm_d = tab.helmholtz_d
    v_helm = [grid.ifft_real(helm_d * a) for a in v_hat]
    v_lap = [grid.ifft_real(grid.abs2_xi * a) for a in v_hat]  # -Lap arg_v
    out_z = gg * (gg * omc**2 * z_hat) - gg * eps * grid.product_hat(_dot(vvals, v_omc))
    out_v = tuple(
        gg * omc * (tab.A * (helm_d * v_hat[j]) - eps * grid.product_hat(zvals * v_helm[j]))
        - grid.product_hat(gg * eps * vvals[j] * z_omc
                           + p.d * eps**2 * mu * _dot(vv[j], v_lap))
        for j in dims)
    return out_z, out_v


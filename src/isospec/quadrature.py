"""Running quadrature on uniform grids.

All integrals in this package are prefix integrals F(x_q) = int_0^{x_q} f dt on
the same uniform grid the ODE integrator uses, so node alignment is exact and
no resampling ever happens.
"""

import numpy as np


def running_integral(values: np.ndarray, h: float) -> np.ndarray:
    """Prefix integrals of sampled values on a uniform grid.

    Even-index prefixes use composite Simpson. Odd-index prefixes use Simpson
    3/8 over the last three cells, and a 4-point cubic rule for the very first
    cell, keeping the running integral uniformly 4th order at every node.

    Parameters
    ----------
    values : ndarray, shape (n, ...)
        Samples of the integrand at the grid nodes; leading axis is the node
        axis, trailing axes ride along.
    h : float
        Node spacing.

    Returns
    -------
    ndarray of the same shape, prefix integrals with result[0] = 0.
    """
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    if n < 2:
        return np.zeros_like(f)
    out = np.empty_like(f)
    out[0] = 0.0

    if n >= 3:
        # composite Simpson over cell pairs, cumulated
        pair = (h / 3.0) * (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
        out[2::2] = np.cumsum(pair, axis=0)

    if n >= 4:
        out[1] = (h / 24.0) * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3])
        # Simpson 3/8 over cells [q-3, q]; prefix at q-3 is even, already done
        q = np.arange(3, n, 2)
        out[q] = out[q - 3] + (3.0 * h / 8.0) * (f[q - 3] + 3.0 * f[q - 2] + 3.0 * f[q - 1] + f[q])
    else:
        out[1] = (h / 2.0) * (f[0] + f[1])
    return out


def integral(values: np.ndarray, h: float) -> np.ndarray:
    """Integral over the whole grid, running_integral(values, h)[-1] bit for bit:
    at an odd node count only the Simpson pairs are cumulated, in the same order."""
    f = np.asarray(values, dtype=float)
    if f.shape[0] < 3 or f.shape[0] % 2 == 0:
        return running_integral(f, h)[-1]
    return np.cumsum((h / 3.0) * (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2]), axis=0)[-1]

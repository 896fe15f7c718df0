"""Hot numeric loops over an edge list: the power iteration, its
forward-mode Jacobian, and the reverse (adjoint) sweep that training
uses.  Plain numpy; ``np.bincount`` does the scatter-adds.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def power_iterate_arrays(src, dst, prob, n, start, T, tol):
    """T-step walk distribution from the start node over an edge list.

    Returns (v, steps_taken); stops early when the L1 change drops
    below tol.
    """
    v = np.zeros(n)
    v[start] = 1.0
    t = 0
    for t in range(1, T + 1):
        nxt = np.bincount(dst, weights=prob * v[src], minlength=n)
        delta = np.abs(nxt - v).sum()
        v = nxt
        if delta < tol:
            break
    return v, t


def row_bincount(idx, A, n):
    """Row-wise scatter-add: out[i, j] = sum of A[i, e] over idx[e] == j."""
    out = np.zeros((A.shape[0], n))
    for i, row in enumerate(A):
        out[i] = np.bincount(idx, weights=row, minlength=n)
    return out


def grad_power_iterate_arrays(src, dst, prob, dprob, n, start, T):
    """Walk distribution and its Jacobian wrt each of F edge-probability
    parameter directions, from T unrolled iterations (forward mode).

    ``dprob`` has shape (F, num_edges): d(prob[e])/d(param_i).  Returns
    (v, grad) with grad of shape (F, n).
    """
    v = np.zeros(n)
    v[start] = 1.0
    grad = np.zeros((dprob.shape[0], n))
    for _ in range(T):
        v_src = v[src]
        nxt = np.bincount(dst, weights=prob * v_src, minlength=n)
        ngrad = np.empty_like(grad)
        # one row at a time: the (F, m) temporaries of a single
        # expression fall out of cache and run slower
        for i in range(len(grad)):
            ngrad[i] = np.bincount(dst, weights=prob * grad[i, src]
                                   + dprob[i] * v_src, minlength=n)
        v, grad = nxt, ngrad
    return v, grad


def walk_history(src, dst, prob, n, start, T):
    """The walk distributions v_0..v_T of T unrolled iterations, as the
    rows of a (T + 1, n) array."""
    V = np.zeros((T + 1, n))
    V[0, start] = 1.0
    for t in range(1, T + 1):
        V[t] = np.bincount(dst, weights=prob * V[t - 1, src], minlength=n)
    return V


def prob_adjoint(src, dst, prob, V, coef):
    """d(coef . v_T)/d(prob[e]) for every edge, by one reverse sweep over
    the history ``V`` from ``walk_history``: with lambda_T = coef,

        gprob[e]     += lambda_t[dst[e]] * v_{t-1}[src[e]]
        lambda_{t-1}  = sum over e leaving u of prob[e] * lambda_t[dst[e]]
    """
    n = V.shape[1]
    lam = coef
    gprob = np.zeros(len(src))
    for t in range(V.shape[0] - 1, 0, -1):
        lam_dst = lam[dst]
        gprob += lam_dst * V[t - 1, src]
        lam = np.bincount(src, weights=prob * lam_dst, minlength=n)
    return gprob

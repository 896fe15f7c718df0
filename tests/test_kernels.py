"""The edge-list kernels against dense-matrix references, and the
reverse sweep against the forward-mode Jacobian."""

import numpy as np
import pytest

from pprlog.kernels import (backend_name, grad_power_iterate_arrays,
                            power_iterate_arrays, prob_adjoint,
                            walk_history)


def random_instance(seed, n=60, deg=4, F=5):
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n), deg)
    dst = rng.integers(0, n, n * deg)
    raw = rng.uniform(0.1, 1.0, n * deg).reshape(n, deg)
    prob = (raw / raw.sum(axis=1, keepdims=True)).ravel()
    dprob = rng.normal(0, 0.05, (F, n * deg))
    return src, dst, prob, dprob, n


def dense_transition(src, dst, prob, n):
    P = np.zeros((n, n))
    np.add.at(P, (src, dst), prob)
    return P


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_power_iterate_matches_dense_walk(seed):
    src, dst, prob, _, n = random_instance(seed)
    v, steps = power_iterate_arrays(src, dst, prob, n, 0, 40, 0.0)
    expected = np.linalg.matrix_power(dense_transition(src, dst, prob, n).T,
                                      40)[:, 0]
    assert steps == 40
    assert v == pytest.approx(expected, abs=1e-12)
    V = walk_history(src, dst, prob, n, 0, 40)
    assert V.shape == (41, n)
    assert V[0, 0] == 1.0 and V[0].sum() == 1.0
    assert np.abs(V[-1] - v).max() < 1e-15


@pytest.mark.parametrize("seed", [0, 1])
def test_reverse_sweep_matches_forward_jacobian(seed):
    src, dst, prob, dprob, n = random_instance(seed)
    coef = np.random.default_rng(seed + 100).normal(0, 1, n)
    v, grads = grad_power_iterate_arrays(src, dst, prob, dprob, n, 0, 15)
    V = walk_history(src, dst, prob, n, 0, 15)
    gprob = prob_adjoint(src, dst, prob, V, coef)
    assert np.abs(V[-1] - v).max() < 1e-15
    assert np.abs(dprob @ gprob - grads @ coef).max() < 1e-12
    # the sweep's gprob is d(coef . v_T)/d prob[e]: check one edge by
    # perturbing it alone
    e, h = 7, 1e-6
    bumped = []
    for sign in (1, -1):
        p = prob.copy()
        p[e] += sign * h
        bumped.append(coef @ walk_history(src, dst, p, n, 0, 15)[-1])
    assert gprob[e] == pytest.approx((bumped[0] - bumped[1]) / (2 * h),
                                     rel=1e-6, abs=1e-9)


def test_walk_mass_is_conserved():
    src, dst, prob, _, n = random_instance(3)
    v, _ = power_iterate_arrays(src, dst, prob, n, 0, 25, 0.0)
    assert v.sum() == pytest.approx(1.0)
    assert (v >= 0).all()


def test_early_stop_on_tolerance():
    # an absorbing single node converges after one step
    src = np.array([0], dtype=np.int64)
    dst = np.array([0], dtype=np.int64)
    prob = np.array([1.0])
    v, steps = power_iterate_arrays(src, dst, prob, 1, 0, 100, 1e-12)
    assert steps < 100
    assert v[0] == 1.0


def test_backend_name_is_valid():
    assert backend_name() == "numpy"

"""Test tools: :func:`run_group`, which runs a group of ranks the way
training does, finite-difference gradients with a relative error to
compare them by, :func:`identity_sweep`, the sweep tool whose fault
patches the training tests share, and the malformed PWM files that the
reader and the CLI tests share.  The reference implementations
themselves are in ``oracles.py``.
"""

from __future__ import annotations

import importlib.util
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest

from dcnn.transport import LINK_TIMEOUT_S, ProcessLinks, TransportStats, run_ranks

#: PWM files whose matrix Pwm rejects: (text, line of the fault, message)
BAD_MATRIX_PWMS = [
    pytest.param("#PWM m 2\n0.25 0.25 0.25 0.25\n0.5 0.5 0.5 0.5\n", 3,
                 "probabilities sum to 2.00000000, expected 1", id="row-sums-to-2"),
    pytest.param("#PWM m 0\n", 1, "PWM must have at least one row", id="no-rows"),
    pytest.param("#PWM m 3\n0.25 0.25 0.25 0.25\n\n0.25 0.25 0.25 0.25\n-0.5 0.5 0.5 0.5\n",
                 5, "probabilities must lie in [0, 1], got [-0.5, 0.5, 0.5, 0.5]",
                 id="negative-entry"),
]


def _with_stats(fn, endpoint):
    return fn(endpoint), endpoint.stats


def run_group(fns, dtype, forked=False, timeout=LINK_TIMEOUT_S):
    """Run ``fns[r](endpoint)`` as rank r of a fresh group of ``dtype``
    links through ``transport.run_ranks``, the runner training uses.

    Returns the results in rank order and the sends of every rank,
    merged.  Each rank returns its endpoint's stats with its result, so
    the count holds for forked ranks too.
    """
    links = ProcessLinks(len(fns), dtype, timeout=timeout)
    outcomes = run_ranks(
        links, [partial(_with_stats, fn, links.endpoint(r)) for r, fn in enumerate(fns)],
        forked,
    )
    stats = TransportStats()
    for _result, rank_stats in outcomes:
        stats.merge(rank_stats)
    return [result for result, _stats in outcomes], stats


def numerical_gradient(f, arr: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar-valued f() w.r.t. arr, mutated in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    grad_flat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        f_plus = f()
        flat[k] = orig - h
        f_minus = f()
        flat[k] = orig
        grad_flat[k] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise difference, normalized by the largest magnitude present."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


@cache
def identity_sweep():
    """``tools/identity_sweep.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "identity_sweep.py"
    spec = importlib.util.spec_from_file_location("identity_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

"""Test tools: :func:`run_group`, which runs a group of ranks the way
training does, finite-difference gradients with a relative error to
compare them by, and :func:`identity_sweep`, the sweep tool whose fault
patches the training tests share.  The reference implementations
themselves are in ``oracles.py``.
"""

from __future__ import annotations

import importlib.util
from functools import cache, partial
from pathlib import Path

import numpy as np

from dcnn.transport import LINK_TIMEOUT_S, ProcessLinks, TransportStats, run_ranks


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

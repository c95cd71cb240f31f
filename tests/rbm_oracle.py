"""Brute-force RBM oracle for the tests: exact Gibbs distribution of small nets.

Enumerates every visible/hidden state pair of an RBM with energy

    E(v, h) = -sum_ij w[i, j] h_i v_j - sum_j b_j v_j - sum_i c_i h_i

(w of shape (hidden, visible)). The exact partition function and joint
table are the reference that the factorized conditional formulas
p(h_i=1|v) = logistic(w v + c)_i and p(v_j=1|h) = logistic(w^T h + b)_j of
`lflc.dbn` are checked against. Only small nets are enumerable.
"""

from __future__ import annotations

import numpy as np

from lflc.dbn import RbmParams, hidden_probabilities, visible_probabilities
from lflc.wbi import bit_vectors

ENUMERATION_LIMIT = 20  # brute force walks 2^(n+m) states


def rbm_energy(params: RbmParams, v, h) -> float:
    v = np.asarray(v, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if v.shape != (params.visible_units,) or h.shape != (params.hidden_units,):
        raise ValueError(
            f"expected v of length {params.visible_units} and h of length "
            f"{params.hidden_units}, got {v.shape} and {h.shape}"
        )
    return float(-h @ params.w @ v - params.b @ v - params.c @ h)


def _state_energies(params: RbmParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, m = params.visible_units, params.hidden_units
    if n + m > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration over {n}+{m} units exceeds the {ENUMERATION_LIMIT} limit"
        )
    vs = bit_vectors(n)
    hs = bit_vectors(m)
    # energies[a, b] = E(vs[a], hs[b])
    energies = -(vs @ params.w.T @ hs.T) - (vs @ params.b)[:, None] - (hs @ params.c)[None, :]
    return vs, hs, energies


def partition_function_bruteforce(params: RbmParams) -> float:
    """Z by exhaustive enumeration; the normalization oracle for small nets."""
    _, _, energies = _state_energies(params)
    return float(np.exp(-energies).sum())


def joint_probabilities_bruteforce(params: RbmParams):
    """(visible states, hidden states, probability table p[a, b])."""
    vs, hs, energies = _state_energies(params)
    weights = np.exp(-energies)
    return vs, hs, weights / weights.sum()


def conditional_probabilities(params: RbmParams, side: str, clamped) -> np.ndarray:
    """Factorized conditional of one layer given the other, clamped.

    side "hidden" yields p(h|v) with clamped = v; side "visible" yields
    p(v|h) with clamped = h. Clamped values may be mean-field reals in [0,1].
    """
    clamped = np.asarray(clamped, dtype=np.float64)
    if side == "hidden":
        if clamped.shape != (params.visible_units,):
            raise ValueError(f"expected visible vector of length {params.visible_units}")
        return hidden_probabilities(params, clamped[None, :])[0]
    if side == "visible":
        if clamped.shape != (params.hidden_units,):
            raise ValueError(f"expected hidden vector of length {params.hidden_units}")
        return visible_probabilities(params, clamped[None, :])[0]
    raise ValueError(f"side must be 'hidden' or 'visible', got {side!r}")

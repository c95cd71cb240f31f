"""Scalable weighted-binary factorization of an image stack.

A stack of J images is approximated as sums of binary selection codes times
shared grayscale basis images:

    stack_j(u, v) ~= sum_n B[n, j] * r_n(u, v)

Codes live on the small stack index, basis images on the pixel grid. The
two factors are fit by alternating exact minimization: a ridge-regularized
least-squares solve for the basis images and an exhaustive per-index search
over all code bit vectors. Scalability comes from partitioning the N
components into M groups fit successively against residuals, so a decoder
holding only the first m groups still reconstructs a coherent approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_SEARCH_CAP = 8  # exhaustive search is 2^cap candidates per stack index
MAX_ALTERNATIONS = 50  # basis/code solve pairs per level
REL_TOLERANCE = 1e-7  # stop once the residual improves by less than this share
RIDGE = 1e-8  # basis-solve regularizer of encode_scalable
START_SEED = 7  # level m draws its start codes from seed START_SEED + m


def _as_stack(target) -> np.ndarray:
    stack = np.ascontiguousarray(np.asarray(target, dtype=np.float64))
    if stack.ndim != 4:
        raise ValueError(f"image stack must be (J, C, H, W), got {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("image stack contains non-finite values")
    return stack


@dataclass(frozen=True)
class WbiConfig:
    components: int = 4
    partition: tuple[int, ...] = (2, 2)

    def __post_init__(self):
        partition = tuple(int(x) for x in self.partition)
        object.__setattr__(self, "partition", partition)
        if not partition:
            raise ValueError("partition must hold at least one group")
        if self.components != sum(partition):
            raise ValueError(
                f"components ({self.components}) != sum of partition {partition}"
            )
        if any(size < 1 for size in partition):
            raise ValueError(f"empty group in partition {partition}")
        if any(size > MAX_SEARCH_CAP for size in partition):
            raise ValueError(
                f"group sizes {partition} exceed search cap {MAX_SEARCH_CAP}"
            )


@dataclass(frozen=True)
class WbiLevel:
    """One scalability level: codes and basis for its component group."""

    codes: np.ndarray  # (n, J) uint8 in {0, 1}
    basis: np.ndarray  # (n, C, H, W) float64
    residual_history: tuple[float, ...] = ()

    def contribution(self) -> np.ndarray:
        """Decoded (J, C, H, W) contribution of this level alone."""
        n, C, H, W = self.basis.shape
        flat = self.basis.reshape(n, -1)
        return (self.codes.T.astype(np.float64) @ flat).reshape(-1, C, H, W)


@dataclass(frozen=True)
class WbiCode:
    """Complete scalable factorization: ordered levels over the component set."""

    levels: tuple[WbiLevel, ...]

    @property
    def partition(self) -> tuple[int, ...]:
        return tuple(len(level.codes) for level in self.levels)

    @property
    def level_count(self) -> int:
        return len(self.levels)


def solve_basis(target, codes: np.ndarray, ridge: float = RIDGE) -> np.ndarray:
    """Least-squares basis images for fixed codes.

    Solves, independently for every pixel and channel, the ridge system
    (B B^T + ridge*I) r = B y over the active components. The Gram matrix is
    shared by all pixels so the whole solve is one (n x n) factorization.
    """
    stack = _as_stack(target)
    codes = np.asarray(codes, dtype=np.float64)
    if codes.ndim != 2 or codes.shape[1] != stack.shape[0]:
        raise ValueError(
            f"codes must be (n, J={stack.shape[0]}), got {codes.shape}"
        )
    n = codes.shape[0]
    if n > MAX_SEARCH_CAP:
        raise ValueError(f"active component count {n} exceeds {MAX_SEARCH_CAP}")
    J, C, H, W = stack.shape
    gram = codes @ codes.T + ridge * np.eye(n)
    rhs = codes @ stack.reshape(J, -1)
    try:
        flat = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        flat = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return flat.reshape(n, C, H, W)


def bit_vectors(n: int) -> np.ndarray:
    """All 2^n bit vectors ordered by integer value, first bit most significant."""
    values = np.arange(1 << n, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    return ((values[:, None] >> shifts[None, :]) & 1).astype(np.float64)


def solve_codes(target, basis: np.ndarray) -> np.ndarray:
    """Exhaustively optimal binary codes for fixed basis images.

    For each stack index j the candidate cost decomposes through the basis
    inner products:  ||y_j - sum b_n r_n||^2 = ||y_j||^2 + b^T G b - 2 b^T q_j
    with G(n, m) = <r_n, r_m> and q_j(n) = <r_n, y_j>, so scoring all 2^n
    candidates never touches the pixel grid. Ties resolve to the candidate
    with the smallest integer value (first bit most significant).
    """
    stack = _as_stack(target)
    basis = np.asarray(basis, dtype=np.float64)
    n = basis.shape[0]
    if basis.shape[1:] != stack.shape[1:]:
        raise ValueError(
            f"basis images {basis.shape[1:]} do not match stack {stack.shape[1:]}"
        )
    if n > MAX_SEARCH_CAP:
        raise ValueError(f"active component count {n} exceeds {MAX_SEARCH_CAP}")
    flat = basis.reshape(n, -1)
    gram = flat @ flat.T
    q = flat @ stack.reshape(stack.shape[0], -1).T  # (n, J)
    candidates = bit_vectors(n)  # (2^n, n)
    quad = np.einsum("vn,nm,vm->v", candidates, gram, candidates)
    cost = quad[:, None] - 2.0 * (candidates @ q)
    best = np.argmin(cost, axis=0)  # first occurrence = smallest integer
    return candidates[best].T.astype(np.uint8)


def _residual_norm(stack_flat: np.ndarray, codes: np.ndarray, basis_flat) -> float:
    decoded = codes.T.astype(np.float64) @ basis_flat
    return float(np.linalg.norm(stack_flat - decoded))


def alternate_minimize(
    target, n_act: int, ridge: float, seed: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Alternate basis and code solves until the factorization stops improving.

    Codes start Bernoulli(0.5) from `seed`, and `ridge` regularizes the
    basis solve. Each alternation runs one exact basis solve then one exact
    code search; the recorded residual norm history (starting from the
    zero-basis residual) is kept monotone non-increasing by reverting the
    final alternation if the ridge term ever nudges the residual upward.
    Stops when codes repeat, the relative residual change drops to
    REL_TOLERANCE or below, or MAX_ALTERNATIONS is reached.
    """
    stack = _as_stack(target)
    if n_act < 1:
        raise ValueError("n_act must be >= 1")
    if n_act > MAX_SEARCH_CAP:
        raise ValueError(f"n_act {n_act} exceeds search cap {MAX_SEARCH_CAP}")
    J = stack.shape[0]
    stack_flat = stack.reshape(J, -1)
    rng = np.random.default_rng(seed)
    codes = (rng.random((n_act, J)) < 0.5).astype(np.uint8)
    basis = np.zeros((n_act,) + stack.shape[1:], dtype=np.float64)
    history = [float(np.linalg.norm(stack_flat))]
    for _ in range(MAX_ALTERNATIONS):
        new_basis = solve_basis(stack, codes, ridge=ridge)
        new_codes = solve_codes(stack, new_basis)
        resid = _residual_norm(stack_flat, new_codes, new_basis.reshape(n_act, -1))
        if resid > history[-1]:
            break  # ridge-induced uptick: keep the previous factorization
        unchanged = np.array_equal(new_codes, codes)
        codes, basis = new_codes, new_basis
        prev = history[-1]
        history.append(resid)
        if unchanged:
            break
        if prev - resid <= REL_TOLERANCE * max(prev, 1e-300):
            break
    return codes, basis, history


def encode_scalable(target, config: WbiConfig | None = None) -> WbiCode:
    """Divide-and-conquer factorization over the configured level partition.

    Level 1 fits the original stack; every later level fits the residual the
    previous levels left behind, so basis images of higher levels may be
    negative. Level m (0-based) runs alternate_minimize with RIDGE and seed
    START_SEED + m, so a single level covering all components is bit-for-bit
    alternate_minimize(target, components, RIDGE, START_SEED).
    """
    config = config or WbiConfig()
    residual = _as_stack(target).copy()
    levels = []
    for m, size in enumerate(config.partition):
        codes, basis, history = alternate_minimize(
            residual, size, RIDGE, START_SEED + m
        )
        level = WbiLevel(codes=codes, basis=basis, residual_history=tuple(history))
        residual -= level.contribution()
        levels.append(level)
    return WbiCode(levels=tuple(levels))


def decode_levels(code: WbiCode, levels_used: int) -> np.ndarray:
    """Reconstruct the (J, C, H, W) stack from the first `levels_used` levels only.

    J is the code length and (C, H, W) the basis image shape of the levels.
    """
    if not 1 <= levels_used <= code.level_count:
        raise ValueError(
            f"levels_used must be in [1, {code.level_count}], got {levels_used}"
        )
    first = code.levels[0]
    out = np.zeros((first.codes.shape[1], *first.basis.shape[1:]), dtype=np.float64)
    for level in code.levels[:levels_used]:
        out += level.contribution()
    return out

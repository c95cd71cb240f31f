"""Weighted-binary factorization: exact solves, scalability, tie-breaks."""

import numpy as np
import pytest

from lflc.wbi import (
    RIDGE,
    START_SEED,
    WbiConfig,
    alternate_minimize,
    decode_levels,
    encode_scalable,
    solve_basis,
    solve_codes,
)


def naive_best_codes(target: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Pixel-domain exhaustive search, ties to the smallest candidate integer.

    The candidate integer reads the first component as the most significant
    bit, matching the production search order.
    """
    n = basis.shape[0]
    J = target.shape[0]
    flat_t = target.reshape(J, -1)
    flat_b = basis.reshape(n, -1)
    codes = np.zeros((n, J), dtype=np.uint8)
    for j in range(J):
        best_value, best_cost = None, None
        for value in range(1 << n):
            bits = [(value >> (n - 1 - i)) & 1 for i in range(n)]
            approx = np.zeros(flat_t.shape[1])
            for i, bit in enumerate(bits):
                if bit:
                    approx += flat_b[i]
            cost = float(np.sum((flat_t[j] - approx) ** 2))
            if best_cost is None or cost < best_cost:
                best_value, best_cost = value, cost
        for i in range(n):
            codes[i, j] = (best_value >> (n - 1 - i)) & 1
    return codes


class TestSolveBasis:
    def test_normal_equations_per_pixel(self):
        rng = np.random.default_rng(20)
        target = rng.random((4, 1, 3, 3))
        codes = (rng.random((3, 4)) < 0.5).astype(np.uint8)
        ridge = 1e-8
        basis = solve_basis(target, codes, ridge=ridge)
        # independent per-pixel solve of (B B^T + ridge I) r = B y
        B = codes.astype(np.float64)
        gram = B @ B.T + ridge * np.eye(3)
        for v in range(3):
            for u in range(3):
                expected = np.linalg.solve(gram, B @ target[:, 0, v, u])
                np.testing.assert_allclose(basis[:, 0, v, u], expected, atol=1e-12)

    def test_residual_is_normal_to_code_span(self):
        rng = np.random.default_rng(21)
        target = rng.random((5, 1, 4, 4))
        codes = (rng.random((2, 5)) < 0.5).astype(np.uint8)
        basis = solve_basis(target, codes, ridge=0.0)
        B = codes.astype(np.float64)
        recon = np.einsum("nj,nchw->jchw", B, basis)
        # B (y - B^T r) = 0 at the unregularized optimum
        gap = np.einsum("nj,jchw->nchw", B, target - recon)
        np.testing.assert_allclose(gap, 0.0, atol=1e-10)

    def test_all_zero_codes_give_zero_basis(self):
        target = np.random.default_rng(22).random((3, 1, 2, 2))
        basis = solve_basis(target, np.zeros((2, 3), dtype=np.uint8))
        np.testing.assert_allclose(basis, 0.0, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_basis(np.zeros((3, 1, 2, 2)), np.zeros((2, 4)))


class TestSolveCodes:
    def test_matches_naive_search(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            J = int(rng.integers(1, 5))
            target = rng.random((J, 1, 8, 8))
            basis = rng.normal(0, 0.4, (n, 1, 8, 8))
            fast = solve_codes(target, basis)
            np.testing.assert_array_equal(fast, naive_best_codes(target, basis))

    def test_tie_break_prefers_smaller_integer(self):
        # two identical basis images: candidates 01 and 10 cost the same,
        # the smaller integer (component 1 off, component 2 on) must win
        rng = np.random.default_rng(24)
        r = rng.random((1, 1, 4, 4))
        basis = np.concatenate([r, r], axis=0)
        target = r.copy()  # J = 1
        codes = solve_codes(target, basis)
        np.testing.assert_array_equal(codes, np.array([[0], [1]], dtype=np.uint8))
        np.testing.assert_array_equal(codes, naive_best_codes(target, basis))

    def test_zero_basis_ties_to_all_zero_code(self):
        target = np.random.default_rng(25).random((3, 1, 4, 4))
        codes = solve_codes(target, np.zeros((3, 1, 4, 4)))
        np.testing.assert_array_equal(codes, 0)

    def test_code_is_exhaustively_optimal(self):
        rng = np.random.default_rng(26)
        target = rng.random((2, 1, 6, 6))
        basis = rng.normal(0, 0.3, (4, 1, 6, 6))
        codes = solve_codes(target, basis)
        flat_b = basis.reshape(4, -1)
        flat_t = target.reshape(2, -1)
        for j in range(2):
            chosen = float(
                np.sum((flat_t[j] - codes[:, j].astype(float) @ flat_b) ** 2)
            )
            for value in range(16):
                bits = np.array([(value >> (3 - i)) & 1 for i in range(4)], float)
                cost = float(np.sum((flat_t[j] - bits @ flat_b) ** 2))
                assert chosen <= cost + 1e-9


class TestAlternateMinimize:
    def test_history_starts_at_target_norm_and_decreases(self):
        rng = np.random.default_rng(27)
        target = rng.random((6, 1, 8, 8))
        _, _, history = alternate_minimize(target, 3, ridge=1e-8, seed=7)
        np.testing.assert_allclose(history[0], np.linalg.norm(target), rtol=1e-12)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_zero_target_hits_zero_residual_immediately(self):
        _, _, history = alternate_minimize(np.zeros((4, 1, 4, 4)), 2, ridge=1e-8, seed=7)
        assert history[0] == 0.0
        assert history[1] == 0.0

    def test_reported_residual_matches_factorization(self):
        rng = np.random.default_rng(28)
        target = rng.random((5, 1, 6, 6))
        codes, basis, history = alternate_minimize(target, 2, ridge=1e-8, seed=7)
        recon = np.einsum("nj,nchw->jchw", codes.astype(float), basis)
        np.testing.assert_allclose(np.linalg.norm(target - recon), history[-1], rtol=1e-10)

    def test_single_component_exact_when_target_is_rank_one(self):
        rng = np.random.default_rng(29)
        r = rng.random((1, 1, 5, 5))
        pattern = np.array([1, 0, 1, 1, 0], dtype=np.float64)
        target = pattern[:, None, None, None] * r
        codes, basis, history = alternate_minimize(target, 1, ridge=0.0, seed=7)
        assert history[-1] <= 1e-10 * history[0]
        np.testing.assert_array_equal(codes[0], pattern.astype(np.uint8))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(30)
        target = rng.random((4, 1, 6, 6))
        a = alternate_minimize(target, 3, ridge=1e-8, seed=99)
        b = alternate_minimize(target, 3, ridge=1e-8, seed=99)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_search_cap_enforced(self):
        with pytest.raises(ValueError):
            alternate_minimize(np.zeros((2, 1, 2, 2)), 9, ridge=1e-8, seed=7)


class TestEncodeScalable:
    def test_single_level_bit_exact_with_plain_solver(self):
        rng = np.random.default_rng(31)
        target = rng.random((5, 1, 8, 8))
        code = encode_scalable(target, WbiConfig(components=4, partition=(4,)))
        codes, basis, history = alternate_minimize(target, 4, RIDGE, START_SEED)
        assert code.level_count == 1
        np.testing.assert_array_equal(code.levels[0].codes, codes)
        np.testing.assert_array_equal(code.levels[0].basis, basis)
        assert code.levels[0].residual_history == tuple(history)

    def test_levels_partition_components(self):
        rng = np.random.default_rng(32)
        code = encode_scalable(
            rng.random((4, 1, 8, 8)), WbiConfig(components=4, partition=(2, 1, 1))
        )
        assert code.partition == (2, 1, 1)
        assert [level.codes.shape for level in code.levels] == [(2, 4), (1, 4), (1, 4)]
        assert [level.basis.shape for level in code.levels] == [
            (2, 1, 8, 8),
            (1, 1, 8, 8),
            (1, 1, 8, 8),
        ]

    def test_residual_norm_non_increasing_over_levels(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            target = rng.random((4, 1, 8, 8))
            for partition in [(2, 2), (1, 1, 1, 1)]:
                code = encode_scalable(
                    target, WbiConfig(components=4, partition=partition)
                )
                norms = [
                    float(np.linalg.norm(target - decode_levels(code, m)))
                    for m in range(1, code.level_count + 1)
                ]
                full = [float(np.linalg.norm(target))] + norms
                assert all(b <= a + 1e-9 for a, b in zip(full, full[1:]))

    def test_decode_levels_is_cumulative_sum(self):
        rng = np.random.default_rng(34)
        code = encode_scalable(
            rng.random((3, 1, 6, 6)), WbiConfig(components=4, partition=(2, 2))
        )
        partial = code.levels[0].contribution()
        np.testing.assert_allclose(decode_levels(code, 1), partial, atol=1e-14)
        both = partial + code.levels[1].contribution()
        np.testing.assert_allclose(decode_levels(code, 2), both, atol=1e-14)

    def test_decode_levels_range_checked(self):
        rng = np.random.default_rng(35)
        code = encode_scalable(
            rng.random((2, 1, 4, 4)), WbiConfig(components=2, partition=(1, 1))
        )
        with pytest.raises(ValueError):
            decode_levels(code, 0)
        with pytest.raises(ValueError):
            decode_levels(code, 3)


class TestWbiConfig:
    def test_partition_must_sum_to_components(self):
        with pytest.raises(ValueError):
            WbiConfig(components=4, partition=(2, 3))

    def test_group_size_capped(self):
        with pytest.raises(ValueError):
            WbiConfig(components=9, partition=(9,))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            WbiConfig(components=2, partition=(2, 0))

    def test_empty_partition_rejected(self):
        # zero groups would sum to zero components and fail only at encode
        with pytest.raises(ValueError, match="at least one group"):
            WbiConfig(components=0, partition=())

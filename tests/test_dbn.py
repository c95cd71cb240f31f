"""RBM energy model, CD training, unrolled autoencoder, patch plumbing."""

import hashlib
import struct

import numpy as np
import pytest

from lflc import dbn
from lflc.dbn import (
    Autoencoder,
    DbnConfig,
    RbmParams,
    backprop_gradients,
    cd_update,
    decode_patches,
    depatchify,
    encode_patches,
    finetune,
    forward,
    hidden_probabilities,
    init_rbm,
    load_model,
    pretrain_stack,
    reconstruction_mse,
    save_model,
    sigmoid,
    tile_patches,
    training_patches,
    unroll,
    visible_probabilities,
)
from lflc.errors import ModelError
from rbm_oracle import (
    conditional_probabilities,
    joint_probabilities_bruteforce,
    partition_function_bruteforce,
    rbm_energy,
)


def random_params(rng, n, m, scale=0.8):
    return RbmParams(
        w=rng.normal(0, scale, (m, n)),
        b=rng.normal(0, scale, n),
        c=rng.normal(0, scale, m),
    )


def random_autoencoder(rng, sizes):
    """Directly sampled symmetric net, no pretraining involved."""
    dims = list(sizes) + list(sizes[-2::-1])
    weights = tuple(
        rng.normal(0, 0.5, (dims[i + 1], dims[i])) for i in range(len(dims) - 1)
    )
    biases = tuple(rng.normal(0, 0.1, dims[i + 1]) for i in range(len(dims) - 1))
    return Autoencoder(weights=weights, biases=biases)


def two_branch_sigmoid(x):
    """Reference logistic: one boolean-mask branch per sign of x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def per_array_finetune(ae, data, config):
    """finetune's momentum step written as three small ops per array: the
    reference for its one flat-vector step."""
    rng = np.random.default_rng(config.seed + 1)
    params = [array.copy() for array in ae.weights + ae.biases]
    depth = len(ae.weights)

    def net():
        return Autoencoder(weights=tuple(params[:depth]), biases=tuple(params[depth:]))

    velocities = [np.zeros_like(p) for p in params]
    best, best_error = [p.copy() for p in params], reconstruction_mse(net(), data)
    for _ in range(config.epochs):
        for index in dbn._minibatches(data.shape[0], config.batch_size, rng):
            grads_w, grads_b, _ = backprop_gradients(net(), data[index])
            for p, v, g in zip(params, velocities, grads_w + grads_b):
                v *= config.momentum
                v -= config.learning_rate * g
                p += v
        error = reconstruction_mse(net(), data)
        if error < best_error:
            best, best_error = [p.copy() for p in params], error
    return best


def sha256_of(arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(0.0) == 0.5
        np.testing.assert_allclose(sigmoid(0.2), 0.5498339973124778, rtol=1e-12)

    def test_extremes_are_finite(self):
        out = sigmoid(np.array([-1000.0, -50.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] >= 0.0 and out[-1] <= 1.0
        np.testing.assert_allclose(out[-1], 1.0, atol=1e-15)

    def test_symmetry(self):
        x = np.linspace(-8, 8, 33)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_bit_identical_to_two_branch_form(self):
        special = np.array(
            [0.0, -0.0, 1e-320, -1e-320, 1.0, -1.0, 709.0, -709.0, 745.2, -745.2,
             np.inf, -np.inf, np.nan]
        )
        assert np.array_equal(sigmoid(special), two_branch_sigmoid(special), equal_nan=True)
        rng = np.random.default_rng(38)
        for trial in range(300):
            x = rng.normal(0.0, 10.0 ** (trial % 4), size=(int(rng.integers(1, 50)), 8))
            assert np.array_equal(sigmoid(x), two_branch_sigmoid(x))

    def test_zero_d_input_gives_a_scalar(self):
        for x in (0.0, -0.7, np.float64(3.0), np.array(-0.7)):
            out = sigmoid(x)
            assert isinstance(out, np.float64)
            assert out == two_branch_sigmoid(np.array(x))[()]

    @pytest.mark.parametrize("shape", ["0-d", "empty", "transposed", "6144x8"])
    def test_layouts_match_reference_and_input_untouched(self, shape):
        rng = np.random.default_rng(39)
        x = {
            "0-d": np.array(-0.7),
            "empty": np.empty((0, 8)),
            "transposed": rng.normal(0.0, 5.0, (8, 33)).T,
            "6144x8": rng.normal(0.0, 5.0, (6144, 8)),
        }[shape]
        before = x.copy()
        out = sigmoid(x)
        assert np.array_equal(x, before)
        assert np.shape(out) == x.shape
        assert np.array_equal(out, two_branch_sigmoid(x))


class TestEnergy:
    def test_hand_value(self):
        params = RbmParams(w=[[0.1, 0.5]], b=[0.1, 0.2], c=[0.1])
        # -h W v - b.v - c.h = -(0.1) - (0.1) - (0.1)
        np.testing.assert_allclose(
            rbm_energy(params, [1.0, 0.0], [1.0]), -0.3, atol=1e-12
        )

    def test_zero_state_energy_is_zero(self):
        params = random_params(np.random.default_rng(0), 3, 2)
        assert rbm_energy(params, np.zeros(3), np.zeros(2)) == 0.0

    def test_shape_errors(self):
        params = random_params(np.random.default_rng(1), 3, 2)
        with pytest.raises(ValueError):
            rbm_energy(params, np.zeros(2), np.zeros(2))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RbmParams(w=np.zeros((2, 3)), b=np.zeros(2), c=np.zeros(2))
        with pytest.raises(ValueError):
            RbmParams(w=np.full((1, 1), np.nan), b=np.zeros(1), c=np.zeros(1))


class TestBruteForce:
    def test_zero_params_partition_counts_states(self):
        params = RbmParams(w=np.zeros((1, 2)), b=np.zeros(2), c=np.zeros(1))
        np.testing.assert_allclose(partition_function_bruteforce(params), 8.0)

    def test_joint_table_normalizes(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            params = random_params(rng, n, m)
            _, _, table = joint_probabilities_bruteforce(params)
            assert table.shape == (1 << n, 1 << m)
            assert np.all(table >= 0)
            np.testing.assert_allclose(table.sum(), 1.0, atol=1e-12)

    def test_table_entries_are_boltzmann_weights(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 3, 2)
        vs, hs, table = joint_probabilities_bruteforce(params)
        z = partition_function_bruteforce(params)
        for a in (0, 3, 7):
            for b in (0, 2):
                expected = np.exp(-rbm_energy(params, vs[a], hs[b])) / z
                np.testing.assert_allclose(table[a, b], expected, rtol=1e-12)

    def test_enumeration_limit(self):
        params = RbmParams(w=np.zeros((11, 10)), b=np.zeros(10), c=np.zeros(11))
        with pytest.raises(ValueError):
            partition_function_bruteforce(params)


class TestConditionals:
    def test_hand_value(self):
        params = RbmParams(w=[[0.2]], b=[0.0], c=[0.0])
        p = conditional_probabilities(params, "hidden", [1.0])
        np.testing.assert_allclose(p, [0.549834], atol=5e-7)

    def test_factorized_conditionals_match_joint_table(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            params = random_params(rng, n, m)
            vs, hs, table = joint_probabilities_bruteforce(params)
            for a in range(1 << n):
                cond = table[a] / table[a].sum()
                q = conditional_probabilities(params, "hidden", vs[a])
                product = np.prod(np.where(hs == 1, q, 1.0 - q), axis=1)
                np.testing.assert_allclose(product, cond, atol=1e-12)
            for b in range(1 << m):
                cond = table[:, b] / table[:, b].sum()
                q = conditional_probabilities(params, "visible", hs[b])
                product = np.prod(np.where(vs == 1, q, 1.0 - q), axis=1)
                np.testing.assert_allclose(product, cond, atol=1e-12)

    def test_hidden_unit_permutation_invariance(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 3, 3)
        perm = np.array([2, 0, 1])
        permuted = RbmParams(w=params.w[perm], b=params.b, c=params.c[perm])
        np.testing.assert_allclose(
            partition_function_bruteforce(permuted),
            partition_function_bruteforce(params),
            rtol=1e-12,
        )
        v = np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(
            conditional_probabilities(permuted, "hidden", v),
            conditional_probabilities(params, "hidden", v)[perm],
            atol=1e-14,
        )

    def test_side_and_shape_validation(self):
        params = random_params(np.random.default_rng(6), 2, 3)
        with pytest.raises(ValueError):
            conditional_probabilities(params, "sideways", np.zeros(2))
        with pytest.raises(ValueError):
            conditional_probabilities(params, "hidden", np.zeros(3))

    def test_batched_helpers_agree_with_single(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 4, 3)
        batch = (rng.random((5, 4)) < 0.5).astype(float)
        ph = hidden_probabilities(params, batch)
        for row in range(5):
            np.testing.assert_allclose(
                ph[row], conditional_probabilities(params, "hidden", batch[row])
            )
        hidden = (rng.random((5, 3)) < 0.5).astype(float)
        pv = visible_probabilities(params, hidden)
        for row in range(5):
            np.testing.assert_allclose(
                pv[row], conditional_probabilities(params, "visible", hidden[row])
            )


class TestLikelihoodGradient:
    def test_exact_gradient_matches_finite_difference(self):
        """Expectation-difference gradient vs numeric d/dw of mean log p(v)."""
        rng = np.random.default_rng(8)
        params = random_params(rng, 3, 2, scale=0.5)
        batch = (rng.random((6, 3)) < 0.5).astype(float)

        def mean_log_likelihood(p):
            vs, _, table = joint_probabilities_bruteforce(p)
            pv = table.sum(axis=1)
            values = []
            for row in batch:
                index = int(np.dot(row, 2 ** np.arange(2, -1, -1)))
                values.append(np.log(pv[index]))
            return float(np.mean(values))

        vs, hs, table = joint_probabilities_bruteforce(params)
        ph = hidden_probabilities(params, batch)
        positive = ph.T @ batch / batch.shape[0]
        negative = np.einsum("ab,bi,aj->ij", table, hs, vs)
        analytic = positive - negative

        eps = 1e-5
        for i in range(2):
            for j in range(3):
                delta = np.zeros((2, 3))
                delta[i, j] = eps
                hi = mean_log_likelihood(
                    RbmParams(w=params.w + delta, b=params.b, c=params.c)
                )
                lo = mean_log_likelihood(
                    RbmParams(w=params.w - delta, b=params.b, c=params.c)
                )
                numeric = (hi - lo) / (2 * eps)
                np.testing.assert_allclose(analytic[i, j], numeric, atol=1e-6)


class TestCdUpdate:
    def test_deterministic_under_seeded_rng(self):
        params = random_params(np.random.default_rng(10), 4, 2)
        batch = (np.random.default_rng(11).random((6, 4)) < 0.5).astype(float)
        a = cd_update(params, batch, np.random.default_rng(42))
        b = cd_update(params, batch, np.random.default_rng(42))
        assert [g.shape for g in a] == [(2, 4), (4,), (2,)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_validation(self):
        params = random_params(np.random.default_rng(14), 3, 2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            cd_update(params, np.zeros((0, 3)), rng)
        with pytest.raises(ValueError):
            cd_update(params, np.zeros((4, 2)), rng)

    def test_training_halves_reconstruction_cross_entropy(self):
        def cross_entropy(params, batch):
            # mean-field reconstruction v -> p(h|v) -> p(v|h)
            ph = hidden_probabilities(params, batch)
            pv = np.clip(visible_probabilities(params, ph), 1e-12, 1.0 - 1e-12)
            ce = -(batch * np.log(pv) + (1.0 - batch) * np.log(1.0 - pv))
            return float(ce.sum(axis=1).mean())

        rng = np.random.default_rng(0)
        params = init_rbm(4, 2, rng)
        batch = np.array([[1, 1, 0, 0], [0, 0, 1, 1]] * 8, dtype=float)
        velocity = (0.0, 0.0, 0.0)
        before = cross_entropy(params, batch)
        for _ in range(200):
            grads = cd_update(params, batch, rng)
            velocity = [0.5 * v - 0.1 * g for v, g in zip(velocity, grads)]
            params = RbmParams(
                *(p + v for p, v in zip((params.w, params.b, params.c), velocity))
            )
        after = cross_entropy(params, batch)
        assert after <= 0.5 * before


class TestPretrain:
    def test_zero_epochs_returns_seeded_init(self):
        data = (np.random.default_rng(15).random((20, 6)) < 0.5).astype(float)
        config = DbnConfig(layer_sizes=(4, 5, 3, 2), epochs=0, seed=77)
        stack = pretrain_stack(data, config)
        rng = np.random.default_rng(77)
        width = 6
        for params, size in zip(stack, config.layer_sizes):
            expected = init_rbm(width, size, rng)
            assert np.array_equal(params.w, expected.w)
            assert np.array_equal(params.b, expected.b)
            assert np.array_equal(params.c, expected.c)
            width = size

    def test_zero_learning_rate_returns_seeded_init(self, monkeypatch):
        inits = []

        def recording_init(*args):
            inits.append(init_rbm(*args))
            return inits[-1]

        monkeypatch.setattr(dbn, "init_rbm", recording_init)
        data = (np.random.default_rng(9).random((20, 4)) < 0.5).astype(float)
        config = DbnConfig(
            layer_sizes=(3, 5, 2, 1), epochs=3, learning_rate=0.0,
            momentum=0.9, batch_size=8,
        )
        stack = pretrain_stack(data, config)
        assert len(inits) == len(stack) == 4
        for params, expected in zip(stack, inits):
            assert np.array_equal(params.w, expected.w)
            assert np.array_equal(params.b, expected.b)
            assert np.array_equal(params.c, expected.c)

    def test_layer_dims_chain(self):
        data = np.random.default_rng(16).random((30, 9))
        config = DbnConfig(
            layer_sizes=(6, 8, 4, 2), epochs=1, batch_size=10
        )
        stack = pretrain_stack(data, config)
        assert stack[0].visible_units == 9
        dims = [(p.visible_units, p.hidden_units) for p in stack]
        assert dims == [(9, 6), (6, 8), (8, 4), (4, 2)]

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            pretrain_stack(np.empty((0, 4)), DbnConfig(layer_sizes=(2, 3, 2, 1)))


class TestAutoencoder:
    def test_unroll_structure(self):
        rng = np.random.default_rng(17)
        stack = [
            random_params(rng, 6, 4),
            random_params(rng, 4, 3),
        ]
        ae = unroll(stack)
        assert ae.sizes == (6, 4, 3, 4, 6)
        assert ae.encoder_depth == 2
        assert ae.code_units == 3
        np.testing.assert_array_equal(ae.weights[0], stack[0].w)
        np.testing.assert_array_equal(ae.weights[1], stack[1].w)
        np.testing.assert_array_equal(ae.weights[2], stack[1].w.T)
        np.testing.assert_array_equal(ae.weights[3], stack[0].w.T)
        np.testing.assert_array_equal(ae.biases[0], stack[0].c)
        np.testing.assert_array_equal(ae.biases[1], stack[1].c)
        np.testing.assert_array_equal(ae.biases[2], stack[1].b)
        np.testing.assert_array_equal(ae.biases[3], stack[0].b)

    def test_unroll_copies_are_untied(self):
        rng = np.random.default_rng(18)
        stack = [random_params(rng, 4, 3)]
        ae = unroll(stack)
        for params in stack:
            for model_array in ae.weights + ae.biases:
                for rbm_array in (params.w, params.b, params.c):
                    assert not np.shares_memory(model_array, rbm_array)

    def test_unroll_rejects_mismatched_chain(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError):
            unroll([random_params(rng, 4, 3), random_params(rng, 2, 2)])
        with pytest.raises(ValueError):
            unroll([])

    def test_forward_is_layerwise_logistic(self):
        rng = np.random.default_rng(20)
        ae = random_autoencoder(rng, (5, 3, 2))
        batch = rng.random((4, 5))
        acts = forward(ae, batch)
        assert len(acts) == 5
        cur = batch
        for w, b, act in zip(ae.weights, ae.biases, acts[1:]):
            cur = sigmoid(cur @ w.T + b)
            np.testing.assert_allclose(act, cur, atol=1e-15)

    def test_encode_decode_compose_to_forward(self):
        rng = np.random.default_rng(21)
        ae = random_autoencoder(rng, (6, 4, 2))
        batch = rng.random((7, 6))
        codes = encode_patches(ae, batch)
        assert codes.shape == (7, 2)
        assert np.all((codes > 0) & (codes < 1))
        np.testing.assert_allclose(
            decode_patches(ae, codes), forward(ae, batch)[-1], atol=1e-15
        )

    def test_row_shapes_checked(self):
        ae = random_autoencoder(np.random.default_rng(39), (6, 4, 2))
        for call, width in ((forward, 6), (encode_patches, 6), (decode_patches, 2)):
            call(ae, np.zeros((3, width)))
            with pytest.raises(ValueError):
                call(ae, np.zeros((3, width + 1)))
            with pytest.raises(ValueError):
                call(ae, np.zeros(width))

    def test_validation(self):
        rng = np.random.default_rng(22)
        w = rng.normal(size=(3, 4))
        with pytest.raises(ValueError):  # odd depth
            Autoencoder(weights=(w,), biases=(np.zeros(3),))
        with pytest.raises(ValueError):  # sizes not symmetric
            Autoencoder(
                weights=(rng.normal(size=(3, 4)), rng.normal(size=(5, 3))),
                biases=(np.zeros(3), np.zeros(5)),
            )
        with pytest.raises(ValueError):  # chain break
            Autoencoder(
                weights=(rng.normal(size=(3, 4)), rng.normal(size=(4, 2))),
                biases=(np.zeros(3), np.zeros(4)),
            )

    @pytest.mark.parametrize("array", ["weight", "bias"])
    def test_non_finite_parameter_rejected(self, array):
        ae = random_autoencoder(np.random.default_rng(24), (4, 3, 2))
        weights = [w.copy() for w in ae.weights]
        biases = [b.copy() for b in ae.biases]
        (weights if array == "weight" else biases)[2][0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Autoencoder(weights=tuple(weights), biases=tuple(biases))


class TestBackprop:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        ae = random_autoencoder(rng, (4, 3, 2))
        batch = rng.random((5, 4))
        grads_w, grads_b, loss = backprop_gradients(ae, batch)

        def loss_of(weights, biases):
            other = Autoencoder(weights=tuple(weights), biases=tuple(biases))
            recon = forward(other, batch)[-1]
            return 0.5 * float(np.sum((recon - batch) ** 2)) / batch.shape[0]

        np.testing.assert_allclose(
            loss, loss_of(ae.weights, ae.biases), rtol=1e-12
        )
        eps = 1e-6
        for layer in range(len(ae.weights)):
            flat = ae.weights[layer].ravel()
            for pos in range(0, flat.size, max(1, flat.size // 5)):
                weights = [w.copy() for w in ae.weights]
                weights[layer].ravel()[pos] += eps
                hi = loss_of(weights, ae.biases)
                weights[layer].ravel()[pos] -= 2 * eps
                lo = loss_of(weights, ae.biases)
                numeric = (hi - lo) / (2 * eps)
                np.testing.assert_allclose(
                    grads_w[layer].ravel()[pos], numeric, atol=1e-7
                )
            for pos in range(ae.biases[layer].size):
                biases = [b.copy() for b in ae.biases]
                biases[layer][pos] += eps
                hi = loss_of(ae.weights, biases)
                biases[layer][pos] -= 2 * eps
                lo = loss_of(ae.weights, biases)
                numeric = (hi - lo) / (2 * eps)
                np.testing.assert_allclose(
                    grads_b[layer][pos], numeric, atol=1e-7
                )


class TestFinetune:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(24)
        ae = random_autoencoder(rng, (4, 3, 2))
        data = rng.random((12, 4))
        config = DbnConfig(
            layer_sizes=(3, 4, 3, 2), epochs=3, learning_rate=0.0,
            batch_size=4,
        )
        tuned = finetune(ae, data, config)
        for before, after in zip(ae.weights, tuned.weights):
            assert np.array_equal(before, after)

    def test_never_ends_worse_than_input(self):
        rng = np.random.default_rng(25)
        ae = random_autoencoder(rng, (6, 4, 2))
        data = rng.random((30, 6))
        base = reconstruction_mse(ae, data)
        for lr in (0.01, 0.5, 5.0):  # the large rate would diverge unguarded
            config = DbnConfig(
                layer_sizes=(4, 5, 4, 2), epochs=5, learning_rate=lr,
                batch_size=10,
            )
            tuned = finetune(ae, data, config)
            assert reconstruction_mse(tuned, data) <= base + 1e-15

    def test_training_reduces_error(self):
        rng = np.random.default_rng(26)
        ae = random_autoencoder(rng, (6, 5, 3))
        data = rng.random((40, 6))
        config = DbnConfig(
            layer_sizes=(5, 6, 5, 3), epochs=30, learning_rate=0.5,
            batch_size=10,
        )
        tuned = finetune(ae, data, config)
        assert reconstruction_mse(tuned, data) < 0.9 * reconstruction_mse(ae, data)

    def test_input_untouched_and_result_unshared(self, monkeypatch):
        rng = np.random.default_rng(40)
        ae = random_autoencoder(rng, (6, 5, 3))
        data = rng.random((40, 6))
        before = [array.copy() for array in ae.weights + ae.biases]
        working = []
        gradients = dbn.backprop_gradients

        def spy(net, batch):
            working.append(net)
            return gradients(net, batch)

        monkeypatch.setattr(dbn, "backprop_gradients", spy)
        config = DbnConfig(
            layer_sizes=(5, 6, 5, 3), epochs=6, learning_rate=0.5,
            batch_size=10,
        )
        tuned = finetune(ae, data, config)
        assert len(working) == 6 * 4
        assert all(net is working[0] for net in working)  # one working network
        for array, saved in zip(ae.weights + ae.biases, before):
            assert np.array_equal(array, saved)
        assert reconstruction_mse(tuned, data) < reconstruction_mse(ae, data)
        others = ae.weights + ae.biases + working[0].weights + working[0].biases
        for array in tuned.weights + tuned.biases:
            assert not any(np.shares_memory(array, other) for other in others)
        for array in working[0].weights + working[0].biases:
            assert not any(np.shares_memory(array, other) for other in ae.weights + ae.biases)


    @pytest.mark.parametrize(
        "sizes, count, lr, momentum, batch",
        [((6, 5, 3), 40, 0.5, 0.5, 10), ((9, 7, 4), 45, 0.3, 0.9, 16),
         ((4, 3, 2), 7, 5.0, 0.0, 3)],
    )
    def test_flat_step_equals_per_array_loop(self, sizes, count, lr, momentum, batch):
        rng = np.random.default_rng(41)
        ae = random_autoencoder(rng, sizes)
        data = rng.random((count, sizes[0]))
        config = DbnConfig(
            layer_sizes=(5, 8, 5, 3), epochs=7, learning_rate=lr,
            momentum=momentum, batch_size=batch,
        )
        tuned = finetune(ae, data, config)
        expected = per_array_finetune(ae, data, config)
        assert len(expected) == len(tuned.weights + tuned.biases)
        for got, want in zip(tuned.weights + tuned.biases, expected):
            assert np.array_equal(got, want)


class TestTrainingGolden:
    """SHA-256 of a small seeded pretrain -> unroll -> finetune run.

    The digests pin every weight, bias and mean-field reconstruction bit for
    bit; any change to the arithmetic of CD, backprop, the momentum updates
    or the logistic moves them. They depend on numpy's float64 matmul, so a
    different BLAS build may need them recomputed.
    """

    def test_digests(self):
        data = np.random.default_rng(2024).random((96, 9)) ** 2
        sizes = dict(layer_sizes=(6, 8, 4, 2), patch=3, batch_size=16, seed=3)
        pretrain = DbnConfig(epochs=4, learning_rate=0.1, momentum=0.5, **sizes)
        tune = DbnConfig(epochs=6, learning_rate=0.5, momentum=0.9, **sizes)
        ae = unroll(pretrain_stack(data, pretrain))
        tuned = finetune(ae, data, tune)
        assert reconstruction_mse(tuned, data) < reconstruction_mse(ae, data)
        assert sha256_of(tuned.weights + tuned.biases) == (
            "501b8a029b234fb3b57f04c41ac7705dd6916157ab5291b05d4a8aaddc0c81da"
        )
        assert sha256_of([decode_patches(tuned, encode_patches(tuned, data))]) == (
            "04890de9186fcad50f043b3d2b0939c619be6d59c2978472401c47e4d5c7cd59"
        )


class TestPatchify:
    def test_training_mode_counts_full_placements(self):
        image = np.random.default_rng(27).random((10, 13))
        vectors = training_patches(image, 4, 3, 0.0)
        rows = len(range(0, 10 - 4 + 1, 3))
        cols = len(range(0, 13 - 4 + 1, 3))
        assert vectors.shape == (rows * cols, 16)
        np.testing.assert_array_equal(vectors[0], image[:4, :4].reshape(-1))
        np.testing.assert_array_equal(vectors[cols + 1], image[3:7, 3:7].reshape(-1))

    def test_training_mode_drops_flat_patches(self):
        image = np.zeros((8, 8))
        image[4:, 4:] = np.random.default_rng(28).random((4, 4))
        vectors = training_patches(image, 4, 4, 1e-6)
        np.testing.assert_array_equal(vectors, image[4:, 4:].reshape(1, 16))

    def test_all_flat_training_set_is_empty(self):
        vectors = training_patches(np.full((8, 8), 0.3), 4, 4, 1e-4)
        assert vectors.shape == (0, 16)

    def test_coding_roundtrip_non_multiple_size(self):
        image = np.random.default_rng(29).random((10, 7))
        vectors = tile_patches(image, 4)
        assert vectors.shape == (3 * 2, 16)
        np.testing.assert_array_equal(depatchify(vectors, 4, (10, 7)), image)

    def test_coding_pad_replicates_edges(self):
        image = np.arange(30.0).reshape(5, 6) / 30.0
        vectors = tile_patches(image, 4)
        assert vectors.shape == (2 * 2, 16)
        # bottom-right tile covers rows 4..7, cols 4..7 of the padded image
        tile = vectors[3].reshape(4, 4)
        np.testing.assert_array_equal(tile[0, :2], image[4, 4:6])
        np.testing.assert_array_equal(tile[:, 2], tile[:, 1])  # col replication
        np.testing.assert_array_equal(tile[1], tile[0])  # row replication

    def test_validation(self):
        image = np.random.default_rng(34).random((8, 8))
        with pytest.raises(ValueError):
            tile_patches(image, 1)
        with pytest.raises(ValueError):
            tile_patches(image, 16)
        with pytest.raises(ValueError):
            tile_patches(np.zeros((2, 2, 2)), 2)
        with pytest.raises(ValueError):
            training_patches(image, 16, 4, 0.0)
        with pytest.raises(ValueError):
            training_patches(image, 4, 0, 0.0)
        with pytest.raises(ValueError):  # 9 stride-2 placements, not 4 tiles
            depatchify(training_patches(image, 4, 2, 0.0), 4, (8, 8))
        tiles = tile_patches(image, 4)
        with pytest.raises(ValueError):
            depatchify(tiles[1:], 4, (8, 8))
        with pytest.raises(ValueError):
            depatchify(tiles, 2, (8, 8))
        with pytest.raises(ValueError):
            depatchify(tiles, 4, (9, 8))


class TestModelIo:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(35)
        ae = random_autoencoder(rng, (9, 6, 4, 2))
        path = tmp_path / "net.dbn"
        save_model(path, ae)
        loaded = load_model(path)
        assert loaded.sizes == ae.sizes
        for a, b in zip(ae.weights, loaded.weights):
            assert np.array_equal(a, b)
        for a, b in zip(ae.biases, loaded.biases):
            assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dbn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ModelError):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(36)
        ae = random_autoencoder(rng, (5, 3, 2))
        path = tmp_path / "cut.dbn"
        save_model(path, ae)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(37)
        ae = random_autoencoder(rng, (4, 2))
        path = tmp_path / "fat.dbn"
        save_model(path, ae)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ModelError):
            load_model(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        rng = np.random.default_rng(38)
        ae = random_autoencoder(rng, (4, 2))
        path = tmp_path / "nan.dbn"
        save_model(path, ae)
        raw = bytearray(path.read_bytes())
        # weights[1][0, 1]: the second f64 of the last layer, before its biases
        start = len(raw) - 8 * (ae.weights[1].size + ae.biases[1].size) + 8
        raw[start : start + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelError, match="non-finite"):
            load_model(path)

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_model_arrays_are_read_only(self, tmp_path, source):
        ae = random_autoencoder(np.random.default_rng(39), (4, 2))
        if source == "loaded":
            save_model(tmp_path / "net.dbn", ae)
            ae = load_model(tmp_path / "net.dbn")
        for array in ae.weights + ae.biases:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = np.nan
        params = random_params(np.random.default_rng(40), 3, 2)
        for array in (params.w, params.b, params.c):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = np.nan


class TestDbnConfig:
    def test_bottleneck_ordering_enforced(self):
        with pytest.raises(ValueError):
            DbnConfig(layer_sizes=(128, 64, 256, 32))
        with pytest.raises(ValueError):
            DbnConfig(layer_sizes=(256, 128, 64, 32))
        DbnConfig(layer_sizes=(128, 256, 64, 32))

    def test_size_rule_has_no_override(self):
        with pytest.raises(TypeError):
            DbnConfig(layer_sizes=(256, 128, 64, 32), allow_any_sizes=True)

    def test_needs_exactly_four_sizes(self):
        with pytest.raises(ValueError):
            DbnConfig(layer_sizes=(128, 256, 64))

    def test_scalar_bounds(self):
        with pytest.raises(ValueError):
            DbnConfig(patch=1)
        with pytest.raises(ValueError):
            DbnConfig(epochs=-1)

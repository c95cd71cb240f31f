"""Restricted Boltzmann Machines and the RBM-pretrained deep autoencoder.

Basis images are cut into patch vectors, a stack of binary-binary RBMs is
pretrained greedily with contrastive divergence (real inputs in [0,1] are
treated as Bernoulli probabilities), the stack is unrolled into a symmetric
untied autoencoder with a logistic activation on every layer, and the whole
network is fine-tuned by backpropagation on mean squared reconstruction
error. The bottleneck activations are the latent codes the bitstream
quantizes and entropy-codes.

Both trainers take one momentum step, velocity = momentum * velocity -
learning_rate * gradient, on a private flat vector whose views are the
parameters: pretraining steps against cd_update's CD-1 gradient, fine-tuning
against backprop_gradients'. Built RbmParams and Autoencoder hold read-only
copies of their arrays, so nothing changes a model after its finiteness
check, through the model or through the arrays it was built from.

Energy of a visible/hidden pair:

    E(v, h) = -sum_ij w[i, j] h_i v_j - sum_j b_j v_j - sum_i c_i h_i

with w of shape (hidden, visible), whose factorized conditionals are
p(h_i=1|v) = logistic(w v + c)_i and p(v_j=1|h) = logistic(w^T h + b)_j.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ModelError

DEFAULT_LAYER_SIZES = (128, 256, 64, 32)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-x) for x >= 0 and
    e^x / (1 + e^x) below, with e = exp(-|x|) never overflowing.

    The numerator max(e, x >= 0) is 1 for x >= 0 (where e <= 1) and e below
    (NaN stays NaN). e is built in one fresh buffer, also for 0-d input,
    which returns a scalar; x is never written.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty(x.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def _rows(batch, width: int, what: str) -> np.ndarray:
    """`batch` as a float (count, width) array, or ValueError."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != width:
        raise ValueError(f"{what} must be (count, {width}), got {batch.shape}")
    return batch


def _read_only(array) -> np.ndarray:
    """A read-only C-contiguous float64 copy of `array`."""
    copy = np.array(array, dtype=np.float64, order="C")
    copy.flags.writeable = False
    return copy


def _unchecked(cls, **fields):
    """A `cls` model holding `fields` as they are, with no check or copy: the
    trainers' working model over their flat vector, never handed out."""
    model = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(model, name, value)
    return model


@dataclass(frozen=True)
class RbmParams:
    """Weights (hidden, visible) and the two bias vectors, read-only."""

    w: np.ndarray
    b: np.ndarray  # visible biases, length n
    c: np.ndarray  # hidden biases, length m

    def __post_init__(self):
        w, b, c = (_read_only(a) for a in (self.w, self.b, self.c))
        if w.ndim != 2 or b.ndim != 1 or c.ndim != 1:
            raise ValueError("w must be a matrix, b and c vectors")
        if w.shape != (c.size, b.size):
            raise ValueError(
                f"weight shape {w.shape} inconsistent with biases ({c.size}, {b.size})"
            )
        for arr in (w, b, c):
            if not np.all(np.isfinite(arr)):
                raise ValueError("RBM parameters must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def visible_units(self) -> int:
        return self.b.size

    @property
    def hidden_units(self) -> int:
        return self.c.size


def init_rbm(n_visible: int, n_hidden: int, rng, scale: float = 0.01) -> RbmParams:
    """Small-normal weights, zero biases."""
    w = scale * rng.standard_normal((n_hidden, n_visible))
    return RbmParams(w=w, b=np.zeros(n_visible), c=np.zeros(n_hidden))


def hidden_probabilities(params: RbmParams, visible: np.ndarray) -> np.ndarray:
    """p(h_i = 1 | v) for a batch of visible rows."""
    return sigmoid(visible @ params.w.T + params.c)


def visible_probabilities(params: RbmParams, hidden: np.ndarray) -> np.ndarray:
    """p(v_j = 1 | h) for a batch of hidden rows."""
    return sigmoid(hidden @ params.w + params.b)


def cd_update(params: RbmParams, batch: np.ndarray, rng) -> tuple[np.ndarray, ...]:
    """The CD-1 descent direction (grad_w, grad_b, grad_c) on a mini-batch.

    Positive statistics come from the data and p(h|data); the negative phase
    runs one Gibbs step in which hidden units are sampled binary and visible
    units keep their probabilities (the final hidden term is also a
    probability). Each gradient is negative minus positive statistics, so a
    trainer steps against it as it steps against a loss gradient.
    """
    batch = _rows(batch, params.visible_units, "batch")
    if batch.shape[0] == 0:
        raise ValueError("batch is empty")
    count = batch.shape[0]

    ph0 = hidden_probabilities(params, batch)
    hidden = (rng.random(ph0.shape) < ph0).astype(np.float64)
    visible = visible_probabilities(params, hidden)
    ph = hidden_probabilities(params, visible)

    grad_w = (ph.T @ visible - ph0.T @ batch) / count
    grad_b = (visible - batch).mean(axis=0)
    grad_c = (ph - ph0).mean(axis=0)
    return grad_w, grad_b, grad_c


def _flat_copy(arrays) -> tuple[list[np.ndarray], np.ndarray]:
    """Copies of `arrays` as views of one new flat vector, and that vector."""
    flat = np.concatenate([a.ravel() for a in arrays])
    views, start = [], 0
    for a in arrays:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views, flat


def _momentum_step(flat, velocity, grads, lr: float, momentum: float) -> None:
    """velocity = momentum * velocity - lr * grad, then flat += velocity, in
    place, for gradients `grads` laid out in the order of flat's views."""
    grad = np.concatenate([g.ravel() for g in grads])
    velocity *= momentum
    grad *= lr
    velocity -= grad
    flat += velocity


@dataclass(frozen=True)
class DbnConfig:
    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES
    patch: int = 16
    stride: int = 32
    variance_threshold: float = 1e-4
    epochs: int = 20
    learning_rate: float = 0.05
    momentum: float = 0.5
    batch_size: int = 64
    seed: int = 11

    def __post_init__(self):
        sizes = tuple(int(x) for x in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) != 4 or any(s < 1 for s in sizes):
            raise ValueError(f"layer_sizes must be four sizes >= 1, got {sizes}")
        f1, f2, f3, f4 = sizes
        if not (f2 > f3 > f4 and f2 > f1):
            raise ValueError(f"layer sizes {sizes} violate F2 > F3 > F4 and F2 > F1")
        if self.patch < 2:
            raise ValueError("patch must be >= 2")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.variance_threshold < 0:
            raise ValueError("variance_threshold must be >= 0")


def _minibatches(count: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(count)
    return [order[i : i + batch_size] for i in range(0, count, batch_size)]


def pretrain_stack(data, config: DbnConfig) -> list[RbmParams]:
    """Greedy layer-by-layer CD-1 pretraining of the encoder RBM chain.

    Each RBM trains as views of one flat vector with momentum steps against
    cd_update's gradient, and its trained hidden probabilities become the
    visible data of the next layer. With epochs = 0 or learning_rate = 0
    the seeded initial parameters come back unchanged, which pins the
    initialization for reproducibility tests.
    """
    visible = np.asarray(data, dtype=np.float64)
    if visible.ndim != 2 or visible.shape[0] == 0:
        raise ValueError("training data must be a non-empty (count, dim) array")
    rng = np.random.default_rng(config.seed)
    stack = []
    for size in config.layer_sizes:
        init = init_rbm(visible.shape[1], size, rng)
        views, flat = _flat_copy((init.w, init.b, init.c))
        work = _unchecked(RbmParams, w=views[0], b=views[1], c=views[2])
        velocity = np.zeros_like(flat)
        for _ in range(config.epochs):
            for index in _minibatches(visible.shape[0], config.batch_size, rng):
                grads = cd_update(work, visible[index], rng)
                _momentum_step(
                    flat, velocity, grads, config.learning_rate, config.momentum
                )
        stack.append(RbmParams(*views))
        visible = hidden_probabilities(stack[-1], visible)
    return stack


@dataclass(frozen=True)
class Autoencoder:
    """Affine layers with a logistic activation after every one of them;
    the weight and bias arrays are read-only."""

    weights: tuple[np.ndarray, ...]  # per layer, (out_dim, in_dim)
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        weights = tuple(_read_only(w) for w in self.weights)
        biases = tuple(_read_only(b) for b in self.biases)
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching non-empty weight and bias lists")
        if len(weights) % 2 != 0:
            raise ValueError("encoder and decoder halves must have equal depth")
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError("each layer needs an (out, in) matrix and out bias")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("autoencoder has a non-finite weight or bias")
        for prev, nxt in zip(weights, weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ValueError(
                    f"layer dims do not chain: {prev.shape} then {nxt.shape}"
                )
        sizes = self.sizes_of(weights)
        if sizes != sizes[::-1]:
            raise ValueError(f"layer size chain {sizes} is not symmetric")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @staticmethod
    def sizes_of(weights) -> tuple[int, ...]:
        return (weights[0].shape[1],) + tuple(w.shape[0] for w in weights)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.sizes_of(self.weights)

    @property
    def encoder_depth(self) -> int:
        return len(self.weights) // 2

    @property
    def code_units(self) -> int:
        return self.weights[self.encoder_depth - 1].shape[0]

    @property
    def input_units(self) -> int:
        return self.weights[0].shape[1]


def unroll(stack: list[RbmParams]) -> Autoencoder:
    """Unfold the RBM chain into an untied symmetric autoencoder.

    Encoder layer i carries RBM i's recognition direction (w, c); the decoder
    appends the generative directions (w^T, b) in reverse order. The
    Autoencoder copies every array, so it shares no memory with the RBMs.
    """
    if not stack:
        raise ValueError("empty RBM stack")
    for lower, upper in zip(stack, stack[1:]):
        if upper.visible_units != lower.hidden_units:
            raise ValueError(
                f"stack dims do not chain: {lower.hidden_units} hidden feeding "
                f"{upper.visible_units} visible"
            )
    weights = [p.w for p in stack] + [p.w.T for p in reversed(stack)]
    biases = [p.c for p in stack] + [p.b for p in reversed(stack)]
    return Autoencoder(weights=tuple(weights), biases=tuple(biases))


def _layers(ae: Autoencoder, layers: slice, batch: np.ndarray) -> list[np.ndarray]:
    """The batch, then the activation after each layer of the slice."""
    activations = [batch]
    for w, b in zip(ae.weights[layers], ae.biases[layers]):
        z = activations[-1] @ w.T
        z += b
        activations.append(sigmoid(z))
    return activations


def forward(ae: Autoencoder, batch: np.ndarray) -> list[np.ndarray]:
    """Activations after every layer; index -1 is the reconstruction."""
    return _layers(ae, slice(None), _rows(batch, ae.input_units, "batch"))


def encode_patches(ae: Autoencoder, patches: np.ndarray) -> np.ndarray:
    """Mean-field pass through the encoder half; rows land in (0,1)^F4."""
    patches = _rows(patches, ae.input_units, "patches")
    return _layers(ae, slice(ae.encoder_depth), patches)[-1]


def decode_patches(ae: Autoencoder, codes: np.ndarray) -> np.ndarray:
    """Mean-field pass through the decoder half."""
    codes = _rows(codes, ae.code_units, "codes")
    return _layers(ae, slice(ae.encoder_depth, None), codes)[-1]


def reconstruction_mse(ae: Autoencoder, batch: np.ndarray) -> float:
    activations = forward(ae, batch)
    error = activations[-1] - activations[0]
    error *= error
    return float(np.mean(error))


def backprop_gradients(ae: Autoencoder, batch: np.ndarray):
    """Gradients of 0.5 * mean-per-sample squared error; returns (gw, gb, loss)."""
    activations = forward(ae, batch)
    batch = activations[0]
    count = batch.shape[0]
    recon = activations[-1]
    error = recon - batch
    loss = 0.5 * float(np.sum(error * error)) / count
    delta = error / count * recon * (1.0 - recon)
    grads_w = [None] * len(ae.weights)
    grads_b = [None] * len(ae.weights)
    for layer in range(len(ae.weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ activations[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            back = delta @ ae.weights[layer]
            prev = activations[layer]
            delta = back * prev * (1.0 - prev)
    return grads_w, grads_b, loss


def finetune(ae: Autoencoder, data, config: DbnConfig) -> Autoencoder:
    """Mini-batch momentum backprop on reconstruction MSE.

    Trains one private copy of the network in place and returns a snapshot
    of the best full-data error seen (the untouched input network included),
    so the result never ends worse than it started even if the last epochs
    overshoot. The input network is left as it was. The copy's parameters
    are views of one flat vector, so each minibatch's momentum step is four
    whole-vector operations, the same step pretrain_stack takes.
    """
    vectors = np.asarray(data, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("training data must be a non-empty (count, dim) array")
    rng = np.random.default_rng(config.seed + 1)
    depth = len(ae.weights)
    views, flat = _flat_copy(ae.weights + ae.biases)
    weights, biases = tuple(views[:depth]), tuple(views[depth:])
    work = _unchecked(Autoencoder, weights=weights, biases=biases)
    velocity = np.zeros_like(flat)
    best = Autoencoder(work.weights, work.biases)
    best_error = reconstruction_mse(work, vectors)
    for _ in range(config.epochs):
        for index in _minibatches(vectors.shape[0], config.batch_size, rng):
            grads_w, grads_b, _ = backprop_gradients(work, vectors[index])
            _momentum_step(
                flat, velocity, grads_w + grads_b, config.learning_rate,
                config.momentum,
            )
        error = reconstruction_mse(work, vectors)
        if error < best_error:
            best, best_error = Autoencoder(work.weights, work.biases), error
    return best


def _checked_image(image, p: int) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-D grayscale, got shape {image.shape}")
    if p < 2:
        raise ValueError("patch size must be >= 2")
    if image.shape[0] < p or image.shape[1] < p:
        raise ValueError(f"image {image.shape} smaller than patch {p}")
    return image


def training_patches(
    image: np.ndarray, p: int, stride: int, variance_threshold: float
) -> np.ndarray:
    """(count, p*p) training vectors from a stride-spaced window.

    Only full placements are taken, row-major, and near-uniform patches
    (variance below the threshold) are dropped, so count may be zero.
    """
    image = _checked_image(image, p)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    H, W = image.shape
    tiles = (
        image[y : y + p, x : x + p]
        for y in range(0, H - p + 1, stride)
        for x in range(0, W - p + 1, stride)
    )
    kept = [tile.reshape(-1) for tile in tiles if tile.var() >= variance_threshold]
    return np.array(kept, dtype=np.float64).reshape(-1, p * p)


def tile_patches(image: np.ndarray, p: int) -> np.ndarray:
    """(rows * cols, p*p) vectors tiling the image row-major with stride p.

    The right and bottom edges are padded by replication, so depatchify
    inverts the tiling exactly; nothing is dropped.
    """
    image = _checked_image(image, p)
    H, W = image.shape
    rows, cols = -(-H // p), -(-W // p)
    padded = np.pad(image, ((0, rows * p - H), (0, cols * p - W)), mode="edge")
    tiles = padded.reshape(rows, p, cols, p).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(tiles.reshape(rows * cols, p * p))


def depatchify(vectors: np.ndarray, patch: int, shape: tuple[int, int]) -> np.ndarray:
    """Reassemble tile_patches vectors into the (H, W) image they tile."""
    H, W = shape
    rows, cols = -(-H // patch), -(-W // patch)
    if vectors.shape != (rows * cols, patch * patch):
        raise ValueError(
            f"expected {rows * cols} patches of {patch * patch} values, "
            f"got {vectors.shape}"
        )
    tiles = vectors.reshape(rows, cols, patch, patch).transpose(0, 2, 1, 3)
    return tiles.reshape(rows * patch, cols * patch)[:H, :W].copy()


MODEL_MAGIC = b"DBN1"


def save_model(path, ae: Autoencoder) -> None:
    """Magic, layer-size chain, then per-layer f64 weights and biases."""
    sizes = ae.sizes
    blob = [MODEL_MAGIC, struct.pack("<I", len(ae.weights))]
    blob.append(struct.pack(f"<{len(sizes)}I", *sizes))
    for w, b in zip(ae.weights, ae.biases):
        blob.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        blob.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    with open(path, "wb") as handle:
        handle.write(b"".join(blob))


def load_model(path) -> Autoencoder:
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:4] != MODEL_MAGIC:
        raise ModelError(f"bad model magic {raw[:4]!r}")
    offset = 4
    try:
        (layer_count,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        sizes = struct.unpack_from(f"<{layer_count + 1}I", raw, offset)
        offset += 4 * (layer_count + 1)
        weights, biases = [], []
        for layer in range(layer_count):
            in_dim, out_dim = sizes[layer], sizes[layer + 1]
            w = np.frombuffer(raw, dtype="<f8", count=out_dim * in_dim, offset=offset)
            weights.append(w.reshape(out_dim, in_dim))
            offset += 8 * out_dim * in_dim
            biases.append(np.frombuffer(raw, dtype="<f8", count=out_dim, offset=offset))
            offset += 8 * out_dim
    except (struct.error, ValueError) as exc:
        raise ModelError(f"truncated or malformed model file: {exc}") from exc
    if offset != len(raw):
        raise ModelError(f"{len(raw) - offset} trailing bytes after model payload")
    try:
        return Autoencoder(weights=tuple(weights), biases=tuple(biases))
    except ValueError as exc:
        raise ModelError(str(exc)) from exc

"""Additive layered-display model and layer-pattern optimizer.

A stack of K transmittance layers at integer depth offsets d_k reproduces
the view with signed angular offsets (a_s, a_t) as

    out(u, v) = sum_k P_k(u + d_k * a_s, v + d_k * a_t)

Lookups falling outside a layer contribute zero; a validity mask marks the
positions where every layer lookup is in range. Because the model is linear
in the layer images, optimal layers for a target light field are the
solution of a box-constrained least-squares problem, solved here by
projected gradient descent with backtracking.

Render, adjoint and solver share one geometry per (depths, S, T, H, W),
built once and memoised by `_geometry`: the in-range shift window of every
(view, layer) pair, the read-only validity mask and its flat indices.
Render adds each layer once, in layer order, as a copy-free strided view of
the zero-padded layer, so every sample sums the same terms in the same
order as a per-view loop would. The adjoint scatters through the same
windows, and the solver gathers each candidate's loss through the flat
indices and reuses the accepted candidate's residual for the next gradient.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .lightfield import LightField, angular_offset
from .pnm import read_pnm, write_pnm

DEFAULT_DEPTHS = (-1, 0, 1)
INITIAL_STEP = 1.0  # first trial step of the projected gradient descent
MAX_BACKTRACKS = 30  # step halvings per iteration before the solve stops


@dataclass(frozen=True)
class LayerStack:
    """K layer images over (u, v) with distinct integer depth offsets.

    Every sample lies in [0, bound] with bound = 1/K so that the additive
    sum of a full stack stays displayable in [0, 1].
    """

    depths: tuple[int, ...]
    images: np.ndarray  # (K, C, H, W) float64

    def __post_init__(self):
        images = np.ascontiguousarray(np.asarray(self.images, dtype=np.float64))
        depths = tuple(int(d) for d in self.depths)
        if images.ndim != 4:
            raise ValueError(f"layer images must be (K, C, H, W), got {images.shape}")
        if len(depths) != images.shape[0]:
            raise ValueError(
                f"{len(depths)} depths for {images.shape[0]} layer images"
            )
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValueError(f"depths must be strictly increasing, got {depths}")
        if not np.all(np.isfinite(images)):
            raise ValueError("layer images contain non-finite samples")
        bound = 1.0 / len(depths)
        if images.size and (images.min() < 0.0 or images.max() > bound + 1e-12):
            raise ValueError(f"layer samples must lie in [0, {bound:.6g}]")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "depths", depths)

    @property
    def layer_count(self) -> int:
        return len(self.depths)

    @property
    def bound(self) -> float:
        return 1.0 / len(self.depths)


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 500
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")


class _Geometry(NamedTuple):
    """Where the layers of one (depths, S, T, H, W) land in each view.

    Built once per key by `_geometry` and shared by render, adjoint and
    solver; its arrays are read-only.
    """

    windows: tuple  # (t, s, k, v0, v1, u0, u1, sy, sx) per non-empty window
    mask: np.ndarray  # (T, S, H, W) bool: every layer lookup in range
    index: np.ndarray  # np.flatnonzero(mask)
    pad: tuple[int, int]  # zero margin (rows, cols) around a layer in render
    reads: tuple  # per layer: (views t, views s, window rows, window cols)


def _step_slice(start: int, step: int, count: int) -> slice:
    """The basic slice start, start + step, ... of `count` indices; a zero
    step gives the one index `start`, which broadcasts over the views."""
    if step == 0:
        return slice(start, start + 1)
    stop = start + step * count
    return slice(start, stop if stop >= 0 else None, step)


@functools.lru_cache(maxsize=32)
def _geometry(depths: tuple[int, ...], S: int, T: int, H: int, W: int) -> _Geometry:
    offsets_s = [angular_offset(s, S) for s in range(S)]
    offsets_t = [angular_offset(t, T) for t in range(T)]
    windows = []
    mask = np.zeros((T, S, H, W), dtype=bool)
    for ti, a_t in enumerate(offsets_t):
        for si, a_s in enumerate(offsets_s):
            top, bottom, left, right = 0, H, 0, W
            for ki, d in enumerate(depths):
                sy, sx = d * a_t, d * a_s
                v0, v1 = max(0, -sy), min(H, H - sy)
                u0, u1 = max(0, -sx), min(W, W - sx)
                if v0 < v1 and u0 < u1:
                    windows.append((ti, si, ki, v0, v1, u0, u1, sy, sx))
                top, bottom = max(top, v0), min(bottom, v1)
                left, right = max(left, u0), min(right, u1)
            if top < bottom and left < right:
                mask[ti, si, top:bottom, left:right] = True
    index = np.flatnonzero(mask)
    mask.flags.writeable = False
    index.flags.writeable = False

    # Render reads layer k for view (t, s) from the window at (pad_y + d*a_t,
    # pad_x + d*a_s) of the zero-padded layer. The margin is capped at the
    # image size so that a huge depth costs no memory: the views it shifts
    # past the margin see none of the layer and are left out of its add.
    reach = max((abs(d) for d in depths), default=0)
    pad_y = min(reach * max(abs(a) for a in offsets_t), H)
    pad_x = min(reach * max(abs(a) for a in offsets_s), W)
    reads = []
    for d in depths:
        span_t = pad_y // abs(d) if d else T
        span_s = pad_x // abs(d) if d else S
        t0, t1 = max(0, T // 2 - span_t), min(T, T // 2 + span_t + 1)
        s0, s1 = max(0, S // 2 - span_s), min(S, S // 2 + span_s + 1)
        reads.append((
            slice(t0, t1),
            slice(s0, s1),
            _step_slice(pad_y + d * offsets_t[t0], d, t1 - t0),
            _step_slice(pad_x + d * offsets_s[s0], d, s1 - s0),
        ))
    return _Geometry(tuple(windows), mask, index, (pad_y, pad_x), tuple(reads))


def render_additive(
    stack: LayerStack, angular_dims: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Render the light-field tensor produced by an additive layer stack.

    Returns (samples, mask): samples shaped (C, T, S, H, W) and a boolean
    mask shaped (T, S, H, W) that is true exactly where all layer lookups
    were in range. Out-of-range lookups contribute zero to the sum.
    """
    S, T = angular_dims
    if S < 1 or T < 1:
        raise ValueError(f"bad angular dims {angular_dims}")
    K, C, H, W = stack.images.shape
    geometry = _geometry(stack.depths, S, T, H, W)
    pad_y, pad_x = geometry.pad
    padded = np.zeros((K, C, H + 2 * pad_y, W + 2 * pad_x))
    padded[:, :, pad_y : pad_y + H, pad_x : pad_x + W] = stack.images

    # One add per layer, in layer order, so every sample sums its in-range
    # lookups in the same order; an out-of-range lookup adds an exact zero.
    out = np.zeros((C, T, S, H, W), dtype=np.float64)
    for k, (views_t, views_s, rows, cols) in enumerate(geometry.reads):
        shifted = sliding_window_view(padded[k], (H, W), axis=(1, 2))
        out[:, views_t, views_s] += shifted[:, rows, cols]
    return out, geometry.mask.copy()


def adjoint_scatter(
    residual: np.ndarray,
    mask: np.ndarray,
    depths,
    spatial_dims: tuple[int, int],
) -> np.ndarray:
    """Exact adjoint of the masked render operator.

    Scatters each valid residual sample back onto every layer position that
    contributed to it: grad_k(x, y) accumulates residual(u, v, s, t) over
    all valid samples with x = u + d_k*a_s, y = v + d_k*a_t. Satisfies
    <render(P) * mask, L> == <P, adjoint_scatter(L * mask)>.
    """
    W, H = spatial_dims
    if residual.ndim != 5:
        raise ValueError(f"residual must be (C, T, S, H, W), got {residual.shape}")
    C, T, S, h, w = residual.shape
    if (h, w) != (H, W) or mask.shape != (T, S, H, W):
        raise ValueError("residual/mask shapes inconsistent with geometry")
    depths = tuple(int(d) for d in depths)

    masked = residual * mask[None, :, :, :, :]
    grad = np.zeros((len(depths), C, H, W), dtype=np.float64)
    for ti, si, ki, v0, v1, u0, u1, sy, sx in _geometry(depths, S, T, H, W).windows:
        grad[ki, :, v0 + sy : v1 + sy, u0 + sx : u1 + sx] += masked[
            :, ti, si, v0:v1, u0:u1
        ]
    return grad


def optimize_layers(
    target: LightField,
    layer_count: int = 3,
    depths=None,
    config: SolverConfig | None = None,
) -> tuple[LayerStack, list[float]]:
    """Fit a layer stack to a target light field by projected gradient descent.

    Minimizes half the squared error over the valid mask, projecting each
    layer onto [0, 1/K] after every step. The step size starts at
    INITIAL_STEP, is halved (at most MAX_BACKTRACKS times) until an iteration
    does not increase the loss, and doubles after accepted steps, so the
    recorded loss history is non-increasing. Depths default to the centred
    offsets -(K // 2) .. K - K // 2 - 1. Returns the stack and the loss per
    accepted iterate.
    """
    config = config or SolverConfig()
    if depths is None:
        depths = range(-(layer_count // 2), layer_count - layer_count // 2)
    depths = tuple(int(d) for d in depths)
    if len(depths) != layer_count:
        raise ValueError(f"{len(depths)} depths for layer_count={layer_count}")
    S, T = target.angular_dims
    W, H = target.spatial_dims
    C = target.channels
    bound = 1.0 / layer_count

    # The mask comes from the geometry too; this render of a zero stack only
    # keeps the solve's render count at two before its first step.
    zero_stack = LayerStack(depths, np.zeros((layer_count, C, H, W)))
    _, mask = render_additive(zero_stack, (S, T))
    if not mask.any():
        raise DataError("geometry shifts every sample out of range (empty mask)")
    index = _geometry(depths, S, T, H, W).index

    images = np.full((layer_count, C, H, W), float(target.samples.mean()) / layer_count)

    def residual_and_loss(imgs):
        """Unmasked residual of a candidate and half its squared norm over
        the mask, gathered in the order of (target - rendered)[:, mask]."""
        rendered, _ = render_additive(LayerStack(depths, imgs), (S, T))
        diff = target.samples - rendered
        kept = np.take(diff.reshape(C, -1), index, axis=1).ravel()
        return diff, 0.5 * float(np.dot(kept, kept))

    diff, loss = residual_and_loss(images)
    history = [loss]
    step = INITIAL_STEP
    for _ in range(config.max_iterations):
        grad = adjoint_scatter(diff, mask, depths, (W, H))  # masks diff itself
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            candidate = np.clip(images + step * grad, 0.0, bound)
            cand_diff, cand_loss = residual_and_loss(candidate)
            if cand_loss <= loss:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        images, diff = candidate, cand_diff
        prev_loss, loss = loss, cand_loss
        history.append(loss)
        step *= 2.0
        if prev_loss == 0.0 or (prev_loss - loss) <= config.tolerance * max(
            prev_loss, 1e-300
        ):
            break
    return LayerStack(depths, images), history


def save_layer_stack(stack: LayerStack, base_dir, bit_depth: int = 8) -> None:
    """Write one PGM/PPM per layer (scaled by K to span [0, 1]) + sidecar."""
    from .pnm import unit_to_image

    os.makedirs(base_dir, exist_ok=True)
    K, C, _, _ = stack.images.shape
    ext = "pgm" if C == 1 else "ppm"
    names = []
    for k in range(K):
        rel = f"layer_{k}.{ext}"
        scaled = stack.images[k] * K
        img = scaled[0] if C == 1 else scaled.transpose(1, 2, 0)
        write_pnm(os.path.join(base_dir, rel), unit_to_image(img, bit_depth))
        names.append(rel)
    with open(os.path.join(base_dir, "layers.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"count {K}\n")
        fh.write("depths " + " ".join(str(d) for d in stack.depths) + "\n")
        fh.write(f"bound {stack.bound!r}\n")
        fh.write(f"bit_depth {bit_depth}\n")
        for rel in names:
            fh.write(rel + "\n")


def load_layer_stack(base_dir) -> LayerStack:
    """Inverse of save_layer_stack (up to the on-disk bit depth)."""
    from .pnm import image_to_unit

    sidecar = os.path.join(base_dir, "layers.txt")
    if not os.path.exists(sidecar):
        raise DataError(f"missing layer sidecar {sidecar}")
    depths, names, count = None, [], None
    with open(sidecar, "r", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if not fields:
                continue
            if fields[0] == "count":
                count = int(fields[1])
            elif fields[0] == "depths":
                depths = tuple(int(x) for x in fields[1:])
            elif fields[0] in ("bound", "bit_depth"):
                continue
            else:
                names.append(fields[0])
    if count is None or depths is None or len(names) != count:
        raise DataError(f"malformed layer sidecar {sidecar}")
    imgs = []
    for rel in names:
        pixels = image_to_unit(read_pnm(os.path.join(base_dir, rel)))
        imgs.append(pixels[None] if pixels.ndim == 2 else pixels.transpose(2, 0, 1))
    images = np.stack(imgs) / count
    return LayerStack(depths, np.clip(images, 0.0, 1.0 / count))

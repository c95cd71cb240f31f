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
built once and memoised by `_geometry`. In each view the mask is the
intersection of K shifted rectangles, so the geometry keeps the read-only
mask, its one rectangle per view, and a strided read plan per layer for
render and for the adjoint. Render
adds each layer once, in layer order, as a copy-free strided view of the
zero-padded layer, so every sample sums the same terms in the same order as
a per-view loop would. The solver gathers each candidate's loss over the
view rectangles, in the order of `x[:, mask]`. Its candidates are finite
and clipped to [0, 1/K], so their stacks skip LayerStack's checks; the stack
it returns is checked.

The adjoint copies each channel's residual, inside the mask only, into one
zeroed buffer of flattened (H*W) view planes, each preceded by a margin of
zeros as wide as the largest flat shift of a layer lookup. Layer k reads
view (t, s) back by its flat shift d_k*(a_t*W + a_s), so its reads of all
views are one strided view of the buffer, and one reduction over the view
axes, starting at +0.0, adds them in view order. Each layer pixel sums the
same residual samples in the same view order as a per-rectangle scatter;
the only extra terms are the +0.0 read outside the mask, in the margins and
across row ends. The accumulator starts at +0.0 and, under round-to-nearest,
never becomes -0.0, so adding +0.0 leaves every value it can hold unchanged
and the result is bit-identical.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._frozen import _unchecked
from .errors import DataError
from .lightfield import LightField, angular_offset, load_light_field, save_light_field

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
        if images.size:
            # NaN and +-inf show in the minimum or the maximum
            low, high = images.min(), images.max()
            if not (np.isfinite(low) and np.isfinite(high)):
                raise ValueError("layer images contain non-finite samples")
            bound = 1.0 / len(depths)
            if low < 0.0 or high > bound + 1e-12:
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
        if not 0 <= self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and >= 0")


class _Geometry(NamedTuple):
    """Where the layers of one (depths, S, T, H, W) land in each view.

    Built once per key by `_geometry` and shared by render, adjoint and
    solver; its mask is read-only. In each view the mask is one rectangle,
    the intersection of the K layers' in-range windows, so the list of
    view rectangles holds all of it. The views whose mask is not empty form
    one block around the central view; the adjoint reads only that block.
    """

    mask: np.ndarray  # (T, S, H, W) bool: every layer lookup in range
    rects: tuple  # (t, s, top, bottom, left, right) per non-empty view, (t, s) order
    pad: tuple[int, int]  # zero margin (rows, cols) around a layer in render
    # per layer: (views t, views s, offset of the first view's window, step
    # per view t, step per view s), counted in samples of a padded layer plane
    reads: tuple
    views: tuple[slice, slice]  # (t, s) block of the views with a non-empty mask
    margin: int  # zeros before each flat view plane in the adjoint's buffer
    # per layer: (offset of the first view's read, step per view t, step per
    # view s), counted in samples of the adjoint's buffer
    scatters: tuple


@functools.lru_cache(maxsize=32)
def _geometry(depths: tuple[int, ...], S: int, T: int, H: int, W: int) -> _Geometry:
    offsets_t = tuple(angular_offset(t, T) for t in range(T))
    offsets_s = tuple(angular_offset(s, S) for s in range(S))
    rects = []
    mask = np.zeros((T, S, H, W), dtype=bool)
    for ti, a_t in enumerate(offsets_t):
        for si, a_s in enumerate(offsets_s):
            top, bottom, left, right = 0, H, 0, W
            for d in depths:
                top, bottom = max(top, -d * a_t), min(bottom, H - d * a_t)
                left, right = max(left, -d * a_s), min(right, W - d * a_s)
            if top < bottom and left < right:
                rects.append((ti, si, top, bottom, left, right))
                mask[ti, si, top:bottom, left:right] = True
    mask.flags.writeable = False

    # Render reads layer k for view (t, s) from the H x W window at
    # (pad_y + d*a_t, pad_x + d*a_s) of the zero-padded layer, as one strided
    # view over the views; a zero depth reads the same window in every view.
    # The margin is capped at the image size so that a huge depth costs no
    # memory: the views it shifts past the margin see none of the layer and
    # are left out of its add.
    reach = max((abs(d) for d in depths), default=0)
    pad_y = min(reach * max(abs(a) for a in offsets_t), H)
    pad_x = min(reach * max(abs(a) for a in offsets_s), W)
    cols = W + 2 * pad_x
    reads = []
    for d in depths:
        span_t = pad_y // abs(d) if d else T
        span_s = pad_x // abs(d) if d else S
        t0, t1 = max(0, T // 2 - span_t), min(T, T // 2 + span_t + 1)
        s0, s1 = max(0, S // 2 - span_s), min(S, S // 2 + span_s + 1)
        first = (pad_y + d * offsets_t[t0]) * cols + pad_x + d * offsets_s[s0]
        reads.append((slice(t0, t1), slice(s0, s1), first, d * cols, d))

    # The adjoint's buffer holds one flat H*W plane per view of the block,
    # each after `margin` zeros, and `margin` zeros after the last; layer k
    # reads view (t, s) back by d*(a_t*W + a_s). The block runs from the
    # first rectangle's view to the last's, or is empty at the central view.
    centre = (T // 2, S // 2, T // 2 - 1, S // 2 - 1)
    t0, s0, t1, s1 = (*rects[0][:2], *rects[-1][:2]) if rects else centre
    t1, s1 = t1 + 1, s1 + 1
    margin = max(
        (abs(d * (offsets_t[t] * W + offsets_s[s])) for d in depths for t, s, *_ in rects),
        default=0,
    )
    plane = H * W + margin
    scatters = tuple(
        (margin - d * (offsets_t[t0] * W + offsets_s[s0]), (s1 - s0) * plane - d * W,
         plane - d)
        for d in depths
    )
    return _Geometry(
        mask, tuple(rects), (pad_y, pad_x), tuple(reads),
        (slice(t0, t1), slice(s0, s1)), margin, scatters,
    )


def _rect_copies(rects, buffer: np.ndarray) -> list:
    """(destination, source index) pairs that copy the view rectangles of a
    (C, T, S, H, W) field into the (C, n) buffer, in the order of
    field[:, mask]."""
    copies, start = [], 0
    for t, s, top, bottom, left, right in rects:
        rows, cols = bottom - top, right - left
        dest = buffer[:, start : start + rows * cols].reshape(-1, rows, cols)
        copies.append((dest, (slice(None), t, s, slice(top, bottom), slice(left, right))))
        start += rows * cols
    return copies


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
    rows, cols = H + 2 * pad_y, W + 2 * pad_x
    padded = np.zeros((K, C, rows, cols))
    padded[:, :, pad_y : pad_y + H, pad_x : pad_x + W] = stack.images

    # One add per layer, in layer order, so every sample sums its in-range
    # lookups in the same order; an out-of-range lookup adds an exact zero.
    out = np.zeros((C, T, S, H, W), dtype=np.float64)
    item = padded.itemsize
    for k, (views_t, views_s, first, step_t, step_s) in enumerate(geometry.reads):
        shifted = np.ndarray(
            (C, views_t.stop - views_t.start, views_s.stop - views_s.start, H, W),
            buffer=padded,
            offset=item * (k * C * rows * cols + first),
            strides=(item * rows * cols, item * step_t, item * step_s, item * cols, item),
        )
        out[:, views_t, views_s] += shifted
    return out, geometry.mask.copy()


def adjoint_scatter(residual: np.ndarray, depths) -> np.ndarray:
    """Exact adjoint of the masked render operator.

    Scatters each valid residual sample back onto every layer position that
    contributed to it: grad_k(x, y) accumulates residual(u, v, s, t) over
    all valid samples with x = u + d_k*a_s, y = v + d_k*a_t. Satisfies
    <render(P) * mask, L> == <P, adjoint_scatter(L, depths)>, where the
    mask is the one render returns for the (C, T, S, H, W) residual's
    geometry; samples outside it count as zero, whatever they hold (NaN and
    inf included).

    Each layer sums all views of the masked residual at once, as one
    reduction in view order over a strided view of a zero-margined buffer;
    the samples read outside the mask add +0.0, which leaves the sums
    bit-identical to a per-rectangle scatter (see the module docstring).
    """
    if residual.ndim != 5:
        raise ValueError(f"residual must be (C, T, S, H, W), got {residual.shape}")
    C, T, S, H, W = residual.shape
    depths = tuple(int(d) for d in depths)
    geometry = _geometry(depths, S, T, H, W)

    views_t, views_s = geometry.views
    views = (views_t.stop - views_t.start, views_s.stop - views_s.start)
    margin, plane = geometry.margin, H * W + geometry.margin
    # Zeros stay wherever the copies below do not write: outside the mask,
    # in the margins. Built per call, as solves may run on threads.
    buffer = np.zeros(margin + views[0] * views[1] * plane)
    planes = buffer[margin:].reshape(*views, plane)[:, :, : H * W].reshape(*views, H, W)
    mask = geometry.mask[views_t, views_s]
    grad = np.empty((len(depths), C, H * W), dtype=np.float64)
    item = buffer.itemsize
    for c in range(C):
        np.copyto(planes, residual[c, views_t, views_s], where=mask)
        for k, (offset, step_t, step_s) in enumerate(geometry.scatters):
            shifted = np.ndarray(
                (*views, H * W), buffer=buffer, offset=item * offset,
                strides=(item * step_t, item * step_s, item),
            )
            # Every pixel sums in view order, t then s: the t step is the
            # larger, so numpy keeps that axis outside. initial=0.0 states
            # the +0.0 start instead of leaving it to how numpy seeds it.
            np.add.reduce(shifted, axis=(0, 1), out=grad[k, c], initial=0.0)
    return grad.reshape(len(depths), C, H, W)


def optimize_layers(
    target: LightField,
    depths=DEFAULT_DEPTHS,
    config: SolverConfig | None = None,
) -> tuple[LayerStack, list[float]]:
    """Fit a layer stack to a target light field by projected gradient descent.

    Minimizes half the squared error over the valid mask, projecting each
    layer onto [0, 1/K] after every step. The step size starts at
    INITIAL_STEP, is halved (at most MAX_BACKTRACKS times) until an iteration
    does not increase the loss, and doubles after accepted steps, so the
    recorded loss history is non-increasing. One layer is solved per depth.
    Returns the stack and the loss per accepted iterate.
    """
    config = config or SolverConfig()
    depths = tuple(int(d) for d in depths)
    if not depths:
        raise ValueError("depth list is empty: the solver needs one depth per layer")
    layer_count = len(depths)
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

    # The loss is half the squared norm of (target - rendered)[:, mask]. Each
    # candidate's render is copied over the mask's view rectangles into one
    # buffer, in that order, and subtracted from the target in place.
    goal = target.samples[:, mask]
    kept = np.empty(goal.shape)  # C order, so that kept_flat is a view
    copies = _rect_copies(_geometry(depths, S, T, H, W).rects, kept)
    kept_flat = kept.reshape(-1)

    def render_and_loss(imgs):
        """A candidate's render and half its squared error over the mask."""
        # clipped finite values already lie in [0, bound]: no re-check
        stack = _unchecked(LayerStack, depths=depths, images=imgs)
        rendered, _ = render_additive(stack, (S, T))
        for dest, source in copies:
            dest[...] = rendered[source]
        np.subtract(goal, kept, out=kept)
        return rendered, 0.5 * float(np.dot(kept_flat, kept_flat))

    images = np.full((layer_count, C, H, W), float(target.samples.mean()) / layer_count)
    rendered, loss = render_and_loss(images)
    history = [loss]
    step = INITIAL_STEP
    for _ in range(config.max_iterations):
        # Nothing reads the accepted render again, so it holds the residual.
        residual = np.subtract(target.samples, rendered, out=rendered)
        grad = adjoint_scatter(residual, depths)
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            candidate = np.clip(images + step * grad, 0.0, bound)
            cand_rendered, cand_loss = render_and_loss(candidate)
            if cand_loss <= loss:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        images, rendered = candidate, cand_rendered
        prev_loss, loss = loss, cand_loss
        history.append(loss)
        step *= 2.0
        if prev_loss == 0.0 or (prev_loss - loss) <= config.tolerance * max(
            prev_loss, 1e-300
        ):
            break
    return LayerStack(depths, images), history


def save_layer_stack(stack: LayerStack, base_dir, bit_depth: int = 8) -> None:
    """Write the stack as a light field of one row of K views plus `depths.txt`.

    View (s=k, t=0) is layer k scaled by K to span [0, 1]; `depths.txt`
    holds the K depths on one line.
    """
    K = stack.layer_count
    views = np.clip(stack.images * K, 0.0, 1.0).transpose(1, 0, 2, 3)[:, None]
    save_light_field(LightField(views), base_dir, bit_depth)
    with open(os.path.join(base_dir, "depths.txt"), "w", encoding="utf-8") as fh:
        fh.write(" ".join(str(d) for d in stack.depths) + "\n")


def load_layer_stack(base_dir) -> LayerStack:
    """Inverse of save_layer_stack (up to the on-disk bit depth).

    Loads `base_dir/manifest.txt` with `load_light_field`, so the layer
    files pass all its checks, then requires a K x 1 grid for the K depths
    of `depths.txt`.
    """
    path = os.path.join(base_dir, "depths.txt")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            depths = tuple(int(field) for field in fh.read().split())
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read layer depths: {exc}") from exc
    views = load_light_field(os.path.join(base_dir, "manifest.txt"))
    K = len(depths)
    if views.angular_dims != (K, 1):
        S, T = views.angular_dims
        raise DataError(f"{path}: {K} depths for a {S}x{T} grid of layers (want {K}x1)")
    images = views.samples[:, 0].transpose(1, 0, 2, 3)
    return LayerStack(depths, np.clip(images / K, 0.0, 1.0 / K))

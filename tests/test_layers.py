"""Additive layer model: render/adjoint pair and the projected solver."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import centered_depths, random_truth_field, sha256_of_files
from lflc import layers
from lflc.errors import DataError
from lflc.layers import (
    LayerStack,
    SolverConfig,
    adjoint_scatter,
    load_layer_stack,
    optimize_layers,
    render_additive,
    save_layer_stack,
)
from lflc.lightfield import LightField, angular_offset, psnr_masked, read_manifest
from lflc.pnm import read_planes, write_planes


def naive_render(stack: LayerStack, angular_dims):
    """Per-ray gather loop straight off the additive model definition."""
    S, T = angular_dims
    K, C, H, W = stack.images.shape
    out = np.zeros((C, T, S, H, W))
    mask = np.zeros((T, S, H, W), dtype=bool)
    for t in range(T):
        for s in range(S):
            a_s, a_t = angular_offset(s, S), angular_offset(t, T)
            for v in range(H):
                for u in range(W):
                    acc = np.zeros(C)
                    good = True
                    for k, depth in enumerate(stack.depths):
                        uu, vv = u + depth * a_s, v + depth * a_t
                        if 0 <= uu < W and 0 <= vv < H:
                            acc += stack.images[k, :, vv, uu]
                        else:
                            good = False
                    mask[t, s, v, u] = good
                    if good:
                        out[:, t, s, v, u] = acc
    return out, mask


def slice_loop_render(stack: LayerStack, angular_dims):
    """Unmasked sum of the in-range lookups, one slice add per (t, s, k)
    with the layers in order: the reference for the render's samples."""
    S, T = angular_dims
    K, C, H, W = stack.images.shape
    out = np.zeros((C, T, S, H, W))
    for t in range(T):
        for s in range(S):
            for k, depth in enumerate(stack.depths):
                sy, sx = depth * angular_offset(t, T), depth * angular_offset(s, S)
                rows = range(max(0, -sy), min(H, H - sy))
                cols = range(max(0, -sx), min(W, W - sx))
                if rows and cols:
                    out[:, t, s, rows.start : rows.stop, cols.start : cols.stop] += (
                        stack.images[k, :, rows.start + sy : rows.stop + sy,
                                     cols.start + sx : cols.stop + sx]
                    )
    return out


def window_adjoint(residual, mask, depths, spatial_dims):
    """The adjoint as a scatter of the whole masked residual: one slice add
    per in-range (view, layer) window, in (t, s, k) order. The reference for
    the rectangle scatter of `adjoint_scatter`."""
    W, H = spatial_dims
    C, T, S = residual.shape[:3]
    masked = residual * mask[None, :, :, :, :]
    grad = np.zeros((len(depths), C, H, W))
    for t in range(T):
        for s in range(S):
            for k, depth in enumerate(depths):
                sy, sx = depth * angular_offset(t, T), depth * angular_offset(s, S)
                v0, v1 = max(0, -sy), min(H, H - sy)
                u0, u1 = max(0, -sx), min(W, W - sx)
                if v0 < v1 and u0 < u1:
                    grad[k, :, v0 + sy : v1 + sy, u0 + sx : u1 + sx] += masked[
                        :, t, s, v0:v1, u0:u1
                    ]
    return grad


class TestRenderAdditive:
    def test_matches_naive_gather(self):
        rng = np.random.default_rng(10)
        for K, dims, size in [(3, (3, 3), 6), (2, (4, 2), 5), (3, (5, 5), 4)]:
            images = rng.uniform(0, 1.0 / K, (K, 1, size, size))
            stack = LayerStack(centered_depths(K), images)
            out, mask = render_additive(stack, dims)
            ref_out, ref_mask = naive_render(stack, dims)
            np.testing.assert_array_equal(mask, ref_mask)
            np.testing.assert_allclose(out[:, ref_mask], ref_out[:, ref_mask], atol=1e-14)

    @pytest.mark.parametrize("depths", [(-2, 0, 2), (0, 3), (-1, 0, 1, 2)])
    @pytest.mark.parametrize("dims", [(3, 3), (4, 4), (5, 4), (4, 1)])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("size", [(7, 6), (2, 3)])
    def test_equals_slice_loop_reference(self, depths, dims, channels, size):
        # size (2, 3) shifts some layers past the whole image in outer views
        H, W = size
        rng = np.random.default_rng(len(depths) * 100 + dims[0] * 10 + dims[1])
        K = len(depths)
        stack = LayerStack(depths, rng.uniform(0, 1.0 / K, (K, channels, H, W)))
        out, mask = render_additive(stack, dims)
        assert np.array_equal(out, slice_loop_render(stack, dims))
        assert np.array_equal(mask, naive_render(stack, dims)[1])

    def test_returned_mask_is_the_callers_own(self):
        stack = LayerStack((-1, 0, 1), np.zeros((3, 1, 6, 6)))
        _, mask = render_additive(stack, (3, 3))
        expected = mask.copy()
        mask[...] = ~mask
        _, again = render_additive(stack, (3, 3))
        assert np.array_equal(again, expected)

    def test_zero_stack_renders_zero(self):
        stack = LayerStack((-1, 0, 1), np.zeros((3, 1, 4, 4)))
        out, mask = render_additive(stack, (3, 3))
        assert np.all(out == 0)
        assert mask.any()

    def test_central_view_fully_valid(self):
        stack = LayerStack((-1, 0, 1), np.zeros((3, 1, 8, 8)))
        _, mask = render_additive(stack, (5, 5))
        assert mask[2, 2].all()  # zero offsets: every lookup lands in range

    def test_mask_margin_geometry(self):
        # depth 1 with offset +2 pushes lookups off the right/bottom edge
        stack = LayerStack((0, 1), np.zeros((2, 1, 8, 8)))
        _, mask = render_additive(stack, (5, 5))
        corner = mask[4, 4]  # offsets (+2, +2)
        assert corner[:6, :6].all()
        assert not corner[6:, :].any() and not corner[:, 6:].any()

    def test_layer_bound_enforced(self):
        with pytest.raises(ValueError):
            LayerStack((-1, 0, 1), np.full((3, 1, 2, 2), 0.5))
        with pytest.raises(ValueError):
            LayerStack((0, 1, 2), np.full((3, 1, 2, 2), -0.1))

    def test_depths_strictly_increasing(self):
        with pytest.raises(ValueError):
            LayerStack((1, 0, -1), np.zeros((3, 1, 2, 2)))

    @pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_refused_before_range(self, planted):
        images = np.full((3, 1, 2, 2), 0.9)  # out of range too
        images[1, 0, 1, 0] = planted
        with pytest.raises(ValueError, match="non-finite"):
            LayerStack((-1, 0, 1), images)

    def test_empty_stack_accepted(self):
        assert LayerStack((0, 2), np.zeros((2, 1, 0, 3))).images.size == 0


class TestAdjoint:
    def test_inner_product_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            K = int(rng.integers(2, 4))
            S, T = int(rng.integers(3, 6)), int(rng.integers(3, 6))
            H = W = int(rng.integers(8, 17))
            images = rng.uniform(0, 1.0 / K, (K, 1, H, W))
            stack = LayerStack(centered_depths(K), images)
            field = rng.random((1, T, S, H, W))
            rendered, mask = render_additive(stack, (S, T))
            lhs = float(np.sum(rendered[:, mask] * field[:, mask]))
            grad = adjoint_scatter(field, stack.depths)
            rhs = float(np.sum(stack.images * grad))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_scatter_of_masked_delta(self):
        # a single valid ray scatters into exactly K layer pixels
        stack = LayerStack((-1, 0, 1), np.zeros((3, 1, 8, 8)))
        _, mask = render_additive(stack, (3, 3))
        field = np.zeros((1, 3, 3, 8, 8))
        t, s, v, u = 0, 2, 4, 4  # offsets a_s=1, a_t=-1
        assert mask[t, s, v, u]
        field[0, t, s, v, u] = 1.0
        grad = adjoint_scatter(field, stack.depths)
        assert np.sum(grad != 0) == 3
        for k, depth in enumerate(stack.depths):
            assert grad[k, 0, v - depth, u + depth] == 1.0

    def test_non_finite_outside_mask_reads_as_zero(self):
        depths, (S, T), (H, W) = (-1, 0, 1), (3, 3), (8, 9)
        _, mask = render_additive(LayerStack(depths, np.zeros((3, 2, H, W))), (S, T))
        rng = np.random.default_rng(12)
        zero_filled = np.where(mask, rng.standard_normal((2, T, S, H, W)), 0.0)
        outside = np.flatnonzero(~np.broadcast_to(mask, zero_filled.shape))
        planted = zero_filled.copy()
        planted.flat[outside] = rng.choice([np.nan, np.inf, -np.inf], outside.size)
        assert not np.isfinite(planted).all()
        grad = adjoint_scatter(planted, depths)
        assert np.all(np.isfinite(grad))
        assert np.array_equal(grad, window_adjoint(zero_filled, mask, depths, (W, H)))

    def test_negative_zero_residual_scatters_to_positive_zero(self):
        # every sum starts at +0.0, and +0.0 + -0.0 is +0.0
        depths, (S, T), (H, W) = (-1, 0, 1), (3, 3), (8, 9)
        _, mask = render_additive(LayerStack(depths, np.zeros((3, 2, H, W))), (S, T))
        residual = np.where(mask, -0.0, np.nan)[None].repeat(2, axis=0)
        grad = adjoint_scatter(residual, depths)
        assert np.all(grad == 0.0) and not np.signbit(grad).any()


@settings(max_examples=80, deadline=None)
@given(
    # depths up to 12 shift whole views past images of up to 9 px
    depths=st.sets(st.integers(-12, 12), min_size=1, max_size=7).map(sorted),
    views=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    size=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    channels=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_equals_window_scatter_everywhere(depths, views, size, channels, seed):
    # the strided reduction adds +0.0 for every sample read outside the mask;
    # it must still equal the per-window reference bit for bit
    depths, (S, T), (H, W) = tuple(depths), views, size
    zeros = np.zeros((len(depths), channels, H, W))
    _, mask = render_additive(LayerStack(depths, zeros), (S, T))
    field = np.random.default_rng(seed).standard_normal((channels, T, S, H, W))
    grad = adjoint_scatter(field, depths)
    assert np.array_equal(grad, window_adjoint(field, mask, depths, (W, H)))


@pytest.mark.parametrize("depths", [(-2, 0, 2), (0, 3), (-1, 0, 1, 2)])
@pytest.mark.parametrize("dims", [(3, 3), (5, 4), (7, 7)])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("size", [(7, 6), (2, 3)])
class TestViewRectangles:
    """The solver's loss gather and the adjoint run over one mask rectangle
    per view; both must equal the per-sample forms bit for bit."""

    def geometry(self, depths, dims, channels, size):
        H, W = size
        S, T = dims
        rng = np.random.default_rng(len(depths) * 100 + S * 10 + T + channels)
        field = rng.standard_normal((channels, T, S, H, W))
        _, mask = render_additive(
            LayerStack(depths, np.zeros((len(depths), channels, H, W))), dims
        )
        return field, mask, layers._geometry(depths, S, T, H, W)

    def test_adjoint_equals_window_scatter(self, depths, dims, channels, size):
        field, mask, _ = self.geometry(depths, dims, channels, size)
        H, W = size
        grad = adjoint_scatter(field, depths)
        assert np.array_equal(grad, window_adjoint(field, mask, depths, (W, H)))

    def test_gather_equals_masked_samples(self, depths, dims, channels, size):
        field, mask, geometry = self.geometry(depths, dims, channels, size)
        assert len(geometry.rects) == int(mask.any(axis=(2, 3)).sum())
        kept = np.full((channels, int(mask.sum())), np.nan)
        for dest, source in layers._rect_copies(geometry.rects, kept):
            dest[...] = field[source]
        assert np.array_equal(kept.ravel(), field[:, mask].ravel())


def test_small_images_leave_views_empty():
    # the (2, 3) images of TestViewRectangles do reach views with no mask
    _, mask = render_additive(LayerStack((0, 3), np.zeros((2, 1, 2, 3))), (7, 7))
    assert mask.any() and not mask.any(axis=(2, 3)).all()


class TestSolveGolden:
    """SHA-256 of seeded solves: the layer images and the loss history.

    The digests pin every bit of render, adjoint, loss and step arithmetic;
    any change to their rounding or summation order moves them.
    """

    @pytest.mark.parametrize(
        "channels, views, size, depths, seed, digest",
        [
            (1, (5, 5), (12, 10), (-1, 0, 1), 31,
             "0d5b5542d88477765cce14f0f0da2947c285487389948952f1745745c94faf2d"),
            (3, (4, 3), (9, 11), (-2, 0, 2), 32,
             "3cf88cc108ff5fcc4f7f8dbb266fcf52522a67c7e7ded146361257b9e90120ca"),
            # depth 3 on 6 x 6 images shifts layer 1 past the outer views
            (1, (5, 5), (6, 6), (0, 3), 33,
             "a831df604dfd9c94e806d4590173af97ec0dc42c2381a463a76a3c4c76932b91"),
            # an even 4 x 6 grid: depth -5 shifts 10 and 15 px past 6 x 7 images
            (3, (4, 6), (6, 7), (-5, 0, 1), 34,
             "755085427727a81b767f1c02f1df0e0a919abb4a80831d9d9de3cec89fda7e1e"),
        ],
        ids=["gray", "rgb", "past-whole-views", "even-grid-deep"],
    )
    def test_digests(self, channels, views, size, depths, seed, digest):
        (S, T), (H, W) = views, size
        samples = np.random.default_rng(seed).random((channels, T, S, H, W))
        stack, history = optimize_layers(
            LightField(samples), depths, SolverConfig(max_iterations=60)
        )
        assert len(history) == 61
        hashed = hashlib.sha256(np.ascontiguousarray(stack.images, dtype="<f8").tobytes())
        hashed.update(np.asarray(history, dtype="<f8").tobytes())
        assert hashed.hexdigest() == digest


class TestOptimizeLayers:
    def test_recovers_exact_target(self):
        rng = np.random.default_rng(12)
        lf, mask, _ = random_truth_field(rng, height=16, width=16, views=(3, 3))
        stack, history = optimize_layers(
            lf, config=SolverConfig(max_iterations=300, tolerance=0.0)
        )
        rendered, _ = render_additive(stack, lf.angular_dims)
        assert psnr_masked(lf.samples, rendered, mask) >= 45.0
        assert len(history) >= 2

    def test_history_monotone_nonincreasing(self):
        rng = np.random.default_rng(13)
        lf, _, _ = random_truth_field(rng, height=12, width=12, views=(3, 3))
        _, history = optimize_layers(lf, config=SolverConfig(max_iterations=100))
        diffs = np.diff(np.array(history))
        assert np.all(diffs <= 0)

    def test_projection_keeps_bound(self):
        rng = np.random.default_rng(14)
        lf, _, _ = random_truth_field(rng, height=10, width=10, views=(3, 3))
        stack, _ = optimize_layers(lf, config=SolverConfig(max_iterations=50))
        assert stack.images.min() >= 0.0
        assert stack.images.max() <= stack.bound + 1e-12

    def test_history_starts_at_constant_init_loss(self):
        rng = np.random.default_rng(15)
        lf, mask, _ = random_truth_field(rng, height=10, width=10, views=(3, 3))

        def masked_loss(stack):
            rendered, _ = render_additive(stack, lf.angular_dims)
            g = (lf.samples - rendered)[:, mask].ravel()
            return 0.5 * float(np.dot(g, g))

        init = LayerStack(
            (-1, 0, 1), np.full((3, 1, 10, 10), float(lf.samples.mean()) / 3.0)
        )
        stack, history = optimize_layers(lf, config=SolverConfig(max_iterations=5))
        assert len(history) >= 2
        assert history[0] == masked_loss(init)
        assert history[-1] == masked_loss(stack)

    def test_one_layer_per_depth(self):
        rng = np.random.default_rng(20)
        lf, _, _ = random_truth_field(rng, height=8, width=8, views=(3, 3))
        stack, _ = optimize_layers(lf, depths=(0, 3), config=SolverConfig(max_iterations=5))
        assert stack.depths == (0, 3)
        assert stack.images.shape == (2, 1, 8, 8)
        assert stack.bound == 0.5

    def test_empty_depth_list_rejected(self):
        rng = np.random.default_rng(21)
        lf, _, _ = random_truth_field(rng, height=8, width=8, views=(3, 3))
        with pytest.raises(ValueError, match="depth list is empty"):
            optimize_layers(lf, depths=())

    def test_cold_geometry_cache_gives_the_same_solve(self):
        rng = np.random.default_rng(17)
        lf, _, _ = random_truth_field(rng, height=9, width=11, views=(4, 3))
        config = SolverConfig(max_iterations=30)
        optimize_layers(lf, config=config)
        warm, warm_history = optimize_layers(lf, config=config)
        layers._geometry.cache_clear()
        cold, cold_history = optimize_layers(lf, config=config)
        assert warm.images.tobytes() == cold.images.tobytes()
        assert warm_history == cold_history

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        lf, _, _ = random_truth_field(rng, height=10, width=10, views=(3, 3))
        a, ha = optimize_layers(lf, config=SolverConfig(max_iterations=40))
        b, hb = optimize_layers(lf, config=SolverConfig(max_iterations=40))
        np.testing.assert_array_equal(a.images, b.images)
        assert ha == hb

    def test_extreme_depth_leaves_only_central_view(self):
        # the zero-offset view is always fully valid, so the mask can shrink
        # to exactly that view but never empty out
        stack = LayerStack((0, 50), np.zeros((2, 1, 6, 6)))
        _, mask = render_additive(stack, (3, 3))
        assert mask[1, 1].all()
        assert mask.sum() == 36


def _replace_layer(planes, bit_depth=8):
    """Damage: overwrite the second layer file with `planes`."""
    def damage(layer_dir):
        rel = read_manifest(layer_dir / "manifest.txt").paths[1]
        write_planes(layer_dir / rel, planes, bit_depth)
        return rel
    return damage


def _delete_layer(layer_dir):
    rel = read_manifest(layer_dir / "manifest.txt").paths[1]
    (layer_dir / rel).unlink()
    return rel


def _delete_depths(layer_dir):
    (layer_dir / "depths.txt").unlink()
    return "depths.txt"


def _drop_a_depth(layer_dir):
    (layer_dir / "depths.txt").write_text("-1 0\n")
    return "depths.txt"


# Each damages a saved 3-layer, 1-channel, 8-bit, 4x5 px stack and returns
# the name of the file an error must name.
BROKEN_LAYER_DIRS = {
    "16-bit-layer": _replace_layer(np.zeros((1, 4, 5)), bit_depth=16),
    "3-channel-layer": _replace_layer(np.zeros((3, 4, 5))),
    "other-size": _replace_layer(np.zeros((1, 5, 5))),
    "missing-layer": _delete_layer,
    "missing-depths": _delete_depths,
    "depth-count": _drop_a_depth,
}


def save_damaged_layers(layer_dir, damage) -> str:
    stack = LayerStack((-1, 0, 1), np.full((3, 1, 4, 5), 0.2))
    save_layer_stack(stack, layer_dir)
    return damage(layer_dir)


# sha256_of_files of the directory save_layer_stack writes, per (C, bit depth)
GOLDEN_LAYER_DIRECTORIES = {
    (1, 8): "735348d6beae4b219bd73a03d119add03394f7802b90cec94528ce3d6ceaefa7",
    (1, 16): "973b2c767c80c3d80e2d9187abaee490957e72c3c7b1ca6ab6b922895b639861",
    (3, 8): "7ca5d3d650c3701e904bdb61a9f578684183ce1e2bcc80d255a635d08fb926b3",
    (3, 16): "99a9346d157f3c871af91b1da4ed97281597cd0256c815f790e4a8e4bdd288ca",
}


class TestLayerStackIO:
    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("depths", [(0,), (-1, 0, 2)])
    def test_stores_the_scaled_pixels(self, tmp_path, depths, channels, bit_depth):
        K = len(depths)
        rng = np.random.default_rng(20 + 10 * K + channels)
        images = rng.uniform(0, 1 / K, (K, channels, 4, 5))
        images[0, 0, 0, 0] = 1 / K + 1e-13  # inside the stack's 1e-12 slack
        images[-1, -1, -1, -1] = 0.0
        stack = LayerStack(depths, images)
        save_layer_stack(stack, tmp_path, bit_depth)
        manifest = read_manifest(tmp_path / "manifest.txt")
        assert manifest.angular_dims == (K, 1)
        assert (tmp_path / "depths.txt").read_text().split() == [str(d) for d in depths]
        maxval = 2**bit_depth - 1
        stored = []
        for k, rel in enumerate(manifest.paths):
            planes, depth = read_planes(tmp_path / rel)
            assert depth == bit_depth
            levels = np.clip(np.rint(images[k] * K * maxval), 0, maxval)
            np.testing.assert_array_equal(planes, levels / maxval)
            stored.append(planes)
        again = load_layer_stack(tmp_path)
        expected = np.clip(np.stack(stored) / K, 0.0, 1.0 / K)
        assert again.depths == depths
        np.testing.assert_array_equal(again.images, expected)

    @pytest.mark.parametrize("damage", BROKEN_LAYER_DIRS.values(), ids=BROKEN_LAYER_DIRS)
    def test_broken_directory_refused(self, tmp_path, damage):
        name = save_damaged_layers(tmp_path, damage)
        with pytest.raises(DataError, match=re.escape(name)):
            load_layer_stack(tmp_path)

    @pytest.mark.parametrize("channels, bit_depth", GOLDEN_LAYER_DIRECTORIES)
    def test_written_bytes_are_pinned(self, tmp_path, channels, bit_depth):
        rng = np.random.default_rng(60 + channels + bit_depth)
        stack = LayerStack((-1, 0, 2), rng.uniform(0, 1 / 3, (3, channels, 4, 5)))
        save_layer_stack(stack, tmp_path, bit_depth)
        assert sha256_of_files(tmp_path) == GOLDEN_LAYER_DIRECTORIES[channels, bit_depth]

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(18)
        stack = LayerStack((-1, 0, 1), rng.uniform(0, 1 / 3, (3, 1, 8, 8)))
        save_layer_stack(stack, tmp_path)
        again = load_layer_stack(tmp_path)
        assert again.depths == stack.depths
        # stored at 8 bits on the K-scaled range
        assert np.max(np.abs(again.images - stack.images)) <= 0.5 / 255 / 3 + 1e-12

    def test_color_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        stack = LayerStack((0, 1), rng.uniform(0, 0.5, (2, 3, 4, 4)))
        save_layer_stack(stack, tmp_path)
        again = load_layer_stack(tmp_path)
        assert again.images.shape == stack.images.shape

"""Acceptance gate: one test per criterion, one pass/fail line each.

Every test measures its own wall-clock budget and prints a summary line
through the `acceptance` fixture; the pytest terminal summary repeats all
lines in order. Criterion 8 rebuilds a pinned deterministic fixture whose
operating points were established by a pilot sweep.
"""

import os
import sys
import time
from dataclasses import replace

import numpy as np
from conftest import centered_depths, random_truth_field
import rbm_oracle
from test_bitstream import make_header, make_payloads
from test_dbn import random_autoencoder, random_params
from test_metrics import reference_bd
from test_pipeline import random_model
from test_wbi import naive_best_codes

from lflc import bitstream, dbn, metrics, wbi
from lflc.bitstream import (
    entropy_decode,
    entropy_encode,
    read_container,
    section_boundaries,
    truncate_container,
    write_container,
)
from lflc.errors import TruncatedSectionError
from lflc.layers import (
    LayerStack,
    SolverConfig,
    adjoint_scatter,
    optimize_layers,
    render_additive,
)
from lflc.lightfield import psnr_masked
from lflc.metrics import RdPoint, bd_metrics, rd_sweep
from lflc.pipeline import (
    collect_training_patches,
    decode_light_field,
    encode_light_field,
    training_images_from_light_field,
)
from lflc.config import PipelineConfig

# The acceptance fixture's recipe lives with the benchmark that loads its model.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import fixtures  # noqa: E402


def test_criterion_01_adjoint(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(20):
        K = int(rng.integers(2, 4))
        S = int(rng.choice([3, 5]))
        T = int(rng.choice([3, 5]))
        H = int(rng.integers(8, 33))
        W = int(rng.integers(8, 33))
        C = 3 if trial % 5 == 0 else 1
        depths = centered_depths(K)
        layers = rng.uniform(0.0, 1.0 / K, size=(K, C, H, W))
        field = rng.standard_normal((C, T, S, H, W))
        rendered, mask = render_additive(LayerStack(depths, layers), (S, T))
        lhs = float(np.vdot(rendered * mask[None], field))
        grad = adjoint_scatter(field, depths)
        rhs = float(np.vdot(layers, grad))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    dt = time.perf_counter() - t0
    acceptance(
        1,
        worst <= 1e-10 and dt < 5.0,
        f"adjoint identity over 20 pairs, max rel gap {worst:.2e} "
        f"(cap 1e-10), {dt:.2f}s (cap 5s)",
    )


def test_criterion_02_layer_solver(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_psnr = np.inf
    monotone = True
    for _ in range(3):
        field, mask, _ = random_truth_field(rng, 3, 1, 32, 32, (5, 5))
        stack, history = optimize_layers(
            field, depths=centered_depths(3), config=SolverConfig(max_iterations=500)
        )
        rendered, _ = render_additive(stack, (5, 5))
        worst_psnr = min(worst_psnr, psnr_masked(field.samples, rendered, mask))
        monotone &= bool((np.diff(history) <= 0.0).all())
    dt = time.perf_counter() - t0
    acceptance(
        2,
        worst_psnr >= 45.0 and monotone and dt < 60.0,
        f"3 solver runs (K=3, 5x5, 32x32, 500 iters): worst {worst_psnr:.2f} dB "
        f"(floor 45), history monotone={monotone}, {dt:.1f}s (cap 60s)",
    )


def test_criterion_03_code_search_oracle(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    agree = True
    for trial in range(100):
        n = int(rng.integers(1, 5))
        J = int(rng.integers(1, 5))
        target = rng.uniform(-0.5, 1.0, size=(J, 1, 8, 8))
        basis = rng.standard_normal((n, 1, 8, 8))
        if trial % 10 == 9 and n >= 2:
            basis[1] = basis[0]  # duplicated images force tie-breaking
        got = wbi.solve_codes(target, basis)
        want = naive_best_codes(target, basis)
        agree &= bool(np.array_equal(got, want))
    dt = time.perf_counter() - t0
    acceptance(
        3,
        agree and dt < 10.0,
        f"solve_codes == naive exhaustive search on 100 instances "
        f"(n<=4, J<=4, 8x8, ties included), {dt:.2f}s (cap 10s)",
    )


def test_criterion_04_scalability(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    non_increasing = True
    exact_m1 = True
    for trial in range(50):
        target = rng.uniform(-1.0, 1.0, size=(3, 1, 8, 8))
        for partition in ((2, 2), (1, 1, 1, 1)):
            config = wbi.WbiConfig(components=4, partition=partition)
            code = wbi.encode_scalable(target, config)
            norms = [float(np.linalg.norm(target))]
            for m in range(1, len(partition) + 1):
                norms.append(
                    float(np.linalg.norm(target - wbi.decode_levels(code, m)))
                )
            non_increasing &= all(
                b <= a + 1e-12 for a, b in zip(norms, norms[1:])
            )
        flat = wbi.encode_scalable(target, wbi.WbiConfig(components=4, partition=(4,)))
        codes, basis, history = wbi.alternate_minimize(
            target, 4, wbi.RIDGE, wbi.START_SEED
        )
        exact_m1 &= bool(
            np.array_equal(flat.levels[0].codes, codes)
            and np.array_equal(flat.levels[0].basis, basis)
            and flat.levels[0].residual_history == tuple(history)
        )
    dt = time.perf_counter() - t0
    acceptance(
        4,
        non_increasing and exact_m1 and dt < 30.0,
        f"50 stacks: residual non-increasing across levels for {{2,2}} and "
        f"{{1,1,1,1}}; M=1 bit-exact vs plain solve, {dt:.1f}s (cap 30s)",
    )


def test_criterion_05_rbm_normalization(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_sum = 0.0
    worst_cond = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, min(9, 13 - n)))
        params = random_params(rng, n, m)
        z = rbm_oracle.partition_function_bruteforce(params)
        vs, hs, joint = rbm_oracle.joint_probabilities_bruteforce(params)
        total = 0.0
        for v in vs:
            for h in hs:
                total += np.exp(-rbm_oracle.rbm_energy(params, v, h)) / z
        worst_sum = max(worst_sum, abs(total - 1.0))

        vi = int(rng.integers(len(vs)))
        marginal_v = joint[vi].sum()
        cond_h = rbm_oracle.conditional_probabilities(params, "hidden", vs[vi])
        for unit in range(m):
            ratio = joint[vi][hs[:, unit] == 1.0].sum() / marginal_v
            worst_cond = max(worst_cond, abs(cond_h[unit] - ratio))
        hi = int(rng.integers(len(hs)))
        marginal_h = joint[:, hi].sum()
        cond_v = rbm_oracle.conditional_probabilities(params, "visible", hs[hi])
        for unit in range(n):
            ratio = joint[vs[:, unit] == 1.0, hi].sum() / marginal_h
            worst_cond = max(worst_cond, abs(cond_v[unit] - ratio))
    dt = time.perf_counter() - t0
    acceptance(
        5,
        worst_sum <= 1e-9 and worst_cond <= 1e-10 and dt < 10.0,
        f"50 RBMs (n+m<=12): |sum p - 1| max {worst_sum:.2e} (cap 1e-9), "
        f"conditional vs joint-ratio gap max {worst_cond:.2e} (cap 1e-10), "
        f"{dt:.1f}s (cap 10s)",
    )


def test_criterion_06_gradient_check(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    ae = random_autoencoder(rng, (4, 8, 2))
    batch = rng.random((6, 4))
    grads_w, grads_b, _ = dbn.backprop_gradients(ae, batch)

    def loss_at(weights, biases):
        probe = dbn.Autoencoder(weights=tuple(weights), biases=tuple(biases))
        recon = dbn.forward(probe, batch)[-1]
        return 0.5 * float(np.sum((recon - batch) ** 2)) / batch.shape[0]

    eps = 1e-6
    worst = 0.0
    for layer in range(len(ae.weights)):
        for index in np.ndindex(ae.weights[layer].shape):
            ws = [w.copy() for w in ae.weights]
            ws[layer][index] += eps
            up = loss_at(ws, ae.biases)
            ws[layer][index] -= 2 * eps
            down = loss_at(ws, ae.biases)
            fd = (up - down) / (2 * eps)
            got = grads_w[layer][index]
            worst = max(worst, abs(got - fd) / max(abs(got), abs(fd), 1e-6))
        for index in range(ae.biases[layer].shape[0]):
            bs = [b.copy() for b in ae.biases]
            bs[layer][index] += eps
            up = loss_at(ae.weights, bs)
            bs[layer][index] -= 2 * eps
            down = loss_at(ae.weights, bs)
            fd = (up - down) / (2 * eps)
            got = grads_b[layer][index]
            worst = max(worst, abs(got - fd) / max(abs(got), abs(fd), 1e-6))
    dt = time.perf_counter() - t0
    acceptance(
        6,
        worst <= 1e-4 and dt < 5.0,
        f"4-8-2-8-4 net, backprop vs central differences over every "
        f"parameter: max rel err {worst:.2e} (cap 1e-4), {dt:.2f}s (cap 5s)",
    )


def test_criterion_07_bitstream(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    roundtrips_ok = True
    for _ in range(120):
        bits = int(rng.integers(2, 17))
        count = int(rng.integers(0, 400))
        symbols = rng.integers(0, 1 << bits, size=count, dtype=np.uint32)
        data = entropy_encode(symbols, bits)
        roundtrips_ok &= bool(
            np.array_equal(entropy_decode(data, count, bits), symbols)
        )
    for trial in range(80):
        levels = [(2, 2), (1,), (1, 2, 1)][trial % 3]
        header = make_header(
            levels=levels,
            channels=int(rng.choice([1, 3])),
            lossless=bool(trial % 4 == 0),
            quant_bits=int(rng.integers(2, 17)),
            layers=int(rng.integers(1, 4)),
        )
        payloads = make_payloads(header, rng)
        blob = write_container(header, payloads)
        decoded = read_container(blob)
        roundtrips_ok &= len(decoded.payloads) == len(levels)
        for got, want in zip(decoded.payloads, payloads):
            roundtrips_ok &= bool(np.array_equal(got.codes, want.codes))
            if header.lossless:
                roundtrips_ok &= bool(np.array_equal(got.basis_raw, want.basis_raw))
            else:
                roundtrips_ok &= bool(np.array_equal(got.symbols, want.symbols))

    header = make_header(levels=(1, 2, 1), quant_bits=9)
    blob = write_container(header, make_payloads(header, rng))
    boundaries = section_boundaries(blob)
    truncation_ok = True
    for index, boundary in enumerate(boundaries):
        truncation_ok &= len(read_container(blob[:boundary]).payloads) == index + 1
    try:
        read_container(blob[: boundaries[1] + 3])
        truncation_ok = False
    except TruncatedSectionError as exc:
        truncation_ok &= exc.last_complete_level == 2
    try:
        read_container(blob[: bitstream.packed_header_size(header)])
        truncation_ok = False
    except TruncatedSectionError as exc:
        truncation_ok &= exc.last_complete_level == 0
    dt = time.perf_counter() - t0
    acceptance(
        7,
        roundtrips_ok and truncation_ok and dt < 10.0,
        f"200 seeded roundtrips bit-exact (120 entropy, 80 container); "
        f"boundary cuts decode to their level, mid-section cut reports the "
        f"last complete level, {dt:.1f}s (cap 10s)",
    )


# Criterion 8 fixture, established by a pilot sweep. bench/fixtures.py holds
# its one recipe (field, config, two-pass training), and the model and patches
# stored there for the benchmark must be exactly what this recipe produces.
# Everything is deterministic: same field, same solver depth, same
# factorization, same training schedule, so the sweep lands on the same
# operating points. The layer images are constant on aligned 2x2 blocks and
# the depths are even, which keeps every pipeline stage closed over that block
# grid; the patch model then fits its 2x2 patches well enough that the
# quantizer sweep stays strictly on the good side of the model floor.
PINNED_FULL_PSNR = 42.070023  # dB at Q=14, full decode
PINNED_FULL_BYTES = 31756  # container bytes at Q=14


def test_criterion_08_progressive_quality(acceptance, tmp_path):
    t0 = time.perf_counter()
    field, _ = fixtures.cosine_layer_field(fixtures.FIXTURE_SEED)
    config = fixtures.fixture_config()
    images = training_images_from_light_field(field, config)
    patches = collect_training_patches(images, config.dbn)
    model = fixtures.train_model(patches, config.dbn, finetune_epochs=1500)
    saved = tmp_path / "model.dbn"
    dbn.save_model(saved, model)
    with open(fixtures.MODEL_PATH, "rb") as handle:
        matches_stored = saved.read_bytes() == handle.read() and np.array_equal(
            patches, np.load(fixtures.PATCHES_PATH)
        )

    sweep = []
    reference = None
    for bits in range(3, 15):
        encoded = encode_light_field(field, model, config, quant_bits=bits)
        decoded = decode_light_field(encoded.container, model)
        sweep.append(
            psnr_masked(field.samples, decoded.light_field.samples, decoded.mask)
        )
        reference = encoded
    monotone_q = bool((np.diff(sweep) >= 0.0).all())

    level1 = decode_light_field(truncate_container(reference.container, 1), model)
    lvl1_psnr = psnr_masked(
        field.samples, level1.light_field.samples, level1.mask
    )
    full_psnr = sweep[-1]
    monotone_level = lvl1_psnr <= full_psnr
    separated = full_psnr > lvl1_psnr

    psnr_pinned = abs(full_psnr - PINNED_FULL_PSNR) <= 0.05
    size = len(reference.container)
    bytes_pinned = abs(size - PINNED_FULL_BYTES) <= 0.005 * PINNED_FULL_BYTES
    dt = time.perf_counter() - t0
    acceptance(
        8,
        monotone_q and monotone_level and separated and psnr_pinned
        and bytes_pinned and matches_stored and dt < 300.0,
        f"Q sweep 3..14 non-decreasing={monotone_q} "
        f"(Q14 {full_psnr:.3f} dB, level-1 {lvl1_psnr:.3f} dB, "
        f"full>level-1={separated}); pinned {PINNED_FULL_PSNR:.3f}+-0.05 dB "
        f"ok={psnr_pinned}, {size}B vs {PINNED_FULL_BYTES}+-0.5% "
        f"ok={bytes_pinned}, stored model and patches match={matches_stored}, "
        f"{dt:.0f}s (cap 300s)",
    )


def test_criterion_09_bd_metrics(acceptance):
    t0 = time.perf_counter()
    rates = (0.5, 1.0, 2.0, 4.0)
    base = [RdPoint(r, 34.0 + 9.0 * np.log10(r)) for r in rates]

    same = bd_metrics(base, base)
    identical_ok = abs(same.bd_rate) <= 1e-9 and abs(same.bd_psnr) <= 1e-9

    doubled = [RdPoint(2.0 * p.rate, p.quality) for p in base]
    doubled_ok = abs(bd_metrics(base, doubled).bd_rate - 100.0) <= 1e-6

    lifted = [RdPoint(p.rate, p.quality + 1.0) for p in base]
    lifted_ok = abs(bd_metrics(base, lifted).bd_psnr - 1.0) <= 1e-6

    curve_a = [
        RdPoint(r, 30.0 + 8.0 * np.log10(r) - 1.5 * np.log10(r) ** 2)
        for r in rates
    ]
    curve_b = [
        RdPoint(1.12 * r, 31.0 + 7.5 * np.log10(r) - 1.2 * np.log10(r) ** 2)
        for r in rates
    ]
    got = bd_metrics(curve_a, curve_b)
    want_rate, want_psnr = reference_bd(curve_a, curve_b, 3)
    oracle_ok = (
        abs(got.bd_rate - want_rate) <= 1e-3
        and abs(got.bd_psnr - want_psnr) <= 1e-3
    )
    dt = time.perf_counter() - t0
    acceptance(
        9,
        identical_ok and doubled_ok and lifted_ok and oracle_ok and dt < 1.0,
        f"identical->(0,0) ok={identical_ok}; doubled rate->+100% "
        f"ok={doubled_ok}; +1dB->1.0 ok={lifted_ok}; 4-point vs dense "
        f"oracle ok={oracle_ok}, {dt:.2f}s (cap 1s)",
    )


def test_criterion_10_determinism(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    field, _, _ = random_truth_field(rng, 2, 1, 16, 16, (3, 3))
    config = PipelineConfig(
        depths=centered_depths(2),
        solver=SolverConfig(max_iterations=15),
        wbi=wbi.WbiConfig(components=2, partition=(1, 1)),
        dbn=dbn.DbnConfig(
            layer_sizes=(6, 8, 4, 2), patch=4
        ),
    )
    model = random_model(np.random.default_rng(11))

    first = encode_light_field(field, model, config, quant_bits=10)
    second = encode_light_field(field, model, config, quant_bits=10)
    containers_ok = first.container == second.container

    config = replace(config, qualities=(10, 26, 40))
    serial = rd_sweep(field, model, config, workers=1)
    threaded = rd_sweep(field, model, config, workers=3)
    sweep_ok = serial == threaded
    dt = time.perf_counter() - t0
    acceptance(
        10,
        containers_ok and sweep_ok,
        f"repeat encode byte-identical={containers_ok}; rd sweep rows equal "
        f"for 1 vs 3 workers={sweep_ok}, {dt:.1f}s",
    )

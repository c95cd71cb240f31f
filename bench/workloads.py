"""The three workloads, their closed-loop session and every output check.

One caller runs one session after another and waits for each call. The
sessions make the same five calls on every workload, on that workload's
inputs; training and the sweep take turns from one session to the next,
and all but the encode repeat until they have run for REPEAT_SECONDS:

    encode     pipeline.encode_light_field on the codec field
    decode     pipeline.decode_light_field of the whole container
    decode_l1  pipeline.decode_light_field of truncate_container(..., 1)
    train      criterion 8's training recipe on the fixture's patches
    sweep      metrics.rd_sweep on the sweep field, then BD against the anchor

The workload sets the sizes. On `rd-study` training and the sweep are the
subject; on the two codec workloads they are small control calls, so that
every end-to-end metric is measured on every workload.

The seed drives the codec field. Training and the sweep always run on the
default seed's inputs: their outputs are then checked against the stored
anchors at every seed, and their quality figures (training MSE, BD-Rate)
do not spread from seed to seed, which they would by 20% or more.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from lflc import bitstream, dbn, metrics, pipeline, wbi
from lflc.lightfield import psnr_masked

import fixtures

ANCHORS_PATH = os.path.join(fixtures.HERE, "anchors.json")

# Acceptance pins of criterion 8 (tests/test_acceptance.py), default seed only.
PINNED_BYTES = 31756
PINNED_PSNR = 42.070023

BYTES_TOLERANCE = 0.005  # relative, as the acceptance pin
PSNR_TOLERANCE = 0.05  # dB, as the acceptance pin
TRAIN_MSE_TOLERANCE = 0.02  # relative; fine-tuning amplifies rounding changes

# Within one session training, the sweep and the decodes repeat until they
# have run this long, so that sub-second calls are measured over a long
# enough stretch to be steady.
REPEAT_SECONDS = 1.0
MAX_REPEATS = 100


@dataclass(frozen=True)
class FieldSpec:
    size: int
    depths: tuple[int, ...]
    channels: int
    views: tuple[int, int]

    def build(self, seed: int):
        return fixtures.cosine_layer_field(
            seed, self.size, self.depths, self.channels, self.views
        )


@dataclass(frozen=True)
class Workload:
    name: str
    codec_field: FieldSpec
    iterations: int  # layer-solver iterations of the codec config
    partition: tuple[int, ...]
    quant_bits: int | None  # None means lossless
    pretrain_epochs: int
    finetune_epochs: int  # per fine-tune pass; the recipe runs two
    sweep_field: FieldSpec
    sweep_iterations: int
    sweep_qps: tuple[int, ...]
    psnr_floor: float  # sanity floor of the full decode, any seed

    def codec_config(self):
        return fixtures.codec_config(
            self.codec_field.depths, self.iterations, self.partition
        )

    def sweep_config(self):
        config = fixtures.codec_config(
            self.sweep_field.depths, self.sweep_iterations, self.partition
        )
        return replace(config, qualities=self.sweep_qps)


GRAY_64 = FieldSpec(64, (-2, 0, 2), 1, (5, 5))
GRAY_32 = FieldSpec(32, (-2, 0, 2), 1, (5, 5))
GRAY_16 = FieldSpec(16, (-2, 0, 2), 1, (5, 5))
RGB_64 = FieldSpec(64, (-2, -1, 0, 1, 2), 3, (7, 7))
RGB_16 = FieldSpec(16, (-2, -1, 0, 1, 2), 3, (7, 7))

CONTROL_QPS = (26, 38, 48)  # far apart, so quality rises with rate

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixture-q14", GRAY_64, 500, (1, 5), 14, 1, 5,
                 GRAY_16, 20, CONTROL_QPS, 25.0),
        Workload("rgb-lossless", RGB_64, 100, (2, 3, 3), None, 1, 5,
                 RGB_16, 10, CONTROL_QPS, 35.0),
        Workload("rd-study", GRAY_32, 500, (1, 5), 14, 20, 100,
                 GRAY_32, 500, (2, 14, 26, 38), 25.0),
    )
}


@dataclass
class Inputs:
    workload: Workload
    seed: int
    model: dbn.Autoencoder
    patches: np.ndarray
    codec_field: object
    sweep_field: object
    codec_config: object
    sweep_config: object
    train_config: dbn.DbnConfig
    anchor: dict  # stored outputs of the default seed


def setup(workload: Workload, seed: int) -> Inputs:
    """Everything a session needs before its first call."""
    model = dbn.load_model(fixtures.MODEL_PATH)
    patches = np.load(fixtures.PATCHES_PATH)
    codec_field, _ = workload.codec_field.build(seed)
    if workload.sweep_field == workload.codec_field and seed == fixtures.FIXTURE_SEED:
        sweep_field = codec_field
    else:
        sweep_field, _ = workload.sweep_field.build(fixtures.FIXTURE_SEED)
    stored = {}
    if os.path.exists(ANCHORS_PATH):
        with open(ANCHORS_PATH, encoding="ascii") as handle:
            stored = json.load(handle).get(workload.name, {})
    return Inputs(
        workload=workload,
        seed=seed,
        model=model,
        patches=patches,
        codec_field=codec_field,
        sweep_field=sweep_field,
        codec_config=workload.codec_config(),
        sweep_config=workload.sweep_config(),
        train_config=fixtures.dbn_config(workload.pretrain_epochs, 0.1, 0.5, 64),
        anchor=stored,
    )


class Session:
    """Runs sessions on one set of inputs and checks every call's output.

    `times[op]` holds one wall time per successful call and
    `per_session[op]` the mean of those times within each session; `values`
    holds the measured quality figures. `attempted` and `failed` count
    calls; a call fails when it raises or when its output fails a check.
    """

    OPS = ("encode", "decode", "decode_l1", "train", "sweep")

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.tracer = None  # set while a traced run records spans
        self.sessions = 0
        self.times = {op: [] for op in self.OPS}
        self.per_session = {op: [] for op in self.OPS}
        self.values: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, object] = {}

    # -- bookkeeping -----------------------------------------------------

    def _value(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def _fail(self, op: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {self.inputs.workload.name} {op}: {why}", file=sys.stderr)

    def _checked(self) -> object:
        """Context in which output checks run untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def _call(self, op: str, fn):
        """Time one call; returns its result, or None if it raised."""
        self.attempted += 1
        span = self.tracer.span(f"op.{op}") if self.tracer else contextlib.nullcontext()
        try:
            with span:
                tick = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - tick
        except Exception as exc:  # a failed call is counted, not fatal
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return None
        self.times[op].append(elapsed)
        return result

    def _check(self, op: str, ok: bool, why: str) -> bool:
        if not ok:
            self.times[op].pop()
            self._fail(op, why)
        return ok

    def _same_as_first(self, key: str, value, equal) -> bool:
        if key not in self.first:
            self.first[key] = value
            return True
        return equal(self.first[key], value)

    # -- one session -----------------------------------------------------

    def run_once(self) -> None:
        """One encode, then the decodes and either training (even sessions)
        or the sweep (odd sessions) in turn, one call each per turn, until
        each has run for REPEAT_SECONDS in this session.

        Alternating the two long calls keeps sessions short, so a run holds
        more of them; taking turns spreads every op's calls over the
        session, so a few seconds of a slower machine do not land on one op
        alone. Each op's sample for the session is its mean time per call
        (`per_session`).
        """
        start = {op: len(times) for op, times in self.times.items()}
        encoded = self._encode()
        calls = {"train": self._train} if self.sessions % 2 == 0 else {"sweep": self._sweep}
        self.sessions += 1
        if encoded is None:
            for op in ("decode", "decode_l1"):
                self.attempted += 1
                self._fail(op, "no container to decode")
        else:
            levels = len(self.inputs.workload.partition)
            with self._checked():
                short = bitstream.truncate_container(encoded.container, 1)
            calls["decode"] = lambda: self._decode(
                "decode", encoded, encoded.container, levels)
            calls["decode_l1"] = lambda: self._decode("decode_l1", encoded, short, 1)
        spent = dict.fromkeys(calls, 0.0)
        for _ in range(MAX_REPEATS):
            turn = [op for op in calls if spent[op] < REPEAT_SECONDS]
            if not turn:
                break
            for op in turn:
                done, failed = len(self.times[op]), self.failed
                calls[op]()
                spent[op] += sum(self.times[op][done:])
                if self.failed > failed:
                    spent[op] = float("inf")  # no more calls of a failing op
        for op, times in self.times.items():
            mine = times[start[op]:]
            if mine:
                self.per_session[op].append(sum(mine) / len(mine))

    def _encode(self):
        inp, w = self.inputs, self.inputs.workload
        lossless = w.quant_bits is None
        encoded = self._call("encode", lambda: pipeline.encode_light_field(
            inp.codec_field, None if lossless else inp.model, inp.codec_config,
            quant_bits=w.quant_bits, lossless=lossless,
        ))
        if encoded is None:
            return None
        size = len(encoded.container)
        if not self._check("encode", self._same_as_first(
            "container", encoded.container, bytes.__eq__
        ), "repeat encode is not byte-identical"):
            return None
        if inp.seed == fixtures.FIXTURE_SEED and w.name == "fixture-q14" and not self._check(
            "encode", abs(size - PINNED_BYTES) <= BYTES_TOLERANCE * PINNED_BYTES,
            f"{size} B is off the {PINNED_BYTES} B pin",
        ):
            return None
        self._value("container_bytes", size)
        return encoded

    def _decode(self, op, encoded, data, levels) -> None:
        inp, w = self.inputs, self.inputs.workload
        model = None if w.quant_bits is None else inp.model
        decoded = self._call(op, lambda: pipeline.decode_light_field(data, model))
        if decoded is None:
            return
        with self._checked():
            self._check_decode(op, encoded, decoded, levels)

    def _check_decode(self, op, encoded, decoded, levels) -> None:
        inp, w = self.inputs, self.inputs.workload
        field = inp.codec_field
        if not self._check(op, decoded.levels_used == levels,
                           f"decoded {decoded.levels_used} levels, want {levels}"):
            return
        if w.quant_bits is None:
            want = np.clip(wbi.decode_levels(encoded.wbi_code, levels), 0.0,
                           decoded.layers.bound)
            if not self._check(op, np.array_equal(decoded.layers.images, want),
                               "lossless layers differ from the factorization"):
                return
        quality = psnr_masked(field.samples, decoded.light_field.samples, decoded.mask)
        name = "psnr_db" if op == "decode" else "psnr_l1_db"
        if not self._check(op, self._same_as_first(name, quality, float.__eq__),
                           f"{name} changed between repeat decodes"):
            return
        if op == "decode":
            if not self._check(op, np.isfinite(quality) and quality >= w.psnr_floor,
                               f"PSNR {quality:.3f} dB under the {w.psnr_floor} dB floor"):
                return
        else:
            full = self.first.get("psnr_db")
            if full is not None and not self._check(
                op, quality <= full + 1e-9, "level 1 decodes better than all levels"
            ):
                return
        if inp.seed == fixtures.FIXTURE_SEED:
            pinned = PINNED_PSNR if (w.name, op) == ("fixture-q14", "decode") else None
            stored = inp.anchor.get(name)
            for want in (pinned, stored):
                if want is not None and not self._check(
                    op, abs(quality - want) <= PSNR_TOLERANCE,
                    f"{name} {quality:.4f} dB is off its anchor {want:.4f} dB",
                ):
                    return
        self._value(name, quality)

    def _train(self) -> None:
        inp, w = self.inputs, self.inputs.workload
        model = self._call("train", lambda: fixtures.train_model(
            inp.patches, inp.train_config, w.finetune_epochs
        ))
        if model is None:
            return
        with self._checked():
            mse = dbn.reconstruction_mse(model, inp.patches)
            if not self._check("train", bool(np.isfinite(mse)) and 0.0 < mse < 0.25,
                               f"training MSE {mse} is not sane"):
                return
            if not self._check("train", self._same_as_first("train_mse", mse, float.__eq__),
                               "repeat training gave another model"):
                return
            stored = inp.anchor.get("train_mse")
            if stored is not None and not self._check(
                "train", abs(mse - stored) <= TRAIN_MSE_TOLERANCE * stored,
                f"training MSE {mse:.6g} is off its anchor {stored:.6g}",
            ):
                return
        self._value("train_mse", mse)

    def _sweep(self) -> None:
        inp, w = self.inputs, self.inputs.workload
        rows = self._call("sweep", lambda: metrics.rd_sweep(
            inp.sweep_field, inp.model, inp.sweep_config, workers=1
        ))
        if rows is None:
            return
        with self._checked():
            table = [(qp, p.rate, p.quality) for qp, p in rows]
            if not self._check("sweep", sorted(qp for qp, _, _ in table)
                               == sorted(w.sweep_qps), f"sweep rows {table}"):
                return
            if not self._check("sweep", self._same_as_first("sweep", table, list.__eq__),
                               "repeat sweep gave other rows"):
                return
            stored = inp.anchor.get("sweep_rows")
            if stored is not None and not self._check(
                "sweep", rows_match(table, stored), f"sweep rows {table} are off {stored}"
            ):
                return
            if inp.codec_field is inp.sweep_field and w.quant_bits == 14 and 2 in w.sweep_qps:
                # QP 2 is 14-bit quantization: the same encode as the codec calls.
                qp2 = next(row for row in table if row[0] == 2)
                mine = (self.first.get("container"), self.first.get("psnr_db"))
                if mine[0] is not None and mine[1] is not None and not self._check(
                    "sweep", qp2[1] == metrics.bits_per_pixel_of(mine[0], inp.sweep_field)
                    and qp2[2] == mine[1], "QP 2 row differs from the Q14 encode",
                ):
                    return
            try:
                bd = metrics.bd_metrics(envelope(stored or table), envelope(table))
            except ValueError as exc:
                self._check("sweep", False, f"BD of the sweep failed: {exc}")
                return
        self._value("sweep_bd_rate_ratio", 1.0 + bd.bd_rate / 100.0)


def envelope(rows) -> list:
    """RD points of sweep rows, less those a lower rate already beats.

    Near the model's quality floor a finer quantizer can lose a hundredth
    of a dB; BD needs a curve whose quality rises with rate.
    """
    points, best = [], -np.inf
    for _, rate, quality in sorted(rows, key=lambda row: row[1]):
        if quality > best:
            points.append(metrics.RdPoint(rate, quality))
            best = quality
    return points


def rows_match(table, stored) -> bool:
    if [row[0] for row in table] != [row[0] for row in stored]:
        return False
    return all(
        abs(rate - s_rate) <= BYTES_TOLERANCE * s_rate
        and abs(quality - s_quality) <= PSNR_TOLERANCE
        for (_, rate, quality), (_, s_rate, s_quality) in zip(table, stored)
    )

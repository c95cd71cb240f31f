"""Benchmark of the lflc codec: encode, decode, train and RD-sweep times.

    python3 bench/run.py --workload fixture-q14 --seed 2024 --seconds 46 --trace 0

One caller runs the workload's session (see workloads.py) in a closed loop
for about --seconds, checks every call's output, and prints one JSON object
as its last line: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end figures of BENCHMARK.json. A
call's time is the median, over sessions, of its mean time per call within
a session; set-up is repeated SETUP_REPEATS times and its median reported.
With --trace 1 the public functions of the codec are wrapped by the span
tracer (tracer.py) and the metrics are the per-layer figures (perlayer.py).
Results and run metadata go to bench/out/; a traced run also writes its
spans there.

Workloads: fixture-q14, rgb-lossless, rd-study. Seed 2024 reproduces the
acceptance fixture and is the only seed at which codec outputs are also
checked against the stored anchors. `--write-anchors` re-records them.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 31
# Training and the sweep take turns, so two sessions make each call once.
MIN_SESSIONS = 2


def import_program():
    """Import lflc from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import lflc
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import lflc from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(lflc.__file__)) != os.path.join(SRC, "lflc"):
        raise SystemExit(f"bench: lflc imported from {lflc.__file__}, not {SRC}")


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_blas_threads():
    """Run OpenBLAS on one thread; returns the thread count, None if unknown.

    On a two-core machine the fixture encode ran slower and less steadily
    with OpenBLAS's default of one thread per core, and no call here is
    large enough to gain from more threads.
    """
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if getter is not None and setter is not None:
                    setter(ctypes.c_int(1))
                    return int(getter())
    return None


def metadata(args, blas_threads) -> dict:
    import numpy as np

    cores = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "nproc": cores,
        "processes": 1,
        "machine": platform.machine(),
    }


def closed_loop(session, seconds: float, reserve: int = 0) -> None:
    """Run at least MIN_SESSIONS sessions, then more until the next one,
    and `reserve` more after it, would end after `seconds`."""
    walls = []
    start = time.perf_counter()
    while True:
        tick = time.perf_counter()
        session.run_once()
        walls.append(time.perf_counter() - tick)
        elapsed = time.perf_counter() - start
        if (len(walls) >= MIN_SESSIONS
                and elapsed + (1 + reserve) * statistics.median(walls) > seconds):
            return


def end_to_end(session, setup_times) -> dict:
    values = {"setup_s": statistics.median(setup_times)}
    for op in session.OPS:
        if session.per_session[op]:
            values[f"{op}_s"] = statistics.median(session.per_session[op])
    for name, samples in session.values.items():
        values[name] = statistics.median(samples)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["op_ok_frac"] = 1.0 - session.failed / session.attempted
    units = {"container_bytes": "B", "psnr_db": "dB", "psnr_l1_db": "dB",
             "train_mse": "mse", "sweep_bd_rate_ratio": "ratio",
             "peak_rss_mb": "MB", "op_ok_frac": "ratio"}
    return {name: (value, units.get(name, "s")) for name, value in values.items()}


def traced(session, seconds: float, spans_path: str) -> dict:
    import perlayer
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        session.tracer = tracer
        closed_loop(session, seconds, reserve=1)
        session.tracer = None
    tracer.write(spans_path)
    # One untraced session after the traced ones is the overhead's baseline;
    # the first traced session carries the warm-up, so the overhead errs high.
    done = {op: len(times) for op, times in session.times.items()}
    session.run_once()
    traced_s = untraced_s = 0.0
    for op, times in session.times.items():
        if done[op] and len(times) > done[op]:
            traced_s += statistics.median(times[:done[op]])
            untraced_s += statistics.median(times[done[op]:])
    values = perlayer.layer_metrics(tracer.spans, tracer.missing)
    if untraced_s > 0:
        values["trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    return {name: (value, perlayer.unit(name)) for name, value in values.items()}


def write_anchors(workloads, workload, inputs, session) -> None:
    stored = {}
    if os.path.exists(workloads.ANCHORS_PATH):
        with open(workloads.ANCHORS_PATH, encoding="ascii") as handle:
            stored = json.load(handle)
    figures = {name: samples[0] for name, samples in session.values.items()
               if name not in ("sweep_bd_rate_ratio",)}
    figures["sweep_rows"] = [list(row) for row in session.first["sweep"]]
    stored[workload.name] = figures
    with open(workloads.ANCHORS_PATH, "w", encoding="ascii") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"anchors of {workload.name} written to {workloads.ANCHORS_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=46.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-anchors", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    meta = metadata(args, pin_blas_threads())

    setup_times = []
    for _ in range(SETUP_REPEATS):
        tick = time.perf_counter()
        inputs = workloads.setup(workload, args.seed)
        setup_times.append(time.perf_counter() - tick)
    session = workloads.Session(inputs)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.write_anchors:
        inputs.anchor = {}
        for _ in range(MIN_SESSIONS):
            session.run_once()
        if session.failed:
            raise SystemExit("bench: a call failed; anchors not written")
        write_anchors(workloads, workload, inputs, session)
        return 0
    if args.trace:
        metrics = traced(session, args.seconds, stem + "-spans.json")
    else:
        closed_loop(session, args.seconds)
        metrics = end_to_end(session, setup_times)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="ascii") as handle:
        json.dump({"meta": meta, "setup_s": setup_times, "times": session.times,
                   "per_session": session.per_session, "values": session.values,
                   "result": result}, handle, indent=1)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

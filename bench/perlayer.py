"""Per-layer metrics of a traced run, computed from its spans.

The benchmark wraps each call it makes in an `op.<name>` span. A layer's
figure is what it costs in one call of each op: for every op, the median
over that op's traced calls of the layer's total inside one call, summed
over the ops. Repeating a cheap call more often therefore does not move it.
Ratios (accept ratio, ns per decision) pool every traced call. A metric
whose spans could not be recorded, because the function it times no longer
exists at a traced attribute, is left out.
"""

from __future__ import annotations

import statistics

from tracer import self_times

# Metric -> span names it is computed from.
NEEDS = {
    "layers.solve_s": ("layers.solve",),
    "layers.solve_calls": ("layers.solve",),
    "layers.iterations": ("layers.adjoint",),
    "layers.accept_ratio": ("layers.solve", "layers.render"),
    "layers.render_calls": ("layers.render",),
    "layers.render_s": ("layers.render",),
    "layers.adjoint_s": ("layers.adjoint",),
    "wbi.encode_s": ("wbi.encode",),
    "wbi.alternations": ("wbi.solve_codes",),
    "wbi.decode_s": ("wbi.decode",),
    "dbn.encode_patches_s": ("dbn.encode_patches",),
    "dbn.encode_patches_calls": ("dbn.encode_patches",),
    "dbn.decode_patches_s": ("dbn.decode_patches",),
    "dbn.decode_patches_calls": ("dbn.decode_patches",),
    "dbn.pretrain_s": ("dbn.pretrain",),
    "dbn.finetune_s": ("dbn.finetune",),
    "dbn.minibatches": ("dbn.minibatch",),
    "bitstream.entropy_encode_s": ("bitstream.entropy_encode",),
    "bitstream.write_container_s": ("bitstream.write_container",),
    "bitstream.entropy_decode_s": ("bitstream.entropy_decode",),
    "bitstream.read_container_s": ("bitstream.read_container",),
    "bitstream.coded_decisions": ("bitstream.entropy_encode", "bitstream.entropy_decode"),
    "bitstream.decode_ns_per_decision": ("bitstream.entropy_decode",),
    "pipeline.encode_self_s": ("pipeline.encode",),
    "pipeline.decode_self_s": ("pipeline.decode",),
    "metrics.sweep_self_s": ("metrics.rd_sweep",),
}

UNITS = {
    "layers.solve_calls": "count",
    "layers.iterations": "count",
    "layers.accept_ratio": "ratio",
    "layers.render_calls": "count",
    "wbi.alternations": "count",
    "dbn.encode_patches_calls": "count",
    "dbn.decode_patches_calls": "count",
    "dbn.minibatches": "count",
    "bitstream.coded_decisions": "count",
    "bitstream.decode_ns_per_decision": "ns",
    "trace_overhead_pct": "%",
}

# optimize_layers renders twice before its first step: the validity mask of a
# zero stack, and the starting point. Every later render inside a solve is a
# candidate step.
RENDERS_BEFORE_FIRST_STEP = 2


def unit(name: str) -> str:
    return UNITS.get(name, "s")


def _call_figures(spans, own) -> dict[str, float]:
    """Additive figures of the layer spans inside one op call."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name):
        return sum(span.duration for span in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_total(name):
        return sum(own[span.index] for span in by_name.get(name, ()))

    solves = by_name.get("layers.solve", ())
    solve_ids = {span.index for span in solves}
    return {
        "layers.solve_s": total("layers.solve"),
        "layers.solve_calls": calls("layers.solve"),
        "layers.iterations": calls("layers.adjoint"),
        "layers.render_calls": calls("layers.render"),
        "layers.render_s": total("layers.render"),
        "layers.adjoint_s": total("layers.adjoint"),
        "wbi.encode_s": total("wbi.encode"),
        "wbi.alternations": calls("wbi.solve_codes"),
        "wbi.decode_s": total("wbi.decode"),
        "dbn.encode_patches_s": total("dbn.encode_patches"),
        "dbn.encode_patches_calls": calls("dbn.encode_patches"),
        "dbn.decode_patches_s": total("dbn.decode_patches"),
        "dbn.decode_patches_calls": calls("dbn.decode_patches"),
        "dbn.pretrain_s": total("dbn.pretrain"),
        "dbn.finetune_s": total("dbn.finetune"),
        "dbn.minibatches": calls("dbn.minibatch"),
        "bitstream.entropy_encode_s": total("bitstream.entropy_encode"),
        "bitstream.write_container_s": total("bitstream.write_container"),
        "bitstream.entropy_decode_s": total("bitstream.entropy_decode"),
        "bitstream.read_container_s": total("bitstream.read_container"),
        "bitstream.coded_decisions": sum(
            span.count for name in ("bitstream.entropy_encode", "bitstream.entropy_decode")
            for span in by_name.get(name, ())
        ),
        "pipeline.encode_self_s": self_total("pipeline.encode"),
        "pipeline.decode_self_s": self_total("pipeline.decode"),
        "metrics.sweep_self_s": self_total("metrics.rd_sweep"),
        # pooled into ratios below
        "accepted": sum(span.count for span in solves),
        "candidates": sum(
            1 for span in by_name.get("layers.render", ()) if span.parent in solve_ids
        ) - RENDERS_BEFORE_FIRST_STEP * len(solves),
        "decoded": sum(span.count for span in by_name.get("bitstream.entropy_decode", ())),
    }


def layer_metrics(spans, missing=()) -> dict[str, float]:
    """Per-layer figures of a traced run (see the module docstring)."""
    op_of: dict[int, int] = {}  # span index -> index of the op call around it
    inside: dict[int, list] = {}  # op call index -> layer spans inside it
    for span in spans:
        if span.name.startswith("op."):
            op_of[span.index] = span.index
            inside[span.index] = []
        elif span.parent in op_of:
            op_of[span.index] = op_of[span.parent]
            inside[op_of[span.index]].append(span)
    own = self_times(spans)
    by_op: dict[str, list[dict]] = {}
    for index, members in inside.items():
        by_op.setdefault(spans[index].name, []).append(_call_figures(members, own))
    pooled = {key: sum(figures[key] for calls in by_op.values() for figures in calls)
              for key in ("accepted", "candidates", "decoded")}
    decode_s = sum(figures["bitstream.entropy_decode_s"]
                   for calls in by_op.values() for figures in calls)
    values = {
        name: sum(statistics.median(figures[name] for figures in calls)
                  for calls in by_op.values())
        for name in NEEDS
        if name not in ("layers.accept_ratio", "bitstream.decode_ns_per_decision")
    }
    values["layers.accept_ratio"] = (
        pooled["accepted"] / pooled["candidates"] if pooled["candidates"] > 0 else 0.0
    )
    values["bitstream.decode_ns_per_decision"] = (
        decode_s / pooled["decoded"] * 1e9 if pooled["decoded"] else 0.0
    )
    missing = set(missing)
    return {
        name: values[name]
        for name in NEEDS
        if not missing.intersection(NEEDS[name])
    }

"""Flat key=value configuration shared by the CLI and the pipeline.

One dotted namespace per stage, no nesting, no quoting. The 15 keys:

    solver.depths, solver.max_iterations, solver.tolerance
    wbi.components, wbi.partition
    dbn.layer_sizes, dbn.patch, dbn.stride, dbn.variance_threshold,
    dbn.epochs, dbn.learning_rate, dbn.momentum, dbn.batch_size, dbn.seed
    sweep.qualities

Files may hold blank lines and #-comments. Command-line --set entries
override file entries, and everything funnels through the same schema:
unknown keys are rejected up front and values are validated by the stage
configs themselves before any computation starts. The quantizer is not
configured here: its depth and lossless mode are arguments of the encode
call (pipeline.encode_light_field, `lflc encode --bits/--qp/--lossless`).
Settings that no caller varies are module constants, not keys: the solver's
first step and backtrack limit (layers.INITIAL_STEP, layers.MAX_BACKTRACKS),
the WBI alternation limit and stopping tolerance (wbi.MAX_ALTERNATIONS,
wbi.REL_TOLERANCE), the WBI basis-solve ridge and start-code seed
(wbi.RIDGE, wbi.START_SEED) and the one Gibbs step of each RBM gradient
(dbn.cd_update computes CD-1).

The QP scale lives here too: the sweep's quality parameter maps onto the
quantizer depth by quant_bits_for_qp, and DEFAULT_QP_GRID holds one QP per
depth from 14 bits down to 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dbn import DbnConfig
from .errors import ConfigError
from .layers import DEFAULT_DEPTHS, SolverConfig
from .wbi import WbiConfig

MIN_QP = 2
MAX_QP = 48
DEFAULT_QP_GRID = (2, 6, 10, 14, 18, 22, 26, 32, 36, 40, 44, 48)


def quant_bits_for_qp(qp: int) -> int:
    """Affine map from the sweep's quality parameter to quantizer bits.

    QP 2 is the highest quality (14 bits), QP 48 the lowest (3 bits),
    linearly in between with round-half-up.
    """
    if not MIN_QP <= qp <= MAX_QP:
        raise ValueError(f"quality parameter must be in [{MIN_QP}, {MAX_QP}], got {qp}")
    return int(14.0 - 11.0 * (qp - MIN_QP) / (MAX_QP - MIN_QP) + 0.5)


@dataclass(frozen=True)
class PipelineConfig:
    solver: SolverConfig
    wbi: WbiConfig
    dbn: DbnConfig
    depths: tuple[int, ...] = DEFAULT_DEPTHS
    qualities: tuple[int, ...] = DEFAULT_QP_GRID

    def __post_init__(self):
        depths = tuple(int(d) for d in self.depths)
        object.__setattr__(self, "depths", depths)
        if len(depths) < 1:
            raise ValueError("need at least one layer depth")
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValueError(f"depths must be strictly increasing, got {depths}")
        qualities = tuple(int(q) for q in self.qualities)
        object.__setattr__(self, "qualities", qualities)
        for qp in qualities:
            if not MIN_QP <= qp <= MAX_QP:
                raise ValueError(f"sweep quality {qp} outside [{MIN_QP}, {MAX_QP}]")


def default_config() -> PipelineConfig:
    return PipelineConfig(solver=SolverConfig(), wbi=WbiConfig(), dbn=DbnConfig())


def _parse_ints(text: str) -> tuple[int, ...]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError("empty integer list")
    return tuple(int(item) for item in items)


# key -> (target section, field name, parser)
_SCHEMA = {
    "solver.depths": ("pipeline", "depths", _parse_ints),
    "solver.max_iterations": ("solver", "max_iterations", int),
    "solver.tolerance": ("solver", "tolerance", float),
    "wbi.components": ("wbi", "components", int),
    "wbi.partition": ("wbi", "partition", _parse_ints),
    "dbn.layer_sizes": ("dbn", "layer_sizes", _parse_ints),
    "dbn.patch": ("dbn", "patch", int),
    "dbn.stride": ("dbn", "stride", int),
    "dbn.variance_threshold": ("dbn", "variance_threshold", float),
    "dbn.epochs": ("dbn", "epochs", int),
    "dbn.learning_rate": ("dbn", "learning_rate", float),
    "dbn.momentum": ("dbn", "momentum", float),
    "dbn.batch_size": ("dbn", "batch_size", int),
    "dbn.seed": ("dbn", "seed", int),
    "sweep.qualities": ("pipeline", "qualities", _parse_ints),
}


def parse_entries(lines, source: str = "<config>") -> dict[str, str]:
    """key=value lines to a dict; comments and blanks skipped."""
    entries: dict[str, str] = {}
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{number}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{number}: unknown config key {key!r}")
        entries[key] = value
    return entries


def read_config_file(path) -> dict[str, str]:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return parse_entries(handle, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def resolve_config(*entry_maps: dict[str, str]) -> PipelineConfig:
    """Later maps override earlier ones; result is fully validated."""
    merged: dict[str, str] = {}
    for entry_map in entry_maps:
        merged.update(entry_map)
    sections: dict[str, dict] = {"solver": {}, "wbi": {}, "dbn": {}, "pipeline": {}}
    for key, text in merged.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        section, field_name, parser = _SCHEMA[key]
        try:
            sections[section][field_name] = parser(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    try:
        return PipelineConfig(
            solver=SolverConfig(**sections["solver"]),
            wbi=WbiConfig(**sections["wbi"]),
            dbn=DbnConfig(**sections["dbn"]),
            **sections["pipeline"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    return repr(value) if isinstance(value, float) else str(value)


def format_config(config: PipelineConfig) -> str:
    """Resolved configuration echoed in the same flat syntax, sorted."""
    holders = {"solver": config.solver, "wbi": config.wbi, "dbn": config.dbn}
    lines = []
    for key, (section, field_name, _) in _SCHEMA.items():
        holder = config if section == "pipeline" else holders[section]
        lines.append(f"{key}={_format_value(getattr(holder, field_name))}")
    return "\n".join(sorted(lines))

"""Flat key=value configuration: schema, precedence, QP mapping."""

import pytest

from lflc.config import (
    DEFAULT_QP_GRID,
    MAX_QP,
    MIN_QP,
    PipelineConfig,
    default_config,
    format_config,
    parse_entries,
    quant_bits_for_qp,
    read_config_file,
    resolve_config,
)
from lflc.errors import ConfigError


class TestQpMapping:
    def test_pinned_grid(self):
        # one QP per quantizer depth, 14 bits down to 3, none repeated
        bits = [quant_bits_for_qp(qp) for qp in DEFAULT_QP_GRID]
        assert bits == [14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3]

    def test_endpoints(self):
        assert quant_bits_for_qp(MIN_QP) == 14
        assert quant_bits_for_qp(MAX_QP) == 3

    def test_monotone_non_increasing(self):
        bits = [quant_bits_for_qp(qp) for qp in range(MIN_QP, MAX_QP + 1)]
        assert all(b <= a for a, b in zip(bits, bits[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quant_bits_for_qp(1)
        with pytest.raises(ValueError):
            quant_bits_for_qp(49)


class TestParseEntries:
    def test_comments_and_blanks_skipped(self):
        entries = parse_entries(
            [
                "# a full-line comment",
                "",
                "solver.max_iterations = 80  # trailing comment",
                "wbi.components=4",
            ]
        )
        assert entries == {"solver.max_iterations": "80", "wbi.components": "4"}

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="cfg:2"):
            parse_entries(["wbi.components=4", "wbi.compnents=4"], source="cfg")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_entries(["solver.max_iterations 80"])

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dbn.epochs=3\nsolver.max_iterations=10\n")
        assert read_config_file(path) == {"dbn.epochs": "3", "solver.max_iterations": "10"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config_file(tmp_path / "absent.cfg")


class TestResolveConfig:
    def test_defaults_without_entries(self):
        assert resolve_config() == default_config()

    def test_fields_land_in_their_sections(self):
        config = resolve_config(
            {
                "solver.max_iterations": "123",
                "solver.depths": "-2,-1,0,1",
                "wbi.partition": "2,2",
                "dbn.layer_sizes": "32,48,16,8",
                "dbn.patch": "8",
                "sweep.qualities": "10,26,40",
            }
        )
        assert config.solver.max_iterations == 123
        assert config.depths == (-2, -1, 0, 1)
        assert config.wbi.partition == (2, 2)
        assert config.dbn.layer_sizes == (32, 48, 16, 8)
        assert config.dbn.patch == 8
        assert config.qualities == (10, 26, 40)

    def test_later_maps_override(self):
        config = resolve_config(
            {"dbn.epochs": "5", "solver.max_iterations": "6"},
            {"solver.max_iterations": "9"},
        )
        assert config.solver.max_iterations == 9
        assert config.dbn.epochs == 5

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError, match="solver.max_iterations"):
            resolve_config({"solver.max_iterations": "many"})

    def test_validation_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            resolve_config({"solver.max_iterations": "0"})
        with pytest.raises(ConfigError):
            resolve_config({"wbi.partition": "3,3"})  # sum != components

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dbn.seed", "-1"),
            ("dbn.learning_rate", "nan"),
            ("dbn.learning_rate", "inf"),
            ("dbn.momentum", "nan"),
            ("dbn.momentum", "-inf"),
            ("dbn.variance_threshold", "nan"),
            ("dbn.variance_threshold", "inf"),
            ("solver.tolerance", "nan"),
            ("solver.tolerance", "inf"),
        ],
    )
    def test_values_that_fail_later_are_refused_up_front(self, key, value):
        with pytest.raises(ConfigError, match=key.split(".")[1]):
            resolve_config({key: value})

    def test_benchmark_values_stay_valid(self):
        for rate, momentum in (("0.1", "0.5"), ("0.05", "0.9")):
            config = resolve_config({
                "dbn.seed": "11",
                "dbn.learning_rate": rate,
                "dbn.momentum": momentum,
                "dbn.variance_threshold": "0.0",
                "solver.tolerance": "0.0",
            })
            assert config.dbn.seed == 11 and config.solver.tolerance == 0.0

    def test_quantizer_is_not_a_config_key(self):
        # the quantizer is set on the encode call alone
        for key in ("quantizer.bits", "quantizer.lossless"):
            with pytest.raises(ConfigError, match="unknown config key"):
                resolve_config({key: "8"})


class TestFormatConfig:
    def test_echo_parses_back_to_same_config(self):
        config = resolve_config(
            {
                "dbn.learning_rate": "0.075",
                "dbn.variance_threshold": "0.002",
                "sweep.qualities": "2,26,48",
            }
        )
        echoed = format_config(config)
        reparsed = resolve_config(parse_entries(echoed.splitlines()))
        assert reparsed == config

    def test_sorted_and_complete(self):
        lines = format_config(default_config()).splitlines()
        assert lines == sorted(lines)
        keys = {line.split("=", 1)[0] for line in lines}
        assert "solver.max_iterations" in keys
        assert "dbn.allow_any_sizes" not in keys
        assert "sweep.qualities" in keys
        assert len(keys) == len(lines) == 15
        assert not keys & {"solver.seed", "solver.random_init", "wbi.search_cap"}
        assert not keys & {
            "solver.step_size",
            "solver.backtracks",
            "wbi.max_alternations",
            "wbi.tolerance",
            "wbi.ridge",
            "wbi.seed",
            "dbn.cd_steps",
        }


class TestPipelineConfig:
    def test_depth_ordering_enforced(self):
        base = default_config()
        with pytest.raises(ValueError):
            PipelineConfig(
                solver=base.solver, wbi=base.wbi, dbn=base.dbn, depths=(1, 0, -1)
            )
        with pytest.raises(ValueError):
            PipelineConfig(
                solver=base.solver, wbi=base.wbi, dbn=base.dbn, depths=()
            )

    def test_quality_grid_bounds_checked(self):
        base = default_config()
        with pytest.raises(ValueError):
            PipelineConfig(
                solver=base.solver, wbi=base.wbi, dbn=base.dbn, qualities=(2, 50)
            )

"""Scenario validation and report writing for the bench harness.

The expensive end-to-end paths (real clusters, scaling ratios) are
covered by the CLI and acceptance suites; this file pins the cheap
contracts: which scenarios are rejected, and that reports round-trip.
"""

import json

import pytest

from gateflow.bench import SCENARIO_DEFAULTS, load_scenario, write_report


class TestLoadScenario:
    def test_empty_data_yields_defaults(self):
        scenario = load_scenario({})
        assert scenario == SCENARIO_DEFAULTS
        assert scenario is not SCENARIO_DEFAULTS  # caller gets a copy

    def test_overrides_apply(self):
        scenario = load_scenario({"nodes": [1, 2, 4], "rows_per_node": 500})
        assert scenario["nodes"] == [1, 2, 4]
        assert scenario["rows_per_node"] == 500
        assert scenario["devices"] == SCENARIO_DEFAULTS["devices"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            load_scenario({"node": [1, 2]})

    def test_decreasing_nodes_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            load_scenario({"nodes": [4, 2]})

    def test_equal_nodes_rejected(self):
        # a pair (i, j) with i >= j has no scaling ratio to report
        with pytest.raises(ValueError, match="strictly increasing"):
            load_scenario({"nodes": [2, 2, 4]})

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            load_scenario({"nodes": []})

    def test_zero_node_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            load_scenario({"nodes": [0, 1]})

    def test_single_node_is_fine(self):
        assert load_scenario({"nodes": [3]})["nodes"] == [3]

    def test_rows_per_node_must_be_positive(self):
        with pytest.raises(ValueError, match="rows_per_node"):
            load_scenario({"rows_per_node": 0})

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"nodes": 5}, "nodes"),
            ({"nodes": [1, "2"]}, r"nodes\[1\]"),
            ({"nodes": [True, 2]}, r"nodes\[0\]"),
            ({"rows_per_node": "x"}, "rows_per_node"),
            ({"rows_per_node": 2.5}, "rows_per_node"),
            ({"devices": "64"}, "devices"),
            ({"devices": 0}, "devices"),
            ({"batch_lines": None}, "batch_lines"),
            ({"batch_lines": -1}, "batch_lines"),
            ({"quiesce_timeout_s": "soon"}, "quiesce_timeout_s"),
            ({"quiesce_timeout_s": 0}, "quiesce_timeout_s"),
            ({"interval_ms": [100]}, "interval_ms"),
            ({"schema": 5}, "schema"),
        ],
    )
    def test_wrong_type_or_range_is_a_value_error(self, data, key):
        with pytest.raises(ValueError, match=key):
            load_scenario(data)

    def test_a_whole_timeout_is_taken_as_seconds(self):
        assert load_scenario({"quiesce_timeout_s": 5})["quiesce_timeout_s"] == 5.0


class TestWriteReport:
    def test_report_round_trips_through_json(self, tmp_path):
        report = {
            "scenario": dict(SCENARIO_DEFAULTS),
            "runs": [{"nodes": 1, "rows_per_s": 12345.6}],
            "scaling": {"1,2": 0.91},
            "incomplete": False,
        }
        path = tmp_path / "report.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == report

    def test_report_file_ends_with_newline(self, tmp_path):
        path = tmp_path / "report.json"
        write_report({"runs": []}, str(path))
        assert path.read_text().endswith("\n")

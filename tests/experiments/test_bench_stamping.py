"""BENCH artifact provenance stamps and tail-latency summary coverage."""

import json

import pytest

from repro.experiments.bench_output import (
    BENCH_SCHEMA_VERSION,
    SUMMARY_METRICS,
    serving_summary,
    write_bench_serving_json,
)

ROWS = [
    {
        "system": "moe-lightning",
        "load_factor": 1.0,
        "token_throughput": 10.0,
        "ttft_p50": 1.0,
        "ttft_p95": 2.0,
        "ttft_p99": 3.0,
        "tpot_p50": 0.1,
        "tpot_p95": 0.2,
        "tpot_p99": 0.3,
        "e2e_p50": 5.0,
        "e2e_p95": 8.0,
        "e2e_p99": 9.0,
        "goodput": 1.0,
        "goodput_fraction": 0.9,
        "not_jsonable": object(),
    }
]


class TestStamping:
    def test_artifact_carries_provenance(self, tmp_path):
        path = tmp_path / "BENCH_serving.json"
        document = write_bench_serving_json(path, ROWS, meta={"seed": 0})
        assert document["schema_version"] == BENCH_SCHEMA_VERSION
        assert BENCH_SCHEMA_VERSION >= 2
        assert isinstance(document["git_sha"], str) and document["git_sha"]
        # ISO-8601 UTC timestamp, parseable back.
        from datetime import datetime

        stamp = datetime.fromisoformat(document["created_at"])
        assert stamp.tzinfo is not None

        reloaded = json.loads(path.read_text())
        assert reloaded["schema_version"] == document["schema_version"]
        assert reloaded["git_sha"] == document["git_sha"]
        assert reloaded["created_at"] == document["created_at"]

    def test_non_jsonable_row_values_dropped(self, tmp_path):
        document = write_bench_serving_json(tmp_path / "b.json", ROWS)
        assert "not_jsonable" not in document["rows"][0]


class TestTailSummaries:
    def test_summary_metrics_cover_p99_tails(self):
        # The regression this satellite guards: every latency family
        # reports p50 *and* p99 in the BENCH summary, not just p95.
        for family in ("ttft", "tpot", "e2e"):
            for quantile in ("p50", "p95", "p99"):
                assert f"{family}_{quantile}" in SUMMARY_METRICS

    def test_summary_carries_e2e_tails(self):
        summary = serving_summary(ROWS)
        entry = summary["moe-lightning"]
        assert entry["e2e_p50"] == 5.0
        assert entry["e2e_p99"] == 9.0
        assert entry["ttft_p99"] == 3.0


class TestServingRowsCarryP99:
    def test_serving_report_as_row_has_p99(self, mixtral, t4_node):
        from repro.experiments.serving_sweep import run_serving_sweep

        rows = run_serving_sweep(
            load_factors=(1.0,),
            system_names=("moe-lightning",),
            num_requests=8,
            generation_len=4,
        )
        row = rows[0]
        for key in ("ttft_p99", "tpot_p99", "e2e_p99"):
            assert key in row
            assert row[key] >= 0.0
        assert row["e2e_p99"] >= row["e2e_p50"]
        assert serving_summary(rows)["moe-lightning"]["e2e_p99"] == pytest.approx(
            row["e2e_p99"]
        )


class TestBenchmarkLabel:
    def test_writer_defaults_to_serving(self, tmp_path):
        document = write_bench_serving_json(tmp_path / "b.json", ROWS)
        assert document["benchmark"] == "serving"

    def test_disagg_cli_labels_its_artifact_disagg(self, tmp_path, capsys):
        from repro.experiments.disagg_sweep import main

        path = tmp_path / "BENCH_disagg.json"
        argv = [
            "--shards", "2", "--chat-requests", "4", "--long-requests", "1",
            "--chat-generation-len", "4", "--long-generation-len", "4",
            "--no-heterogeneous", "--json", str(path),
        ]
        assert main(argv) == 0
        assert json.loads(path.read_text())["benchmark"] == "disagg"

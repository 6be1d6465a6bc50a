"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

WORLD = ["--leaves", "16", "--ligands", "20", "--seed", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_network_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mobile", "--network", "5g"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", *WORLD]) == 0
        out = capsys.readouterr().out
        assert "DrugTree(leaves=16" in out
        assert "top-level clade" in out

    def test_query_optimized(self, capsys):
        assert main(["query", "SELECT count(*) FROM bindings",
                     *WORLD]) == 0
        out = capsys.readouterr().out
        assert "count_all" in out
        assert "rows scanned" in out

    def test_query_naive(self, capsys):
        assert main(["query", "SELECT count(*) FROM bindings",
                     "--naive", *WORLD]) == 0
        out = capsys.readouterr().out
        assert "round-trips" in out

    def test_query_engines_agree(self, capsys):
        main(["query", "SELECT count(*) FROM bindings", *WORLD])
        fast = capsys.readouterr().out.splitlines()[0]
        main(["query", "SELECT count(*) FROM bindings", "--naive",
              *WORLD])
        slow = capsys.readouterr().out.splitlines()[0]
        assert fast == slow

    def test_query_max_rows(self, capsys):
        assert main(["query", "SELECT ligand_id FROM bindings",
                     "--max-rows", "3", *WORLD]) == 0
        out = capsys.readouterr().out
        assert "(3 shown)" in out

    def test_bad_query_is_reported_not_raised(self, capsys):
        assert main(["query", "SELECT nonsense_column", *WORLD]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_clades(self, capsys):
        assert main(["clades", "--max-rows", "5", *WORLD]) == 0
        out = capsys.readouterr().out
        assert "clade_0000" in out

    def test_tree(self, capsys):
        assert main(["tree", "--depth", "2", *WORLD]) == 0
        out = capsys.readouterr().out
        assert "clade_0000" in out
        assert "bindings" in out
        assert "leaves)" in out  # collapsed summaries

    def test_mobile(self, capsys):
        assert main(["mobile", "--network", "wifi", "--gestures", "5",
                     *WORLD]) == 0
        out = capsys.readouterr().out
        assert "mean latency" in out
        assert "KB downloaded" in out

    def test_export(self, capsys, tmp_path):
        target = str(tmp_path / "world")
        assert main(["export", target, *WORLD]) == 0
        out = capsys.readouterr().out
        assert "bindings" in out
        assert (tmp_path / "world" / "tree.nwk").exists()

    def test_similar(self, capsys):
        assert main(["similar", "c1ccccc1", "--threshold", "0.3",
                     *WORLD]) == 0
        out = capsys.readouterr().out
        assert "prefilter examined" in out

    def test_similar_bad_smiles(self, capsys):
        assert main(["similar", "not-a-smiles", *WORLD]) == 1
        assert "error:" in capsys.readouterr().err


class TestObservabilityCommands:
    def test_explain(self, capsys):
        assert main(["explain",
                     "SELECT * FROM bindings WHERE p_affinity >= 6.0",
                     *WORLD]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "cost=" in out
        assert "[actual rows=" in out
        assert "-- cache: " in out
        assert "-- source round-trips: " in out

    def test_explain_estimate_only(self, capsys):
        assert main(["explain", "SELECT count(*) FROM bindings",
                     "--estimate-only", *WORLD]) == 0
        out = capsys.readouterr().out
        assert "cost=" in out
        assert "EXPLAIN ANALYZE" not in out

    def test_explain_json(self, capsys):
        import json

        assert main(["explain", "SELECT count(*) FROM bindings",
                     "--json", *WORLD]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 1
        assert payload["operators"]["rows_out"] == 1
        assert payload["source_roundtrips"]

    def test_explain_bad_query_is_reported_not_raised(self, capsys):
        assert main(["explain", "SELECT nonsense_column", *WORLD]) == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_restores_process_defaults(self):
        from repro import obs
        from repro.obs import NULL_TRACER

        before_metrics = obs.get_metrics()
        assert main(["explain", "SELECT count(*) FROM bindings",
                     *WORLD]) == 0
        assert obs.get_tracer() is NULL_TRACER
        assert obs.get_metrics() is before_metrics

    def test_stats(self, capsys):
        assert main(["stats", *WORLD]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out
        assert "query.executed" in out
        assert "semantic_cache." in out
        assert "source.roundtrips." in out
        assert "mobile.open_sessions" in out
        assert "Histograms" in out
        assert "Spans" in out

    def test_stats_json(self, capsys):
        import json

        assert main(["stats", "--json", *WORLD]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["query.executed"] >= 4
        assert payload["gauges"]["stats.stale_tables"] == 0
        assert "spans" in payload
        assert any(name.startswith("query.")
                   for name in payload["spans"])

    def test_analyze(self, capsys):
        assert main(["analyze", *WORLD]) == 0
        out = capsys.readouterr().out
        assert "bindings (" in out
        assert "NDV" in out
        assert "histogram" in out
        assert "0 stale table(s)" in out

    def test_analyze_one_table(self, capsys):
        assert main(["analyze", "--table", "bindings", *WORLD]) == 0
        out = capsys.readouterr().out
        assert "bindings (" in out
        assert "ligands (" not in out

    def test_analyze_unknown_table(self, capsys):
        assert main(["analyze", "--table", "ghost", *WORLD]) == 2
        assert "no such table" in capsys.readouterr().err

    def test_analyze_json(self, capsys):
        import json

        assert main(["analyze", "--json", *WORLD]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stale_tables"] == []
        bindings = payload["tables"]["bindings"]
        assert bindings["row_count"] > 0
        affinity = bindings["columns"]["p_affinity"]
        assert affinity["distinct_count"] > 0
        assert affinity["histogram_bounds"]
        assert affinity["most_common"]


class TestCheckCommand:
    def test_clean_query_passes(self, capsys):
        assert main(["check",
                     "SELECT count(*) FROM bindings"]) == 0
        out = capsys.readouterr().out
        assert "analysis: ok" in out
        assert "0 error(s)" in out

    def test_unknown_column_fails_with_hint(self, capsys):
        assert main(["check", "SELECT ffamily FROM proteins"]) == 1
        out = capsys.readouterr().out
        assert "DTQL002" in out
        assert "did you mean 'family'" in out
        assert "@7+7" in out  # span points at the misspelt token

    def test_warnings_do_not_fail(self, capsys):
        assert main(["check",
                     "SELECT * WHERE value_nm < 1 "
                     "AND value_nm > 2"]) == 0
        assert "DTQL201" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        assert main(["check", "--json",
                     "SELECT * WHERE value_nm < 1 "
                     "AND value_nm > 2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["provably_empty"] is True
        assert payload[0]["diagnostics"][0]["code"] == "DTQL201"
        assert payload[0]["diagnostics"][0]["span"] == [15, 8]

    def test_docs_examples_are_valid(self, capsys):
        """The documented example queries must all pass `repro check`."""
        assert main(["check", "--file", "docs/DTQL.md"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_file_without_queries_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.md"
        empty.write_text("no code fences here\n")
        assert main(["check", "--file", str(empty)]) == 2
        assert "no ```sql blocks" in capsys.readouterr().err

    def test_missing_input_is_an_error(self, capsys):
        assert main(["check"]) == 2
        assert capsys.readouterr().err


class TestLintCommand:
    def test_source_tree_is_clean(self, capsys):
        assert main(["lint", "src"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_default_path_is_src(self, capsys):
        assert main(["lint"]) == 0
        assert "0 violation(s) in src" in capsys.readouterr().out

    def test_violation_fails_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nx = time.time()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "L001" in out
        assert f"{bad}:2:" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("lock.acquire()\n")
        assert main(["lint", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "L002"
        assert payload[0]["line"] == 1

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for code in ("L001", "L002", "L004", "L007"):
            assert code in out


class TestRaceCommand:
    RACY = (
        "import threading\n"
        "\n"
        "class Sink:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "\n"
        "    def push(self, item):\n"
        "        self.last = item\n"
    )

    def test_source_tree_is_clean(self, capsys):
        assert main(["race", "src"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "baselined" not in out
        assert "shared classes" in out

    def test_finding_fails_with_location(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(self.RACY)
        assert main(["race", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "CONC101" in out
        assert f"{bad}:8:" in out

    def test_lint_does_not_repeat_the_finding(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(self.RACY)
        assert main(["lint", str(bad)]) == 0
        assert capsys.readouterr().out.startswith("-- 0 violation(s)")

    def test_json_round_trip(self, tmp_path, capsys):
        import json

        bad = tmp_path / "racy.py"
        bad.write_text(self.RACY)
        assert main(["race", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        [finding] = payload["findings"]
        assert finding["code"] == "CONC101"
        assert finding["line"] == 8
        # The key is rooted at the module's dotted path: stable
        # across line edits, but it does embed the directory here.
        assert finding["key"].endswith(".racy.Sink.push:last")
        assert set(payload) == {"findings", "summary"}
        assert payload["summary"] == {
            "shared_classes": 1, "guarded_writes": 0, "locks": 0}

    def test_rules_listing(self, capsys):
        assert main(["race", "--rules"]) == 0
        out = capsys.readouterr().out
        for code in ("CONC101", "CONC201", "CONC202"):
            assert code in out


class TestDurableCommands:
    WORLD_SMALL = ["--leaves", "8", "--ligands", "10", "--seed", "3"]

    def test_recover_bootstraps_then_reopens(self, tmp_path, capsys):
        data_dir = str(tmp_path / "db")
        assert main(["recover", data_dir, *self.WORLD_SMALL]) == 0
        out, err = capsys.readouterr()
        assert "bootstrapping a durable world" in err
        assert out.startswith("-- recovered")
        assert "Restored overlay" in out
        assert "bindings" in out

        # Second run adopts the existing store: no bootstrap note.
        assert main(["recover", data_dir, *self.WORLD_SMALL]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "0 torn byte(s)" in out

    def test_recover_json(self, tmp_path, capsys):
        import json

        data_dir = str(tmp_path / "db")
        assert main(["recover", data_dir, "--json",
                     *self.WORLD_SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovery"]["torn_bytes"] == 0
        assert payload["tables"]["proteins"] == 8
        assert payload["tables"]["ligands"] == 10
        assert all(s["keys"] > 0 for s in payload["segments"])

    def test_compact_reports_levels(self, tmp_path, capsys):
        data_dir = str(tmp_path / "db")
        assert main(["compact", data_dir, "--flush-bytes", "2048",
                     *self.WORLD_SMALL]) == 0
        out = capsys.readouterr().out
        assert "Before" in out and "After" in out
        assert "-- major compaction:" in out

    def test_compact_json_round_trips(self, tmp_path, capsys):
        import json

        data_dir = str(tmp_path / "db")
        assert main(["compact", data_dir, "--json", "--flush-bytes",
                     "2048", *self.WORLD_SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(r["segments"] for r in payload["after"]) == 1
        assert payload["tombstones_collected"] >= 0

    def test_recover_after_compact_agrees(self, tmp_path, capsys):
        import json

        data_dir = str(tmp_path / "db")
        main(["compact", data_dir, "--flush-bytes", "2048",
              *self.WORLD_SMALL])
        capsys.readouterr()
        assert main(["recover", data_dir, "--json",
                     *self.WORLD_SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovery"]["segments"] == 1

    def test_fsync_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compact", "somewhere", "--fsync", "sometimes"])


class TestClusterCommands:
    WORLD_SMALL = ["--leaves", "12", "--ligands", "16", "--seed", "3"]

    def test_cluster_topology(self, capsys):
        assert main(["cluster", *self.WORLD_SMALL]) == 0
        out = capsys.readouterr().out
        assert "Topology" in out
        assert "node-0" in out
        assert "(global)" in out
        assert "rf=3 r=2 w=2" in out

    def test_cluster_json(self, capsys):
        import json

        assert main(["cluster", "--json", *self.WORLD_SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["strongly_consistent"] is True
        assert len(payload["nodes"]) == 5
        assert payload["topology"][-1]["interval"] == "(global)"
        assert payload["router"]["writes"] > 0

    def test_cluster_repair_converges_calm_cluster(self, capsys):
        assert main(["cluster", "--repair", *self.WORLD_SMALL]) == 0
        out = capsys.readouterr().out
        assert "anti-entropy" in out
        assert "converged True" in out

    def test_cluster_verify(self, capsys):
        assert main(["cluster", "--verify", *self.WORLD_SMALL]) == 0
        out = capsys.readouterr().out
        assert "seeded divergence" in out
        assert "converged True" in out
        assert "parity: 3 checks vs single-node engine ok" in out

    def test_cluster_verify_json(self, capsys):
        import json

        assert main(["cluster", "--verify", "--json",
                     *self.WORLD_SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verify"]["divergent_keys_before"] > 0
        assert payload["verify"]["converged"] is True
        assert payload["verify"]["failures"] == []

    def test_chaos_node_scenario(self, capsys):
        import json

        assert main(["chaos", "node_crash", "--taps", "8", "--json",
                     *self.WORLD_SMALL]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "node_crash"
        assert sum(payload["outcomes"].values()) == 8
        assert "anti_entropy" in payload
        assert any(name.startswith("cluster/replica@")
                   for name in payload["breakers"])

    def test_chaos_unknown_scenario_suggests(self, capsys):
        assert main(["chaos", "node_cras", *self.WORLD_SMALL]) == 2
        err = capsys.readouterr().err
        assert "unknown chaos scenario" in err
        assert "did you mean 'node_crash'?" in err
        assert "known scenarios:" in err

    @pytest.mark.parametrize("scenario", ["calm", "node_calm"])
    def test_chaos_zero_taps_is_a_usage_error(self, scenario, capsys):
        assert main(["chaos", scenario, "--taps", "0",
                     *self.WORLD_SMALL]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: a scenario replays at least "
                                "one tap, not 0\n")
        assert captured.out == ""

    def test_chaos_legacy_scenarios_still_run(self, capsys):
        assert main(["chaos", "calm", "--taps", "4",
                     *self.WORLD_SMALL]) == 0
        out = capsys.readouterr().out
        assert "answered 4/4" in out

    def test_stats_reports_per_node_breakers(self, capsys):
        assert main(["stats", *self.WORLD_SMALL]) == 0
        out = capsys.readouterr().out
        assert "breaker.state.cluster.replica@node-0" in out
        assert "cluster.reads" in out

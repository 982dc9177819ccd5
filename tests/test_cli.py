"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main, parse_graph_spec
from repro.graphs.registry import GRAPH_FAMILIES
from repro.serialization import construction_from_dict, load_json


class TestGraphSpecParsing:
    def test_cycle_spec(self):
        graph = parse_graph_spec("cycle:10")
        assert graph.number_of_nodes() == 10

    def test_circulant_spec_with_offsets(self):
        graph = parse_graph_spec("circulant:12,1,3")
        assert graph.degree(0) == 4

    def test_grid_spec(self):
        graph = parse_graph_spec("grid:3,4")
        assert graph.number_of_nodes() == 12

    def test_gnp_spec(self):
        graph = parse_graph_spec("gnp:20,0.2,3")
        assert graph.number_of_nodes() == 20

    def test_flower_and_two_trees(self):
        assert parse_graph_spec("flower:1,5").number_of_nodes() == 5 * 3 + 5
        assert parse_graph_spec("two-trees:1").number_of_nodes() > 0

    def test_defaults_when_args_missing(self):
        graph = parse_graph_spec("hypercube")
        assert graph.number_of_nodes() == 8

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_graph_spec("klein-bottle:3")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            parse_graph_spec("gnp:20,not-a-float")

    def test_every_registered_family_builds(self):
        for name in GRAPH_FAMILIES:
            graph = parse_graph_spec(name)
            assert graph.number_of_nodes() > 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_defaults(self):
        args = build_parser().parse_args(["build", "--graph", "cycle:10"])
        assert args.strategy == "auto"
        assert args.t is None

    def test_shared_sweep_options_keep_per_command_defaults(self):
        parser = build_parser()
        campaign = parser.parse_args(["campaign", "--graph", "cycle:10"])
        grid = parser.parse_args(["grid", "cycle:n=10/kernel"])
        assert (campaign.samples, grid.samples) == (100, 50)
        for args in (campaign, grid):
            assert args.eval_backend is None  # the index's backend rule decides
            assert (args.seed, args.bound, args.workers) == (0, None, 1)
            assert (args.chunk_size, args.greedy, args.candidate_limit) == (
                32,
                False,
                40,
            )
        serve = parser.parse_args(["serve", "--eval-backend", "numpy"])
        assert serve.eval_backend == "numpy"
        for argv in (
            ["campaign", "--graph", "cycle:10", "--eval-backend", "auto"],
            ["compile", "--graph", "cycle:10", "--output", "x", "--eval-backend", "numpy"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


class TestCommands:
    def test_graphs_command(self, capsys):
        assert main(["graphs"]) == 0
        output = capsys.readouterr().out
        assert "cycle" in output
        assert "hypercube" in output

    def test_build_command(self, capsys):
        assert main(["build", "--graph", "cycle:12", "--strategy", "kernel"]) == 0
        output = capsys.readouterr().out
        assert "scheme" in output
        assert "kernel" in output

    def test_build_with_output(self, tmp_path, capsys):
        target = str(tmp_path / "routing.json")
        code = main(["build", "--graph", "cycle:10", "--strategy", "circular", "--output", target])
        assert code == 0
        document = load_json(target)
        restored = construction_from_dict(document)
        assert restored.scheme == "circular"

    def test_verify_command_success(self, capsys):
        assert main(["verify", "--graph", "cycle:12", "--strategy", "circular"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_stats_command(self, capsys):
        assert main(["stats", "--graph", "circulant:10,1,2", "--strategy", "kernel"]) == 0
        output = capsys.readouterr().out
        assert "mean_len" in output
        assert "concentrator load share" in output

    def test_simulate_command(self, capsys):
        code = main(
            [
                "simulate",
                "--graph", "cycle:12",
                "--strategy", "circular",
                "--faults", "3",
                "--messages", "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Simulated deliveries" in output
        assert "delivered" in output

    def test_simulate_unknown_fault_node(self, capsys):
        code = main(
            ["simulate", "--graph", "cycle:12", "--faults", "99", "--messages", "1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_refuses_fewer_than_two_live_nodes(self, capsys):
        code = main(
            ["simulate", "--graph", "cycle:6", "--faults", "0,1,2,3,4", "--messages", "2"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "leave 1 of 6 nodes live" in captured.err
        assert captured.out == ""

    def test_campaign_command(self, capsys):
        code = main(
            [
                "campaign",
                "--graph", "circulant:12,1,2",
                "--sizes", "0,1,2",
                "--samples", "10",
                "--seed", "0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Fault campaigns" in output
        assert "mean_diam" in output

    def test_campaign_command_worker_count_invariance(self, capsys):
        argv = [
            "campaign",
            "--graph", "circulant:12,1,2",
            "--sizes", "1,2",
            "--samples", "12",
            "--seed", "5",
        ]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        # The rows must be identical; only the caption mentions the workers.
        assert sequential.replace("workers=1", "workers=2") == parallel

    def test_campaign_command_rejects_bad_sizes(self, capsys):
        code = main(["campaign", "--graph", "cycle:12", "--sizes", "-1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_error_exit_code_on_bad_graph(self, capsys):
        assert main(["build", "--graph", "nonsense:1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_error_on_inapplicable_strategy(self, capsys):
        # The hypercube lacks the two-trees property; requesting bipolar fails cleanly.
        code = main(["build", "--graph", "hypercube:3", "--strategy", "bipolar-uni"])
        assert code == 2


class TestBatteryArguments:
    """Bad shard and greedy budgets exit 2 before any evaluation."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_chunk_size_below_one(self, capsys, value):
        spec = "cycle:n=10/kernel/sizes:1"
        for argv in (
            ["grid", spec],
            ["campaign", "--scenario", spec],
            ["campaign", "--graph", "cycle:10", "--sizes", "1"],
        ):
            assert main(argv + ["--samples", "4", "--chunk-size", value]) == 2
            assert "chunk_size must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_greedy_candidate_limit_below_one(self, capsys, value):
        for argv in (
            ["campaign", "--graph", "cycle:10", "--sizes", "2"],
            ["campaign", "--scenario", "cycle:n=10/kernel/sizes:2"],
            ["grid", "cycle:n=10/kernel/sizes:2"],
        ):
            argv = argv + ["--samples", "4", "--greedy", "--candidate-limit", value]
            assert main(argv) == 2
            assert "candidate_limit must be at least 1" in capsys.readouterr().err


class TestScenarioCampaignFlags:
    def test_scenario_rejects_graph_mode_flags(self, capsys):
        for flags in (
            ["--strategy", "kernel"],
            ["--t", "2"],
            ["--sizes", "4,5"],
        ):
            code = main(
                ["campaign", "--scenario", "petersen/kernel/sizes:1", *flags]
            )
            assert code == 2
            assert "has no effect with --scenario" in capsys.readouterr().err

    def test_scenario_and_graph_are_exclusive(self, capsys):
        code = main(
            ["campaign", "--scenario", "petersen", "--graph", "cycle:12"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_scenario_campaign_runs(self, capsys):
        code = main(
            [
                "campaign",
                "--scenario", "hypercube:d=3/kernel/sizes:1",
                "--samples", "5",
                "--seed", "3",
                "--bound", "6",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "hypercube:d=3/kernel/sizes:1" in output
        assert "fingerprint" in output

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "fault model" in output
        assert "hypercube" in output

    def test_scenarios_listing_sorted_and_unique(self, capsys):
        assert main(["scenarios"]) == 0
        table = capsys.readouterr().out.split("\n\n")[0]
        families = [line.split()[0] for line in table.splitlines()[3:]]
        assert families == sorted(families)
        assert len(families) == len(set(families))
        assert len(families) == 25  # every registered family listed once

    def test_scenarios_family_filter(self, capsys):
        assert main(["scenarios", "--family", "hyper"]) == 0
        output = capsys.readouterr().out
        assert "hypercube" in output
        # Non-matching families are filtered out of the table.
        table = output.split("\nsegments")[0]
        assert "torus" not in table

    def test_scenarios_family_filter_no_match(self, capsys):
        assert main(["scenarios", "--family", "klein-bottle"]) == 2
        assert "no graph family matches" in capsys.readouterr().err


class TestGridCommand:
    GRID = "hypercube:d=3..4/kernel/t=1..2/sizes:1-2"

    def test_grid_runs_and_prints_scaling_report(self, capsys):
        assert main(["grid", self.GRID, "--samples", "4", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "Grid sweep" in output
        assert "4 scenarios" in output
        assert "# Scaling report" in output
        assert "| family | n | t=1 | t=2 |" in output

    def test_grid_store_resume_matches_uninterrupted_run(self, tmp_path, capsys):
        store = str(tmp_path / "rows.jsonl")
        argv = [
            "grid", self.GRID, "--samples", "4", "--seed", "7", "--store", store,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        full_text = Path(store).read_text()
        # Simulate a kill: keep the manifest, two finished rows and half of a
        # third, then resume.
        lines = full_text.splitlines(keepends=True)
        with open(store, "w") as handle:
            handle.write("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
        assert main(argv + ["--resume"]) == 0
        resumed_output = capsys.readouterr().out
        assert "resumed 2 stored rows" in resumed_output
        assert Path(store).read_text() == full_text

    def test_grid_refuses_existing_store_without_resume(self, tmp_path, capsys):
        store = str(tmp_path / "rows.jsonl")
        argv = ["grid", "hypercube:d=3/kernel/sizes:1", "--samples", "2",
                "--store", store]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "already exists" in capsys.readouterr().err

    def test_grid_resume_requires_store(self, capsys):
        assert main(["grid", "hypercube:d=3/kernel/sizes:1", "--resume"]) == 2
        assert "--resume needs --store" in capsys.readouterr().err

    def test_grid_report_file_and_csv(self, tmp_path, capsys):
        report = str(tmp_path / "report.csv")
        code = main(
            [
                "grid", "hypercube:d=3/kernel/sizes:1", "--samples", "2",
                "--report", report, "--format", "csv",
            ]
        )
        assert code == 0
        text = Path(report).read_text()
        assert text.splitlines()[0].startswith("family,n,t=")

    def test_grid_bound_violation_exit_code(self, capsys):
        # A diameter bound of 1 is hopeless for a hypercube: every campaign
        # violates it, so the sweep exits 1 and names the violations.
        code = main(
            ["grid", "hypercube:d=3/kernel/sizes:1", "--samples", "2",
             "--bound", "1"]
        )
        assert code == 1
        assert "bound violated" in capsys.readouterr().out

    def test_grid_exhaustive_past_the_node_count_exits_2(self, tmp_path, capsys):
        store = tmp_path / "x.jsonl"
        code = main(
            ["grid", "petersen/kernel/exhaustive:f=11", "--samples", "2",
             "--store", str(store)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "exhaustive:f=11 exceeds the graph's 10 nodes" in err
        # Only the manifest line: no campaign row was stored.
        assert len(store.read_text().splitlines()) == 1

    def test_grid_dropped_exhaustive_past_the_node_count_runs(self, tmp_path, capsys):
        # circular does not apply to the 8-node 3-cube: the dropped scenario
        # is never planned, so the run succeeds with or without a store.
        specs = ["hypercube:d=3/circular/exhaustive:f=9", "petersen/kernel/exhaustive:f=2"]
        assert main(["grid", *specs, "--skip-inapplicable"]) == 0
        bare = capsys.readouterr().out
        store = tmp_path / "x.jsonl"
        args = ["grid", *specs, "--skip-inapplicable", "--store", str(store)]
        assert main(args) == 0
        stored = capsys.readouterr().out
        assert stored.replace(f"\nresult store: {store} (3 rows recorded)\n", "") == bare
        # Manifest, ten status rows (sizes 0..9), three campaign rows.
        lines = store.read_text().splitlines()
        assert len(lines) == 14
        assert main(args + ["--resume"]) == 0
        assert store.read_text().splitlines() == lines

    def test_grid_bad_spec(self, capsys):
        assert main(["grid", "hypercube:d=5..3/kernel"]) == 2
        assert "reversed" in capsys.readouterr().err

    def test_grid_report_dash_prints_clean_report_to_stdout(self, capsys):
        code = main(
            ["grid", "hypercube:d=3/kernel/sizes:1", "--samples", "2",
             "--report", "-"]
        )
        assert code == 0
        captured = capsys.readouterr()
        # stdout is the report alone (pipeable / golden-diffable); the
        # human-oriented grid table moves to stderr.
        assert captured.out.startswith("# Scaling report")
        assert "Grid sweep" not in captured.out
        assert "Grid sweep" in captured.err


class TestStrategyComparisonGrid:
    GRID = "cycle:n=10..11/kernel|circular/t=1/sizes:1"

    def test_strategy_grid_emits_comparison_table(self, capsys):
        assert main(["grid", self.GRID, "--samples", "4", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "4 scenarios" in output
        assert "| family | n | circular t=1 | kernel t=1 |" in output
        assert "column groups = strategy" in output

    def test_strategy_grid_skips_inapplicable_combos(self, capsys):
        # circular does not apply to hypercubes below d=5: those cells stay
        # empty and the sweep reports what it skipped instead of dying.
        code = main(
            ["grid", "hypercube:d=3..4/kernel|circular/t=1/sizes:1",
             "--samples", "2", "--seed", "7"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "skipped (strategy not applicable)" in output
        assert "hypercube:d=3/circular" in output
        # Only one strategy survived, so the table keeps the plain layout.
        assert "| family | n | t=1 |" in output

    def test_single_strategy_grid_still_fails_loudly(self, capsys):
        assert main(
            ["grid", "hypercube:d=3/circular/sizes:1", "--samples", "2"]
        ) == 2
        assert "neighbourhood set" in capsys.readouterr().err

    def test_skip_eligibility_is_per_grid_in_mixed_invocations(self, capsys):
        # A strategy-set grid alongside an explicit single-strategy grid:
        # only the former may drop inapplicable scenarios — the explicit
        # request still fails loudly.
        code = main(
            ["grid", "cycle:n=10/kernel|circular/t=1/sizes:1",
             "hypercube:d=3/circular/sizes:1", "--samples", "2"]
        )
        assert code == 2
        assert "neighbourhood set" in capsys.readouterr().err

    def test_skip_eligibility_is_positional_for_overlapping_scenarios(self, capsys):
        # Even when the strategy-set grid sweeps the IDENTICAL scenario,
        # the explicitly requested copy keeps its fail-loudly contract.
        code = main(
            ["grid", "hypercube:d=3..4/kernel|circular/t=1/sizes:1",
             "hypercube:d=3/circular/t=1/sizes:1", "--samples", "2"]
        )
        assert code == 2
        assert "neighbourhood set" in capsys.readouterr().err

    def test_skip_inapplicable_flag_opts_single_strategy_grids_in(self, capsys):
        code = main(
            ["grid", "hypercube:d=3..4/circular/t=1/sizes:1", "--samples", "2",
             "--skip-inapplicable"]
        )
        assert code == 0
        assert "skipped (strategy not applicable)" in capsys.readouterr().out

    def test_split_stores_merge_to_the_combined_table(self, tmp_path, capsys):
        """The acceptance path: one grid run whole vs. split per strategy
        into two stores and merged by `repro report a b` — identical table."""
        combined = str(tmp_path / "combined.jsonl")
        assert main(
            ["grid", self.GRID, "--samples", "4", "--seed", "7",
             "--store", combined]
        ) == 0
        store_a = str(tmp_path / "kernel.jsonl")
        store_b = str(tmp_path / "circular.jsonl")
        assert main(
            ["grid", "cycle:n=10..11/kernel/t=1/sizes:1", "--samples", "4",
             "--seed", "7", "--store", store_a]
        ) == 0
        assert main(
            ["grid", "cycle:n=10..11/circular/t=1/sizes:1", "--samples", "4",
             "--seed", "7", "--store", store_b]
        ) == 0
        capsys.readouterr()
        single_csv = str(tmp_path / "single.csv")
        merged_csv = str(tmp_path / "merged.csv")
        assert main(["report", combined, "--format", "csv",
                     "--output", single_csv]) == 0
        assert main(["report", store_a, store_b, "--format", "csv",
                     "--output", merged_csv]) == 0
        captured = capsys.readouterr()
        # The merge diagnostic goes to stderr so piped stdout stays clean.
        assert "merged 2 stores" in captured.err
        assert "merged 2 stores" not in captured.out
        assert Path(merged_csv).read_text() == Path(single_csv).read_text()
        assert "circular t=1" in Path(merged_csv).read_text()

    def test_merged_report_stdout_stays_clean_csv(self, tmp_path, capsys):
        store_a = str(tmp_path / "a.jsonl")
        store_b = str(tmp_path / "b.jsonl")
        assert main(
            ["grid", "cycle:n=10/kernel/t=1/sizes:1", "--samples", "2",
             "--seed", "7", "--store", store_a]
        ) == 0
        assert main(
            ["grid", "cycle:n=10/circular/t=1/sizes:1", "--samples", "2",
             "--seed", "7", "--store", store_b]
        ) == 0
        capsys.readouterr()
        assert main(["report", store_a, store_b, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("family,n,")


class TestReportCommand:
    def test_report_renders_stored_run(self, tmp_path, capsys):
        store = str(tmp_path / "rows.jsonl")
        assert main(
            ["grid", "hypercube:d=3..4/kernel/sizes:1", "--samples", "2",
             "--store", store]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "# Scaling report" in output
        assert "hypercube:d=3/kernel/sizes:1" in output
        assert "| hypercube | 8 |" in output
        assert "| hypercube | 16 |" in output

    def test_report_csv_to_file(self, tmp_path, capsys):
        store = str(tmp_path / "rows.jsonl")
        main(["grid", "hypercube:d=3/kernel/sizes:1", "--samples", "2",
              "--store", store])
        capsys.readouterr()
        out = str(tmp_path / "table.csv")
        assert main(["report", "--store", store, "--format", "csv",
                     "--output", out]) == 0
        assert Path(out).read_text().startswith("family,n,")

    def test_report_positional_store_path(self, tmp_path, capsys):
        store = str(tmp_path / "rows.jsonl")
        main(["grid", "hypercube:d=3/kernel/sizes:1", "--samples", "2",
              "--store", store])
        capsys.readouterr()
        assert main(["report", store]) == 0
        assert "# Scaling report" in capsys.readouterr().out

    def test_report_conflicting_stores_error(self, tmp_path, capsys):
        # The same grid run under two different seeds records the same keys
        # against different batteries: merging them must be refused.
        store_a = str(tmp_path / "a.jsonl")
        store_b = str(tmp_path / "b.jsonl")
        argv = ["grid", "hypercube:d=3/kernel/sizes:1", "--samples", "2"]
        assert main(argv + ["--seed", "1", "--store", store_a]) == 0
        assert main(argv + ["--seed", "2", "--store", store_b]) == 0
        capsys.readouterr()
        assert main(["report", store_a, store_b]) == 2
        assert "cannot be merged" in capsys.readouterr().err

    def test_report_requires_a_store(self, capsys):
        assert main(["report"]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_report_missing_store(self, capsys):
        assert main(["report", "--store", "/nonexistent/rows.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestServingCommands:
    def _compiled(self, tmp_path, capsys):
        target = str(tmp_path / "routing.repart")
        code = main(
            ["compile", "--graph", "circulant:12,1,2", "--strategy", "kernel",
             "--output", target]
        )
        assert code == 0
        output = capsys.readouterr().out
        return target, output

    def test_compile_writes_artifact(self, tmp_path, capsys):
        target, output = self._compiled(tmp_path, capsys)
        assert "fingerprint" in output
        from repro.serving import load_artifact

        artifact = load_artifact(target)
        assert artifact.n == 12
        assert artifact.scheme == "kernel"

    def test_serve_probe_from_artifact(self, tmp_path, capsys):
        target, _ = self._compiled(tmp_path, capsys)
        assert main(["serve", "--artifact", target, "--probe"]) == 0
        output = capsys.readouterr().out
        assert "serving on" in output
        assert "probe ok" in output

    def test_serve_probe_compiling_in_process(self, capsys):
        code = main(
            ["serve", "--graph", "circulant:10,1,2", "--strategy", "kernel",
             "--probe"]
        )
        assert code == 0
        assert "probe ok" in capsys.readouterr().out

    def test_serve_refuses_fingerprint_mismatch(self, tmp_path, capsys):
        target, _ = self._compiled(tmp_path, capsys)
        code = main(
            ["serve", "--artifact", target,
             "--expect-fingerprint", "0" * 64, "--probe"]
        )
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_serve_refuses_artifact_for_different_graph(self, tmp_path, capsys):
        # Rebuilding from --graph pins the expected fingerprint: serving a
        # stale artifact against a changed network must fail loudly.
        target, _ = self._compiled(tmp_path, capsys)
        code = main(
            ["serve", "--artifact", target, "--graph", "cycle:8",
             "--strategy", "kernel", "--probe"]
        )
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_serve_accepts_matching_expectation(self, tmp_path, capsys):
        target, output = self._compiled(tmp_path, capsys)
        fingerprint = next(
            line.split()[-1]
            for line in output.splitlines()
            if line.startswith("fingerprint:")
        )
        code = main(
            ["serve", "--artifact", target,
             "--expect-fingerprint", fingerprint, "--probe"]
        )
        assert code == 0
        assert "probe ok" in capsys.readouterr().out

    def test_serve_without_graph_or_artifact(self, capsys):
        assert main(["serve", "--probe"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrafficCommand:
    SPEC = "circulant:n=16,offsets=1+2/kernel"

    def test_traffic_table_output(self, capsys):
        code = main(
            ["traffic", self.SPEC,
             "--workload", "uniform", "--messages", "40",
             "--duration", "30", "--seed", "5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Traffic [uniform:messages=40,duration=30]" in output
        for column in ("throughput", "p99_latency", "drop_rate", "max_queue_depth"):
            assert column in output
        assert self.SPEC in output

    def test_traffic_store_holds_traffic_records(self, tmp_path, capsys):
        target = str(tmp_path / "traffic.jsonl")
        code = main(
            ["traffic", self.SPEC,
             "--messages", "20", "--duration", "10",
             "--fail", "4:3", "--repair", "8:3",
             "--store", target]
        )
        assert code == 0
        assert "result store" in capsys.readouterr().out
        lines = [
            json.loads(line)
            for line in Path(target).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        header, rows = lines[0], lines[1:]
        assert header["run"]["experiment"] == "traffic"
        assert header["run"]["faults"] == ["fail@4:3", "repair@8:3"]
        assert len(rows) == 1
        assert rows[0]["record"]["kind"] == "traffic"
        assert rows[0]["record"]["injected"] == 20

    def test_traffic_refuses_fault_model_segment(self, capsys):
        # Timed --fail/--repair schedules replace the static fault-model
        # segment; specs carrying one must be rejected, not silently ignored.
        code = main(
            ["traffic", self.SPEC + "/sizes:1", "--messages", "5"]
        )
        assert code == 2
        assert "fault-model segment" in capsys.readouterr().err

    def test_traffic_buffer_requires_capacity(self, capsys):
        code = main(
            ["traffic", self.SPEC, "--messages", "5", "--buffer", "4"]
        )
        assert code == 2
        assert "--buffer needs --capacity" in capsys.readouterr().err

    def test_traffic_congested_link_flags(self, capsys):
        code = main(
            ["traffic", self.SPEC,
             "--workload", "hotspot", "--messages", "80",
             "--duration", "20", "--capacity", "1", "--buffer", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "link=capacity=1,buffer=2" in output

    def test_traffic_bad_fault_spec(self, capsys):
        code = main(
            ["traffic", self.SPEC, "--messages", "5", "--fail", "nope"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

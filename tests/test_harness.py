import json
import os
import tracemalloc

import numpy as np
import pytest

import padspan.cli as cli
import padspan.harness as harness
from padspan.cli import main as cli_main
from padspan.distributed import ConfigError
from padspan.graphs import Graph, write_graph
from padspan.localsim import TRANSCRIPT_CSV_HEADER, rng_stream
from padspan.harness import (
    REPORT_CSV_HEADER,
    ExperimentConfig,
    HarnessError,
    gen_cycle,
    gen_gnp,
    gen_grid,
    generate_instance,
    report_files,
    run_experiment,
    run_trial,
    sample_spanning_demands,
)

from test_graphs import directed_bfs_oracle


class TestGenerators:
    def test_gnp_deterministic(self):
        a = gen_gnp(16, 0.3, seed=5)
        b = gen_gnp(16, 0.3, seed=5)
        assert a.edges == b.edges
        assert a.edges != gen_gnp(16, 0.3, seed=6).edges

    @pytest.mark.parametrize("block", [None, 1, 100])
    @pytest.mark.parametrize("n, p, seed, directed", [
        (1, 0.5, 0, True), (2, 1.0, 1, False), (14, 0.3, 1, True),
        (50, 0.2, 7, False), (700, 0.01, 3, True), (700, 0.01, 3, False)])
    def test_gnp_blocks_match_one_draw(self, n, p, seed, directed, block,
                                       monkeypatch):
        # the coins drawn a block of rows at a time (one row at a time with
        # a block of 1) give the edges of one draw of every coin
        if block is not None:
            monkeypatch.setattr(harness, "_COIN_BLOCK", block)
        rng = rng_stream(seed, "gen-gnp")
        u, v = (np.nonzero(~np.eye(n, dtype=bool)) if directed
                else np.triu_indices(n, 1))
        keep = rng.random(len(u)) < p
        want = Graph(n, zip(u[keep].tolist(), v[keep].tolist()), directed)
        assert gen_gnp(n, p, seed, directed).edges == want.edges

    def test_gnp_memory_below_dense(self):
        # one draw of all n(n-1) coins, with their index arrays, peaked at
        # 420 MB at n=4096; drawn by blocks of rows, n=2048 stays below 8n²
        # bytes
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            gen_gnp(2048, 8 / 2048, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2048**2

    def test_cycle_shape(self):
        g = gen_cycle(8)
        assert g.m == 8 and g.directed

    def test_grid_shape(self):
        g = gen_grid(3, 4)
        assert g.n == 12 and g.m == 3 * 3 + 2 * 4 and not g.directed

    def test_cycle_spanner_demand_count(self):
        cfg = ExperimentConfig(problem="directed-spanner", gen="cycle", n=8,
                               k=2, seed=1)
        _, inst = generate_instance(cfg, 1)
        assert len(inst.demands) == 8

    def test_spanning_demands_cover_every_node(self):
        g = gen_gnp(12, 0.4, seed=9)
        demands = sample_spanning_demands(g, seed=2)
        touched = set()
        for u, v, L in demands:
            touched.update((u, v))
            dist = directed_bfs_oracle(g, u)
            assert dist[v] <= L
        assert touched == set(range(12))

    def test_dsn_instance_spanning_flag(self):
        cfg = ExperimentConfig(problem="dsn", gen="gnp", n=12, p=0.4, seed=3)
        _, inst = generate_instance(cfg, 3)
        assert inst.spanning

    def test_grid_requires_square(self):
        cfg = ExperimentConfig(problem="directed-spanner", gen="grid", n=10,
                               seed=1)
        with pytest.raises(HarnessError):
            generate_instance(cfg, 1)

    def test_config_validation(self):
        with pytest.raises(HarnessError):
            ExperimentConfig(problem="nonsense", seed=1)
        with pytest.raises(HarnessError):
            ExperimentConfig(epsilon=1.5, seed=1)
        with pytest.raises(HarnessError):
            ExperimentConfig(gen="file", seed=1)

    def test_config_rejects_negative_dsn_slack(self):
        with pytest.raises(HarnessError, match="dsn_slack"):
            ExperimentConfig(problem="dsn", n=12, seed=3, dsn_slack=-1)

    @pytest.mark.parametrize("t", [0, -1])
    def test_config_rejects_t_override_below_one(self, t):
        with pytest.raises(HarnessError, match="t_override"):
            ExperimentConfig(n=8, seed=1, t_override=t)

    @pytest.mark.parametrize("field, value", [
        ("n", 10.7), ("k", 1.5), ("trials", 1.5), ("seed", 1.5), ("dsn_slack", 1.5),
        ("t_override", 2.5)])
    def test_config_rejects_non_integer_sizes(self, field, value):
        # each was accepted, to fail later deep in a run or not at all
        with pytest.raises(HarnessError, match=f"{field} {value} is not an integer"):
            ExperimentConfig(**{"seed": 1, field: value})

    @pytest.mark.parametrize("p", [float("nan"), -0.1, 1.5])
    def test_gnp_rejects_p_outside_unit_interval(self, p):
        # a NaN p kept no pair and gave a graph with no edges
        with pytest.raises(HarnessError, match="p must be in"):
            gen_gnp(8, p, seed=1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_gnp_rejects_no_nodes(self, n):
        # the coin block is sized by n, so n must be checked first
        with pytest.raises(HarnessError, match=f"gen_gnp needs n >= 1, got {n}"):
            gen_gnp(n, 0.3, seed=1)
        with pytest.raises(HarnessError, match="n 2.5 is not an integer"):
            gen_gnp(2.5, 0.3, seed=1)
        assert gen_gnp(1, 0.3, seed=1).n == 1


class TestRunExperiment:
    def small_config(self, out=None, trials=2):
        return ExperimentConfig(
            problem="directed-spanner", gen="gnp", n=10, p=0.35, k=2,
            epsilon=0.5, trials=trials, seed=42, out=out, t_override=25,
        )

    def test_trial_rejects_zero_iterations(self):
        # the config rejects 0 itself; the solver still checks a config
        # changed after construction
        cfg = ExperimentConfig(n=8, seed=1)
        cfg.t_override = 0
        with pytest.raises(ConfigError, match="t_override"):
            run_trial(cfg, 0, 0)

    def test_failure_names_trial_and_retry(self, monkeypatch):
        # trial 0 misses concentration, then its retry raises: the error
        # names that trial and retry, not the count of finished trials
        real = harness.run_trial

        def flaky(config, trial, retry):
            if retry == 1:
                raise RuntimeError("boom")
            row, manifest, tr_row, artifacts = real(config, trial, retry)
            row.concentration_all = False
            return row, manifest, tr_row, artifacts

        monkeypatch.setattr(harness, "run_trial", flaky)
        with pytest.raises(HarnessError, match=r"^trial 0 retry 1 failed: boom$"):
            run_experiment(self.small_config())

    def test_csv_headers_pinned(self):
        # both headers are derived from the row fields and the phases; the
        # report bytes must not move
        assert REPORT_CSV_HEADER == (
            "trial,retry,seed,n,m,D,epsilon,cp_star,g_tilde,ratio,rounds,round_bound,"
            "concentration_rate,concentration_all,feasible,e_out,stretch_ok,"
            "rounding_rounds,max_degree")
        assert TRANSCRIPT_CSV_HEADER == (
            "seed,n,m,epsilon,D,rounds_decomposition,rounds_gather,"
            "rounds_solve_broadcast,rounds_rounding,total_rounds,messages,"
            "max_payload_bytes")

    def test_zero_trials_header_only(self, tmp_path):
        cfg = self.small_config(out=str(tmp_path / "r"), trials=0)
        report = run_experiment(cfg)
        assert report.rows == []
        text = (tmp_path / "r" / "report.csv").read_text()
        assert text.strip() == REPORT_CSV_HEADER

    def test_rows_and_aggregates(self):
        report = run_experiment(self.small_config())
        rows = report.final_rows()
        assert len(rows) == 2
        agg = report.aggregates()
        assert agg["trials"] == 2
        assert agg["max_ratio"] >= agg["mean_ratio"] >= 1.0 - 1e-9
        for row in rows:
            assert row.ratio <= 1.5 + 1e-6
            assert row.rounds <= row.round_bound
            assert row.stretch_ok is not None

    def test_aggregates_cover_every_attempt(self, tmp_path):
        # with t=3, trial 1's first attempt misses concentration and is
        # retried: the last-attempt statistics hide it, the attempt
        # statistics do not
        out = str(tmp_path / "r")
        cfg = ExperimentConfig(
            problem="directed-spanner", gen="gnp", n=8, p=0.4, k=2,
            epsilon=0.5, trials=2, seed=1, t_override=3, out=out,
        )
        report = run_experiment(cfg)
        rows = report.rows
        assert [(r.trial, r.retry, r.concentration_all) for r in rows] == [
            (0, 0, True), (1, 0, False), (1, 1, True)]
        agg = report.aggregates()
        assert agg["concentration_all_fraction"] == 1.0
        assert agg["mean_ratio"] == (rows[0].ratio + rows[2].ratio) / 2
        assert agg["attempts"] == 3
        assert agg["attempt_concentration_all_fraction"] == 2 / 3
        assert agg["first_attempt_mean_ratio"] == (rows[0].ratio + rows[1].ratio) / 2
        assert agg["first_attempt_max_ratio"] == max(rows[0].ratio, rows[1].ratio)
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["aggregates"] == agg

    def test_ratio_consistency(self):
        report = run_experiment(self.small_config())
        for row in report.rows:
            recomputed = row.g_tilde / row.cp_star if row.cp_star else 1.0
            assert row.ratio == pytest.approx(recomputed, rel=1e-12)

    def test_feasible_implies_ratio_at_least_one(self):
        report = run_experiment(self.small_config())
        for row in report.rows:
            if row.feasible:
                assert row.ratio >= 1 - 1e-6

    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_experiment(self.small_config(out=out1))
        run_experiment(self.small_config(out=out2))
        files1 = report_files(out1)
        files2 = report_files(out2)
        assert [os.path.basename(f) for f in files1] == [
            os.path.basename(f) for f in files2
        ]
        for f1, f2 in zip(files1, files2):
            assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_manifest_shape(self, tmp_path):
        out = str(tmp_path / "m")
        run_experiment(self.small_config(out=out, trials=1))
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["problem"] == "directed-spanner"
        run0 = manifest["runs"][0]
        assert {"iterations", "concentration", "cp_star", "ratio",
                "rounds"} <= set(run0)
        assert len(run0["iterations"]) == 25
        assert "timing.txt" not in report_files(out)[0]

    def test_low_degree_problem_reports_degree(self):
        cfg = ExperimentConfig(
            problem="low-degree-spanner", gen="gnp", n=10, p=0.35, k=2,
            epsilon=0.5, trials=1, seed=7, t_override=20,
        )
        report = run_experiment(cfg)
        row = report.final_rows()[0]
        assert row.max_degree is not None
        assert row.e_out is not None

    def test_dsn_problem(self):
        cfg = ExperimentConfig(
            problem="dsn", gen="gnp", n=10, p=0.4, epsilon=0.5, trials=1,
            seed=8, t_override=20,
        )
        report = run_experiment(cfg)
        row = report.final_rows()[0]
        assert row.ratio <= 1.5 + 1e-6
        assert row.stretch_ok is not None

    def test_raw_cp_p_norm_two(self):
        # its cutting-plane LPs carry right-hand sides of rounding noise
        # around 0, on which a textbook phase 1 can report unboundedness
        cfg = ExperimentConfig(
            problem="raw-cp", gen="gnp", n=9, p=0.35, objective="p-norm:2",
            epsilon=0.5, trials=1, seed=1,
        )
        row = run_experiment(cfg).final_rows()[0]
        assert row.cp_star == pytest.approx(3.51426, abs=1e-5)
        assert row.feasible
        assert row.ratio <= 1.5 + 1e-6


class TestCli:
    def test_usage_error_exit_2(self, capsys):
        assert cli_main(["decompose"]) == 2  # missing --seed

    def test_unknown_command_exit_2(self):
        assert cli_main(["frobnicate", "--seed", "1"]) == 2

    def test_decompose_bug_is_not_a_violation(self, monkeypatch):
        # only a DecompositionError is an invariant violation; any other
        # failure of the check is a bug and propagates
        def broken(g, params, clustering):
            raise IndexError("bug in the check")

        monkeypatch.setattr(cli, "validate_clustering", broken)
        with pytest.raises(IndexError, match="bug in the check"):
            cli_main(["decompose", "--gen", "cycle", "--n", "10", "--k", "1",
                      "--seed", "3"])

    def test_decompose_ok(self, capsys):
        rc = cli_main([
            "decompose", "--gen", "cycle", "--n", "10", "--k", "1",
            "--epsilon", "0.5", "--seed", "3", "--trials", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clusters=" in out

    def test_solve_cp_ok(self, capsys):
        rc = cli_main([
            "solve-cp", "--gen", "gnp", "--n", "10", "--p", "0.35",
            "--k", "2", "--epsilon", "0.5", "--seed", "4",
        ])
        assert rc == 0
        assert "ratio=" in capsys.readouterr().out

    def test_solve_cp_prints_first_trial(self, capsys):
        argv = ["--gen", "gnp", "--n", "10", "--p", "0.35", "--k", "2",
                "--epsilon", "0.5", "--seed", "4"]
        assert cli_main(["solve-cp"] + argv) == 0
        out = capsys.readouterr().out.splitlines()
        cfg = ExperimentConfig(n=10, p=0.35, k=2, epsilon=0.5, seed=4)
        row, manifest, _, _ = run_trial(cfg, 0, 0)
        assert out == [
            f"n={row.n} m={row.m} D={row.D} t={manifest['t']}",
            f"CP*={row.cp_star:.6f} g(x~)={row.g_tilde:.6f} "
            f"ratio={row.ratio:.6f}",
            f"rounds={row.rounds} concentration={row.concentration_rate:.3f} "
            f"feasible={row.feasible}",
        ]

    def verify_path_graph(self, tmp_path, directed, pairs):
        gpath = str(tmp_path / "path.graph")
        write_graph(Graph(3, [(0, 1), (1, 2)], directed=directed), gpath)
        epath = str(tmp_path / "pairs.txt")
        with open(epath, "w") as fh:
            fh.write("".join(f"{a} {b}\n" for a, b in pairs))
        return cli_main(["verify", "--graph", gpath, "--edges", epath,
                         "--k", "1", "--seed", "1"])

    def test_verify_unknown_pair_is_usage_error(self, tmp_path, capsys):
        rc = self.verify_path_graph(tmp_path, True, [(0, 1), (2, 1)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "(2,1) is not a graph edge" in err

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("far", [7, 2**70])
    def test_verify_pair_beyond_the_nodes_is_usage_error(self, tmp_path, capsys,
                                                         directed, far):
        rc = self.verify_path_graph(tmp_path, directed, [(0, 1), (0, far)])
        assert rc == 2
        assert f"(0,{far}) is not a graph edge" in capsys.readouterr().err

    def test_verify_undirected_pair_either_orientation(self, tmp_path, capsys):
        rc = self.verify_path_graph(tmp_path, False, [(1, 0), (2, 1)])
        assert rc == 0
        assert "all satisfied" in capsys.readouterr().out

    def test_round_and_verify(self, tmp_path, capsys):
        g = gen_gnp(10, 0.35, seed=5)
        gpath = str(tmp_path / "g.graph")
        write_graph(g, gpath)
        out = str(tmp_path / "rounded.csv")
        rc = cli_main([
            "round", "--graph", gpath, "--k", "2", "--seed", "5",
            "--out", out,
        ])
        assert rc == 0
        # reuse the provenance CSV as an edge list for verify
        lines = open(out).read().splitlines()[1:]
        epath = str(tmp_path / "edges.txt")
        with open(epath, "w") as fh:
            for ln in lines:
                _, u, v, _ = ln.split(",")
                fh.write(f"{u} {v}\n")
        rc2 = cli_main([
            "verify", "--graph", gpath, "--edges", epath, "--k", "2",
            "--seed", "5",
        ])
        assert rc2 == 0

    def test_round_prints_first_trial(self, tmp_path, capsys):
        g = gen_gnp(10, 0.35, seed=5)
        gpath = str(tmp_path / "g.graph")
        write_graph(g, gpath)
        out = str(tmp_path / "rounded.csv")
        assert cli_main(["round", "--graph", gpath, "--k", "2", "--seed", "7",
                         "--out", out]) == 0
        cfg = ExperimentConfig(gen="file", graph_path=gpath, k=2, seed=7)
        row, _, _, artifacts = run_trial(cfg, 0, 0)
        assert capsys.readouterr().out.splitlines() == [
            f"|E_out|={row.e_out} stretch_ok={row.stretch_ok}"
        ]
        assert open(out).read() == artifacts["provenance"]

    @pytest.mark.parametrize("problem", ["raw-cp", "low-degree-spanner"])
    def test_round_without_spanner_rounding_is_usage_error(self, problem,
                                                          capsys):
        rc = cli_main(["round", "--problem", problem, "--n", "8",
                       "--seed", "1"])
        assert rc == 2
        assert "no spanner rounding" in capsys.readouterr().err

    def test_experiment_cli(self, tmp_path, capsys):
        rc = cli_main([
            "experiment", "--gen", "gnp", "--n", "10", "--p", "0.35",
            "--k", "2", "--epsilon", "0.5", "--trials", "1", "--seed", "6",
            "--out", str(tmp_path / "exp"),
        ])
        assert rc == 0
        assert (tmp_path / "exp" / "report.csv").exists()

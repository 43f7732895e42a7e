"""Unit tests for the command-line interface."""

import pytest

from repro.cli import GRAPH_FAMILIES, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_graph_defaults(self):
        args = build_parser().parse_args(["graph", "ring"])
        assert args.family == "ring"
        assert args.size == 256

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph", "hypertorus"])

    def test_all_families_constructible(self):
        for family, factory in GRAPH_FAMILIES.items():
            graph = factory(32, 1)
            assert graph.num_nodes >= 8, family


class TestCommands:
    def test_graph_command(self, capsys):
        assert main(["graph", "ring", "--size", "64", "--diameter"]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "64" in out
        assert "diameter" in out

    def test_pathshape_command(self, capsys):
        assert main(["pathshape", "path", "--size", "64"]) == 0
        out = capsys.readouterr().out
        assert "pathshape" in out
        assert "winning strategy" in out

    def test_route_command(self, capsys):
        code = main(
            ["route", "ring", "--size", "128", "--pairs", "3", "--trials", "3",
             "--schemes", "uniform", "ball"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "ball" in out
        assert "greedy diameter" in out

    def test_experiment_command_single(self, capsys):
        code = main(["experiment", "--only", "EXP-1", "--quick", "--markdown"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXP-1" in out

    def test_experiment_command_unknown_id_lists_available(self, capsys):
        assert main(["experiment", "--only", "EXP-99", "--quick"]) == 1
        err = capsys.readouterr().err
        assert "EXP-99" in err
        assert "EXP-1" in err  # the error names the available experiment ids

    def test_experiment_command_resume_requires_out(self, capsys):
        assert main(["experiment", "--only", "EXP-1", "--quick", "--resume"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_experiment_command_artifacts_and_resume(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        args = ["experiment", "--only", "EXP-1", "--quick", "--markdown", "--out", out_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert list((tmp_path / "artifacts").glob("*.json"))
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert second == first


class TestEngineFlagRemoved:
    """Sweeps and serve share one routing path, so no subcommand takes --engine."""

    @pytest.mark.parametrize("command", [["route", "ring"], ["serve", "ring"], ["experiment"]])
    def test_engine_flag_rejected(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--engine", "lane"])
        assert "--engine" in capsys.readouterr().err

    def test_route_command_runs_the_lane_engine(self, capsys):
        code = main(
            ["route", "ring", "--size", "48", "--pairs", "2", "--trials", "2",
             "--schemes", "uniform"]
        )
        assert code == 0
        assert "uniform" in capsys.readouterr().out


class TestByteSizeParsing:
    def test_accepted_forms(self):
        from repro.cli import parse_byte_size

        assert parse_byte_size("123456") == 123456
        assert parse_byte_size("64K") == 64 * 1024
        assert parse_byte_size("512M") == 512 * 1024 * 1024
        assert parse_byte_size("1G") == 1024 ** 3
        assert parse_byte_size("2gb") == 2 * 1024 ** 3
        assert parse_byte_size(" 8 M ") == 8 * 1024 * 1024

    def test_rejected_forms(self):
        import argparse

        from repro.cli import parse_byte_size

        for bad in ["", "abc", "12X", "-5", "0", "1.5G", "M"]:
            with pytest.raises(argparse.ArgumentTypeError):
                parse_byte_size(bad)

    def test_bad_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "--oracle-max-bytes", "lots"]
            )
        assert "invalid" in capsys.readouterr().err


class TestCleanErrors:
    """Invalid flag combinations render as one-line errors with exit 2."""

    def test_jobs_below_one_exits_cleanly(self, capsys):
        assert main(["experiment", "--only", "EXP-1", "--quick", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_shard_requires_out(self, capsys):
        assert main(["experiment", "--only", "EXP-1", "--quick", "--shard"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_uncreatable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        bad = str(blocker / "artifacts")  # a path *through* a regular file
        code = main(
            ["experiment", "--only", "EXP-1", "--quick", "--out", bad]
        )
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_uncreatable_graph_cache_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        bad = str(blocker / "cache")
        code = main(
            ["experiment", "--only", "EXP-1", "--quick", "--graph-cache", bad]
        )
        assert code == 2
        assert "--graph-cache" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(__import__("os"), "geteuid") or __import__("os").geteuid() == 0,
        reason="root bypasses permission bits; the probe cannot fail",
    )
    def test_unwritable_out_dir(self, tmp_path, capsys):
        import os

        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            code = main(
                ["experiment", "--only", "EXP-1", "--quick", "--out", str(locked)]
            )
        finally:
            locked.chmod(0o700)
        assert code == 2
        assert "not writable" in capsys.readouterr().err


class TestScaleFlags:
    def test_sizes_override_reaches_config(self, capsys):
        code = main(
            ["experiment", "--only", "EXP-1", "--quick", "--markdown",
             "--sizes", "48"]
        )
        assert code == 0
        assert "48" in capsys.readouterr().out

    def test_oracle_max_bytes_accepted(self, capsys):
        code = main(
            ["experiment", "--only", "EXP-1", "--quick", "--markdown",
             "--sizes", "48", "--oracle-max-bytes", "64M"]
        )
        assert code == 0
        assert "EXP-1" in capsys.readouterr().out

    def test_shard_drains_out_directory(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        code = main(
            ["experiment", "--only", "EXP-1", "--quick", "--markdown",
             "--sizes", "48", "--out", out_dir, "--shard"]
        )
        assert code == 0
        assert list((tmp_path / "artifacts").glob("*.json"))
        assert not list((tmp_path / "artifacts").glob("*.lease"))

    def test_stats_report_memory(self, capsys):
        code = main(
            ["experiment", "--only", "EXP-1", "--quick", "--markdown",
             "--sizes", "48", "--stats"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "oracle memory" in err
        assert "bytes/node" in err
        assert "peak RSS" in err  # resource is always available on Linux


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "ring"])
        assert args.family == "ring"
        assert args.size == 4096
        assert args.scheme == "uniform"
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.max_batch == 512
        assert args.window_ms == 1.0
        assert args.warm_targets == 32

    def test_shared_instance_flags(self):
        args = build_parser().parse_args(
            ["serve", "torus2d", "-n", "9000", "--seed", "7", "--port", "8642"]
        )
        assert (args.size, args.seed, args.port) == (9000, 7, 8642)

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "hypertorus"])


class TestServeUsageErrors:
    """Invalid serve combinations are one-line errors with exit 2."""

    def test_bad_max_batch(self, capsys):
        assert main(["serve", "ring", "-n", "64", "--max-batch", "0"]) == 2
        assert "--max-batch" in capsys.readouterr().err

    def test_negative_window(self, capsys):
        assert main(["serve", "ring", "-n", "64", "--window-ms", "-1"]) == 2
        assert "--window-ms" in capsys.readouterr().err

    def test_unknown_scheme(self, capsys):
        assert main(["serve", "ring", "-n", "64", "--scheme", "teleport"]) == 2
        err = capsys.readouterr().err
        assert "teleport" in err

    def test_out_of_range_port(self, capsys):
        assert main(["serve", "ring", "-n", "64", "--port", "70000"]) == 2
        assert "--port" in capsys.readouterr().err

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import load_csv


@pytest.fixture
def csv_dataset(tmp_path):
    path = tmp_path / "data.csv"
    exit_code = main(["generate", "t-drive", str(path),
                      "--scale", "0.0002", "--seed", "3"])
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "sf", "out.csv", "--scale", "0.01"])
        assert args.dataset == "sf"
        assert args.scale == 0.01

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "mars", "out.csv"])

    def test_unknown_measure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "d.csv", "--measure", "l7"])


class TestGenerate(object):
    def test_writes_loadable_csv(self, csv_dataset):
        data = load_csv(csv_dataset)
        assert len(data) > 0
        assert all(len(t) >= 10 for t in data)  # preprocessed

    def test_no_preprocess_keeps_short(self, tmp_path):
        path = tmp_path / "raw.csv"
        main(["generate", "t-drive", str(path), "--scale", "0.0002",
              "--no-preprocess"])
        data = load_csv(path)
        assert len(data) > 0


class TestInfo:
    def test_prints_statistics(self, csv_dataset, capsys):
        assert main(["info", str(csv_dataset)]) == 0
        out = capsys.readouterr().out
        assert "trajectories:" in out
        assert "avg length:" in out


class TestQuery:
    def test_topk_output(self, csv_dataset, capsys):
        assert main(["query", str(csv_dataset), "--k", "3",
                     "--partitions", "4", "--delta", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "top-3" in out
        assert "distance 0.000000" in out  # query itself at rank 1

    def test_specific_query_id(self, csv_dataset, capsys):
        data = load_csv(csv_dataset)
        qid = data.trajectories[0].traj_id
        assert main(["query", str(csv_dataset), "--k", "2",
                     "--partitions", "4", "--delta", "0.15",
                     "--query-id", str(qid)]) == 0
        assert f"trajectory {qid}" in capsys.readouterr().out

    def test_range_query(self, csv_dataset, capsys):
        assert main(["query", str(csv_dataset), "--partitions", "4",
                     "--delta", "0.15", "--radius", "0.2"]) == 0
        assert "range query" in capsys.readouterr().out

    def test_measure_selection(self, csv_dataset, capsys):
        assert main(["query", str(csv_dataset), "--k", "2",
                     "--partitions", "4", "--delta", "0.15",
                     "--measure", "frechet"]) == 0
        assert "frechet" in capsys.readouterr().out

    def test_plan_and_wave_size_flags(self, csv_dataset, capsys):
        assert main(["query", str(csv_dataset), "--k", "3",
                     "--partitions", "4", "--delta", "0.15",
                     "--plan", "waves", "--wave-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "waves" in out
        assert main(["query", str(csv_dataset), "--k", "3",
                     "--partitions", "4", "--delta", "0.15",
                     "--plan", "single"]) == 0
        assert "plan:" not in capsys.readouterr().out

    def test_unknown_plan_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "d.csv",
                                       "--plan", "spiral"])

    def test_calibrate_flag(self, csv_dataset, capsys):
        assert main(["query", str(csv_dataset), "--k", "2",
                     "--partitions", "4", "--delta", "0.15",
                     "--calibrate"]) == 0
        assert "us/point" in capsys.readouterr().out

    def test_batch_flag_runs_batch_planner(self, csv_dataset, capsys):
        assert main(["query", str(csv_dataset), "--k", "3",
                     "--partitions", "4", "--delta", "0.15",
                     "--batch", "3", "--plan", "waves",
                     "--wave-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch of 3 top-3 queries" in out
        assert "batch plan (batch-waves):" in out
        assert "multi-query tasks" in out

    def test_batch_conflicts_with_radius_and_query_id(self, csv_dataset,
                                                      capsys):
        assert main(["query", str(csv_dataset), "--batch", "2",
                     "--radius", "0.2"]) == 2
        assert "cannot be combined" in capsys.readouterr().err
        assert main(["query", str(csv_dataset), "--batch", "2",
                     "--query-id", "3"]) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_batch_share_eps_prints_share_stats(self, csv_dataset, capsys):
        assert main(["query", str(csv_dataset), "--k", "2",
                     "--partitions", "4", "--delta", "0.15",
                     "--batch", "3", "--plan", "waves",
                     "--share-eps", "100.0"]) == 0
        out = capsys.readouterr().out
        assert "near-duplicate sharing (eps=100)" in out
        assert "share groups" in out

    def test_share_eps_requires_batch(self, csv_dataset, capsys):
        assert main(["query", str(csv_dataset),
                     "--share-eps", "0.5"]) == 2
        assert "--batch" in capsys.readouterr().err

    def test_share_eps_rejected_on_non_waved_plans(self, csv_dataset,
                                                   capsys):
        """--share-eps on the single batch path would be silently
        ignored, so it is rejected outright."""
        assert main(["query", str(csv_dataset), "--batch", "2",
                     "--plan", "single", "--share-eps", "0.5"]) == 2
        assert "waved batch plan" in capsys.readouterr().err

    def test_batch_single_plan_has_no_report(self, csv_dataset, capsys):
        assert main(["query", str(csv_dataset), "--k", "2",
                     "--partitions", "4", "--delta", "0.15",
                     "--batch", "2", "--plan", "single"]) == 0
        out = capsys.readouterr().out
        assert "batch of 2 top-2 queries" in out
        assert "batch plan" not in out


class TestServe:
    def test_streams_and_reports_registry(self, csv_dataset, capsys):
        assert main(["serve", str(csv_dataset), "--k", "3",
                     "--partitions", "4", "--delta", "0.15",
                     "--requests", "3", "--repeat", "2",
                     "--max-batch", "3"]) == 0
        out = capsys.readouterr().out
        assert "served 6 requests (3 distinct queries x 2" in out
        assert "micro-batches:" in out
        assert "latency: p50" in out
        # Round two recurs every query: at least the 3 repeats hit.
        assert "hot-query registry: 3 hits" in out

    def test_share_eps_forwarded(self, csv_dataset, capsys):
        assert main(["serve", str(csv_dataset), "--k", "2",
                     "--partitions", "4", "--delta", "0.15",
                     "--requests", "2", "--repeat", "1",
                     "--share-eps", "0.5"]) == 0
        assert "hot-query registry:" in capsys.readouterr().out

import concurrent.futures
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bootperc.cli import load_graph, main
from bootperc.errors import PreconditionError
from bootperc.graphs import graph_to_text, make_complete, make_hamming, HammingSpace

from conftest import RecordingExecutor


class TestLoadGraph:
    def test_families(self):
        assert load_graph("Kn:4") == make_complete(4)
        assert load_graph("Hamming:3,2") == make_hamming(HammingSpace(3, 2))
        assert load_graph("LineK:4").vertex_count == 6

    def test_unknown_family_lists_known_ones(self):
        with pytest.raises(PreconditionError, match="Kn, Hamming, LineK"):
            load_graph("Petersen:1")

    def test_bad_parameters(self):
        with pytest.raises(PreconditionError):
            load_graph("Kn:4,2")
        with pytest.raises(PreconditionError):
            load_graph("Hamming:x,2")

    def test_graph_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(graph_to_text(make_complete(4)))
        assert load_graph(str(path)) == make_complete(4)


class TestVerify:
    def test_percolating_construction(self, capsys):
        assert main(["verify", "--family", "c", "--n", "5", "--r", "4", "--d", "3"]) == 0
        assert capsys.readouterr().out == "PERCOLATES size=12\n"

    def test_star_family(self, capsys):
        assert main(["verify", "--family", "star", "--n", "4", "--r", "2", "--d", "2"]) == 0
        assert capsys.readouterr().out == "PERCOLATES size=4\n"

    def test_line_family(self, capsys):
        assert main(["verify", "--family", "line", "--n", "5", "--r", "3"]) == 0
        assert capsys.readouterr().out == "PERCOLATES size=3\n"


class TestConstructSimulate:
    def test_pipeline(self, tmp_path, capsys):
        seed_path = tmp_path / "seed.txt"
        rc = main(
            ["construct", "--family", "v2", "--n", "6", "--r", "5", "--out", str(seed_path)]
        )
        assert rc == 0
        assert capsys.readouterr().out == "size=9\n"
        assert seed_path.read_text().startswith("v ")

        out_path = tmp_path / "trace.json"
        rc = main(
            [
                "simulate",
                "Hamming:6,2",
                "--r",
                "5",
                "--seed",
                str(seed_path),
                "--process",
                "vertex",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        trace = json.loads(out_path.read_text())
        assert trace["percolated"] is True
        assert len(trace["final"]) == 36
        assert len(trace["seed"]) == 9

    def test_construct_to_stdout_reports_size_on_stderr(self, capsys):
        assert main(["construct", "--family", "line", "--n", "4", "--r", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "e 0 3\ne 2 3\n"
        assert captured.err == "size=2\n"

    @pytest.mark.parametrize(
        "family,n,r,d,out",
        [
            ("star", 5000, 2, 2, "e 0 5000\ne 0 10000\ne 1 5001\ne 5000 10000\n"),
            ("line", 7000, 4, None, "e 0 6998\ne 0 6999\ne 1 6999\ne 6997 6998\n"),
        ],
        ids=["star", "line"],
    )
    def test_construct_builds_no_graph(self, capsys, family, n, r, d, out):
        # H(5000, 2) and K_7000 are over the slot cap; their seeds have four edges
        argv = ["construct", "--family", family, "--n", str(n), "--r", str(r)]
        assert main(argv + ([] if d is None else ["--d", str(d)])) == 0
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == "size=4\n"

    def test_simulate_rejects_mismatched_seed_kind(self, tmp_path, capsys):
        seed_path = tmp_path / "seed.txt"
        seed_path.write_text("e 0 1\n")
        rc = main(
            ["simulate", "Kn:3", "--r", "1", "--seed", str(seed_path), "--process", "vertex"]
        )
        assert rc == 1
        reason = json.loads(capsys.readouterr().err)
        assert reason["error"] == "PreconditionError"

    def test_edge_trace(self, tmp_path, capsys):
        seed_path = tmp_path / "seed.txt"
        seed_path.write_text("e 0 3\ne 2 3\n")
        rc = main(
            ["simulate", "Kn:4", "--r", "2", "--seed", str(seed_path), "--process", "line"]
        )
        assert rc == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["rounds"] == [[[0, 2], [1, 3]], [[0, 1], [1, 2]]]
        assert trace["percolated"] is True


class TestDimw:
    def test_frozen_value(self, capsys):
        assert main(["dimw", "Kn:4", "--r", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"dim": 6}

    def test_details(self, capsys):
        assert main(["dimw", "Kn:4", "--r", "3", "--details"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "dim": 6,
            "constraint_rows": 6,
            "constraint_cols": 12,
            "kernel_dim": 6,
        }

    def test_custom_generators(self, capsys):
        assert main(["dimw", "Kn:4", "--r", "3", "--generators", "1,2,3,4"]) == 0
        assert json.loads(capsys.readouterr().out) == {"dim": 6}


class TestSearch:
    def test_vertex_search(self, capsys):
        assert main(["search", "Hamming:3,2", "--r", "2", "--process", "vertex"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimum"] == 2
        assert payload["witness"] == [0, 4]

    def test_line_search(self, capsys):
        assert main(["search", "Kn:4", "--r", "2", "--process", "line"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "minimum": 2,
            "witness": [[0, 1], [0, 2]],
            "engine_calls": 8,
        }

    # measured with the enumerate-and-call-the-engine oracle; the witnesses
    # are the ones the benchmark checks
    @pytest.mark.parametrize(
        "args,expected",
        [
            (
                ["Hamming:3,2", "--r", "3", "--process", "star"],
                '{"minimum": 10, "witness": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 4], '
                '[2, 5], [3, 4], [3, 5], [4, 5], [6, 7]], "engine_calls": 158808}\n',
            ),
            (
                ["Kn:6", "--r", "4", "--process", "star"],
                '{"minimum": 10, "witness": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], '
                '[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]], "engine_calls": 28093}\n',
            ),
            (
                ["Kn:6", "--r", "4", "--process", "line"],
                '{"minimum": 4, "witness": [[0, 1], [0, 2], [1, 3], [2, 4]], '
                '"engine_calls": 622}\n',
            ),
            (
                ["LineK:6", "--r", "6", "--process", "vertex"],
                '{"minimum": 8, "witness": [0, 1, 2, 3, 5, 6, 11, 14], '
                '"engine_calls": 16529}\n',
            ),
            (
                ["Hamming:5,2", "--r", "4", "--process", "vertex", "--jobs", "1"],
                '{"minimum": 6, "witness": [0, 1, 5, 7, 11, 18], "engine_calls": 72621}\n',
            ),
            (
                ["Hamming:5,2", "--r", "4", "--process", "vertex", "--jobs", "2"],
                '{"minimum": 6, "witness": [0, 1, 5, 7, 11, 18], "engine_calls": 85359}\n',
            ),
        ],
        ids=["H32-star", "K6-star", "K6-line", "LineK6-vertex", "H52-jobs1", "H52-jobs2"],
    )
    def test_output_is_pinned(self, capsys, args, expected):
        assert main(["search", *args]) == 0
        assert capsys.readouterr().out == expected

    def test_jobs_pool_is_capped(self, capsys, monkeypatch):
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        args = ["search", "Hamming:4,2", "--r", "3", "--process", "vertex"]
        assert main([*args, "--jobs", "100000"]) == 0
        many = capsys.readouterr().out
        # one pool for the whole search, no wider than the machine or the
        # chunks of the first level it runs
        assert RecordingExecutor.tasks
        assert RecordingExecutor.created == [
            min(os.cpu_count() or 1, RecordingExecutor.tasks[0])
        ]
        assert main([*args, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == many


class TestTable:
    def test_header_and_rows(self, capsys):
        assert main(["table", "--d", "2", "--rmax", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].strip() == "n,d,r,lower,construction_size,upper,exact_if_known"
        assert len(lines) == 4
        # r=2 row: n=3, lower=C(4,3)/2=2, carved corner size 2, upper 6.25, exact 2
        assert lines[2].strip() == "3,2,2,2.0,2,6.25,2"

    def test_exact_column_within_bounds(self, capsys):
        assert main(["table", "--d", "2", "--rmax", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            cells = line.strip().split(",")
            lower, upper, exact = float(cells[3]), float(cells[5]), int(cells[6])
            assert lower <= exact <= upper

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table", "--d", "3", "--rmax", "4", "--out", str(a)])
        main(["table", "--d", "3", "--rmax", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_match_sequential(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table", "--d", "2", "--rmax", "5", "--out", str(a)])
        main(["table", "--d", "2", "--rmax", "5", "--jobs", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_pool_is_capped(self, tmp_path, monkeypatch):
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table", "--d", "2", "--rmax", "5", "--out", str(a)])
        main(["table", "--d", "2", "--rmax", "5", "--jobs", "100000", "--out", str(b)])
        assert RecordingExecutor.created == [min(os.cpu_count() or 1, 5)]
        assert RecordingExecutor.tasks == [5]
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_precondition_rejection_is_exit_1(self, capsys):
        rc = main(["construct", "--family", "star", "--n", "2", "--r", "5"])
        assert rc == 1
        reason = json.loads(capsys.readouterr().err)
        assert reason["error"] == "PreconditionError"
        assert "r+1" in reason["reason"]

    def test_missing_file_is_exit_1(self, capsys):
        rc = main(["dimw", "/no/such/file", "--r", "2"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] in ("FileNotFoundError", "OSError")

    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # missing required arguments
        assert exc.value.code == 2

    def test_unknown_subcommand_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestRejectedInput:
    """Bad files and oversized requests exit 1 with a JSON reason, no traceback."""

    def run(self, argv, capsys):
        started = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        return rc, json.loads(err), elapsed

    def test_non_integer_token_in_graph_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("p 2 1\ne 0 x\n")
        rc, reason, _ = self.run(["search", str(path), "--r", "1", "--process", "vertex"], capsys)
        assert rc == 1
        assert reason["error"] == "FormatError"
        assert "line 2" in reason["reason"]

    def test_non_integer_token_in_seed_file(self, tmp_path, capsys):
        seed_path = tmp_path / "seed.txt"
        seed_path.write_text("v zz\n")
        argv = ["simulate", "Kn:3", "--r", "1", "--seed", str(seed_path), "--process", "vertex"]
        rc, reason, _ = self.run(argv, capsys)
        assert rc == 1
        assert reason["error"] == "FormatError"
        assert "line 1" in reason["reason"]

    def test_oversized_header(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("p 1000000000 0\n")
        argv = ["search", str(path), "--r", "1", "--process", "vertex"]
        rc, reason, elapsed = self.run(argv, capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert elapsed < 1.0

    def test_oversized_hamming_family(self, capsys):
        rc, reason, elapsed = self.run(["dimw", "Hamming:10,7", "--r", "2"], capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert elapsed < 1.0

    def test_verify_guards_the_graph_before_the_seed(self, capsys):
        # the simplex region of dimension 2000 would recurse 2000 levels deep
        argv = ["verify", "--family", "a", "--n", "2", "--r", "1", "--d", "2000"]
        rc, reason, elapsed = self.run(argv, capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert elapsed < 1.0

    @pytest.mark.parametrize("n,r,d", [(60, 59, 8), (2, 1, 40)])
    def test_verify_refuses_before_enumerating(self, n, r, d):
        # enumerating either seed takes gigabytes, so run it in a child with capped memory
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

        src = Path(__file__).resolve().parent.parent / "src"
        argv = ["verify", "--family", "a", "--n", str(n), "--r", str(r), "--d", str(d)]
        run = subprocess.run(
            [sys.executable, "-m", "bootperc", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
        )
        assert run.returncode == 1
        assert json.loads(run.stderr)["error"] == "ResourceLimitError"

    @pytest.mark.parametrize("token", ["1/0", "x"])
    def test_bad_generator(self, capsys, token):
        argv = ["dimw", "Kn:4", "--r", "2", "--generators", f"{token},2,3,4"]
        rc, reason, _ = self.run(argv, capsys)
        assert rc == 1
        assert reason["error"] == "FormatError"
        assert repr(token) in reason["reason"]

    def test_oversized_dimw_instance(self, capsys):
        # E*(V*r)^2 = 4950 * 1000^2, far over the rank-cost cap
        rc, reason, elapsed = self.run(["dimw", "Kn:100", "--r", "10"], capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert elapsed < 1.0


class TestStartup:
    """``import bootperc.cli`` loads every layer, and no pool or dataclass machinery."""

    def test_import_footprint(self):
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", "import sys, bootperc.cli; print(*sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        loaded = set(out.split())
        heavy = {"dataclasses", "inspect", "concurrent.futures", "multiprocessing", "logging"}
        assert sorted(heavy & loaded) == []
        # the benchmark's tracer reads every layer from sys.modules
        layers = ("graphs", "constructions", "engine", "formulas", "oracle", "polymethod", "linalg")
        assert sorted({f"bootperc.{m}" for m in layers} - loaded) == []

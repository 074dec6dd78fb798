import concurrent.futures
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bootperc
from bootperc import cli, oracle
from bootperc.cli import COMMANDS, _json, _parse_strict, build_parser, load_graph, main
from bootperc.errors import PreconditionError
from bootperc.graphs import Graph, make_complete, make_hamming
from bootperc.hamming import HammingSpace

from conftest import RecordingExecutor


def run_with_capped_memory(argv):
    """Run ``python -m bootperc ARGV`` in a child limited to 512 MiB of address space."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    src = Path(__file__).resolve().parent.parent / "src"
    started = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "bootperc", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap_memory,
    )
    return run, time.perf_counter() - started


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
        path.write_text("p 4 6\n" + "".join(f"e {u} {v}\n" for u, v in combinations(range(4), 2)))
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

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--family", "v2", "--n", "6", "--r", "5"], "PERCOLATES size=9\n"),
            (["--family", "a", "--n", "5", "--r", "4", "--d", "3"], "PERCOLATES size=16\n"),
            (["--family", "c", "--n", "5", "--r", "4", "--d", "3"], "PERCOLATES size=12\n"),
            (["--family", "c", "--n", "4", "--r", "4", "--d", "3"], None),  # n <= r: refused
            (["--family", "star", "--n", "4", "--r", "2", "--d", "2"], "PERCOLATES size=4\n"),
            (["--family", "line", "--n", "5", "--r", "3"], "PERCOLATES size=3\n"),
        ],
        ids=["v2", "a", "c", "c-refused", "star", "line"],
    )
    def test_builds_no_graph(self, capsys, monkeypatch, argv, expected):
        # the packed closure answers alone: no CSR graph is built beside it
        assert main(["verify", *argv]) == (0 if expected else 1)
        unpatched = capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("verify built a Graph")

        monkeypatch.setattr(Graph, "__init__", refuse)
        assert main(["verify", *argv]) == (0 if expected else 1)
        assert capsys.readouterr() == unpatched
        assert unpatched.out == (expected or "")


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

    def test_star_seed_of_high_dimension(self, capsys):
        # one edge, lifted through 1999 dimensions
        argv = ["construct", "--family", "star", "--n", "2", "--r", "1", "--d", "2000"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == f"e 0 {2**1999}\n"
        assert captured.err == "size=1\n"

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

    def test_v2_seed_of_huge_alphabet(self, capsys):
        # the two corners are listed directly, not found among the n^2 points
        started = time.perf_counter()
        rc = main(["construct", "--family", "v2", "--n", "100000", "--r", "1"])
        elapsed = time.perf_counter() - started
        out, err = capsys.readouterr()
        assert (rc, out, err) == (0, "v 99999\n", "size=1\n")
        assert elapsed < 1.0


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
                '{"minimum": 6, "witness": [0, 1, 5, 7, 11, 18], "engine_calls": 72621}\n',
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
        monkeypatch.setattr(oracle, "_POOL_FROM", 0)  # every level goes to the pool
        args = ["search", "Hamming:4,2", "--r", "3", "--process", "vertex"]
        assert main([*args, "--jobs", "100000"]) == 0
        many = capsys.readouterr().out
        # one pool for the whole search, no wider than the machine or the
        # jobs asked for
        assert RecordingExecutor.tasks
        assert RecordingExecutor.created == [min(100000, os.cpu_count() or 1)]
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

    def test_jobs_match_sequential(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_TABLE_POOL_FROM", 0)  # a real pool, whatever the rows
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table", "--d", "2", "--rmax", "5", "--out", str(a)])
        main(["table", "--d", "2", "--rmax", "5", "--jobs", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_pool_is_capped(self, tmp_path, monkeypatch):
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(cli, "_TABLE_POOL_FROM", 0)  # every table at --jobs > 1 has a pool
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table", "--d", "2", "--rmax", "5", "--out", str(a)])
        main(["table", "--d", "2", "--rmax", "5", "--jobs", "100000", "--out", str(b)])
        assert RecordingExecutor.created == [min(os.cpu_count() or 1, 5)]
        assert RecordingExecutor.tasks == [5]
        assert a.read_bytes() == b.read_bytes()

    def test_small_table_starts_no_pool(self, capsys, monkeypatch):
        # 120 corner points: far fewer than pay for a pool
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        assert main(["table", "--d", "3", "--rmax", "6"]) == 0
        sequential = capsys.readouterr().out
        assert main(["table", "--d", "3", "--rmax", "6", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential
        assert RecordingExecutor.created == []

    def test_large_table_starts_a_capped_pool(self, monkeypatch):
        # --d 3 --rmax 120 counts 4,765,320 corner points; its rows are
        # stood in for by their payloads, so none is built
        RecordingExecutor.reset()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(cli, "_table_row", list)
        want = [[3, r, r + 1] for r in range(1, 121)]
        for jobs in (1, 2, 100000):
            RecordingExecutor.reset()
            assert cli._table_rows(3, 120, None, jobs) == want
            pooled = jobs > 1
            assert RecordingExecutor.created == [min(jobs, os.cpu_count() or 1, 120)] * pooled
            assert RecordingExecutor.tasks == [120] * pooled


@st.composite
def fuzzed_command_lines(draw, tmp: Path):
    """argv of one command from its ``COMMANDS`` rows: small values, tiny or
    malformed graphs, seed files and ``--out`` targets under ``tmp``."""
    command = draw(st.sampled_from(list(COMMANDS)))
    argv = [command]
    for flag, kind, required, _, _ in COMMANDS[command][2]:
        if not draw(st.sampled_from([True] * 19 + [False]) if required else st.booleans()):
            continue  # a required argument is left out now and then: a usage error
        if flag == "graph":
            value = draw(
                st.integers(0, 5).map("Kn:{}".format)
                | st.builds("Hamming:{},{}".format, st.integers(1, 3), st.integers(1, 3))
                | st.integers(0, 4).map("LineK:{}".format)
                | st.sampled_from(["Kn:", "Kn:x", "Kn:-2", "Kn:1,2", "Hamming:3", "Torus:3",
                                   str(tmp / "missing-graph.txt")])
            )
        elif flag == "--seed":
            value = str(tmp / draw(st.sampled_from(["v.seed", "e.seed", "empty.seed", "bad.seed",
                                                    "missing.seed"])))
        elif flag == "--out":
            value = str(tmp / draw(st.sampled_from(["out.txt", ".", "missing/out.txt"])))
        elif flag == "--generators":
            value = draw(st.sampled_from(["2,3,5,7,11,13,17,19,23", "1/2,3", "x", "1/0", "-1,2"]))
        elif kind is bool:
            argv.append(flag)
            continue
        elif kind is int:
            low, high = {"--rmax": (-1, 3), "--jobs": (0, 2)}.get(flag, (-1, 4))
            value = str(draw(st.integers(low, high)))
        else:
            value = draw(st.sampled_from([*kind, *kind, "bogus"]))
        argv += [flag, value] if flag.startswith("-") else [value]
    return argv


class TestExitCodes:
    def test_precondition_rejection_is_exit_1(self, capsys):
        rc = main(["construct", "--family", "star", "--n", "2", "--r", "5"])
        assert rc == 1
        reason = json.loads(capsys.readouterr().err)
        assert reason["error"] == "PreconditionError"
        assert "r+1" in reason["reason"]

    @pytest.mark.parametrize(
        "family,n,r,d",
        [("v2", 3, -2, None), ("a", 3, -2, 2), ("c", 3, -2, 3), ("star", 3, -1, 2),
         ("line", 5, -3, None)],
        ids=["v2", "a", "c", "star", "line"],
    )
    def test_negative_threshold_is_exit_1(self, capsys, family, n, r, d):
        argv = ["construct", "--family", family, "--n", str(n), "--r", str(r)]
        assert main(argv + ([] if d is None else ["--d", str(d)])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "PreconditionError",
            "reason": "threshold r must be nonnegative",
        }

    @pytest.mark.parametrize(
        "argv",
        [["Kn:3", "--r", "-1"], ["Hamming:3,2", "--r", "-5", "--details"]],
        ids=["Kn3", "H32-details"],
    )
    def test_dimw_negative_threshold_is_exit_1(self, capsys, argv):
        assert main(["dimw", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "PreconditionError",
            "reason": "threshold r must be nonnegative",
        }

    @pytest.mark.parametrize(
        "argv,reason",
        [
            pytest.param([*argv, "--jobs", jobs], reason, id=f"{name}-{jobs}")
            for name, argv, reason in [
                ("search", ["search", "Kn:5", "--r", "2", "--process", "star"],
                 "jobs must be at least 1"),
                ("table", ["table", "--d", "2", "--rmax", "3"], "--jobs must be at least 1"),
            ]
            for jobs in ("-3", "0")
        ]
        + [
            # a negative budget is refused, not taken as one that nothing fits
            pytest.param(["search", "Kn:6", "--r", "4", "--process", "line", "--max-calls", "-5"],
                         "max_engine_calls must be at least 0", id="max-calls--5"),
            pytest.param(["search", "Kn:4", "--r", "2", "--process", "line", "--cap", "-1"],
                         "cap must be at least 0", id="cap--1"),
        ],
    )
    def test_jobs_below_one_is_exit_1(self, capsys, argv, reason):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "PreconditionError", "reason": reason}

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

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_command_lines_exit_0_1_or_2(self, data, tmp_path, capsys, monkeypatch):
        # a table at --jobs 2 runs its rows in this process, not in a pool of workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        for name, text in [("v.seed", "v 0\nv 1\n"), ("e.seed", "e 0 1\n"), ("empty.seed", ""),
                           ("bad.seed", "x 1\n")]:
            (tmp_path / name).write_text(text)
        argv = data.draw(fuzzed_command_lines(tmp_path))
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 1:
            assert set(json.loads(err.splitlines()[-1])) == {"error", "reason"}


class TestParserOfOneCommand:
    """One argparse parser serves every command: ``main`` prints what it prints."""

    @pytest.mark.parametrize(
        "argv",
        [[command, "--help"] for command in COMMANDS]
        + [
            ["verify", "--bogus"],  # the subcommand's usage and error
            ["verify", "--family", "c", "--n", "4", "--r", "3", "--bogus"],  # the top usage
            ["search", "Kn:4", "--r", "2", "--process", "edge"],
            ["dimw", "Kn:4", "--r", "3", "extra"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_prints_what_the_full_parser_prints(self, argv, capsys):
        printed = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            printed.append((exc.value.code, capsys.readouterr()))
        assert printed[0] == printed[1]

    def test_usage_names_every_command(self):
        usage = "usage: bootperc [-h] {simulate,construct,verify,table,dimw,search} ...\n"
        assert build_parser().format_usage() == usage


# values of every type, some that argparse reads another way and some it refuses
ODD_VALUES = ["-1", "０", "²", "0x10", "1_0", " 5", "+3", "", "-", "--", "-h", "--out", "edge",
              "x=y", "0" * 5000]
# tokens the strict parser leaves to argparse: help, "--", abbreviations, "=" and strays
ODD_TOKENS = ["-h", "--help", "--", "--proc", "--fam", "--ma", "--r=4", "--process=star",
              "--details", "--bogus", "extra", "search"]


@st.composite
def command_lines(draw):
    """Mostly well-formed argv of one command, with its arguments in any order and some noise."""
    command = draw(st.sampled_from([*COMMANDS, "sea", "bogus"]))
    groups = []
    for flag, kind, required, _, _ in COMMANDS.get(command, (None, None, ()))[2]:
        if not draw(st.booleans()) and not (required and draw(st.integers(0, 9))):
            continue
        if kind is int:
            good = st.integers(0, 40).map(str)
        elif kind is str:
            good = st.sampled_from(["Kn:4", "g.txt", "1,2,3", "a b"])
        elif kind is bool:
            groups.append([flag])
            continue
        else:
            good = st.sampled_from(kind)
        value = draw(good if draw(st.integers(0, 7)) else st.sampled_from(ODD_VALUES))
        groups.append([value] if not flag.startswith("-") else [flag, value])
    groups = draw(st.permutations(groups))
    if groups and not draw(st.integers(0, 5)):
        groups.append(draw(st.sampled_from(groups)))  # a repeated flag or positional
    argv = [command, *(token for group in groups for token in group)]
    if not draw(st.integers(0, 2)):
        for token in draw(st.lists(st.sampled_from(ODD_TOKENS), min_size=1, max_size=2)):
            argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


class TestStrictParser:
    """A well-formed command line skips argparse, and reads as argparse reads it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "Kn:5", "--r", "1", "--seed", "edge.seed", "--process", "star"],
            ["construct", "--family", "line", "--n", "9", "--r", "6", "--out", "line.seed"],
            ["verify", "--d", "5", "--r", "8", "--n", "9", "--family", "c"],
            ["table", "--d", "3", "--rmax", "6", "--jobs", "2"],
            ["dimw", "--details", "Kn:16", "--r", "5", "--generators", "1/2,2,3"],
            ["search", "Kn:6", "--r", "04", "--process", "line", "--max-calls", "0", "--cap", "9"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_reads_what_argparse_reads(self, argv):
        assert vars(_parse_strict(argv)) == vars(build_parser().parse_args(argv))

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    @example(["dimw", "Kn:4", "--r", "3", "--out", "--"])
    @example(["search", "Kn:6", "--r", "4", "--process", "star", "--out", "-h"])
    def test_agrees_with_argparse_whenever_it_reads(self, argv):
        strict = _parse_strict(argv)
        if strict is not None:
            assert vars(strict) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["search"], ["sea", "Kn:6", "--r", "4", "--process", "star"],
            ["search", "Kn:6", "--r", "4", "--proc", "star"],
            ["search", "Kn:6", "--r=4", "--process", "star"],
            ["search", "Kn:6", "--r", "4", "--process", "star", "-h"],
            ["search", "Kn:6", "--r", "4", "--r", "4", "--process", "star"],
            ["search", "Kn:4", "--r", "2", "--process", "line", "--cap", "-1"],
            ["search", "Kn:6", "--r", "０", "--process", "star"],
            ["search", "Kn:6", "--r", "4", "--process", "edge"],
            ["search", "Kn:6", "Kn:7", "--r", "4", "--process", "star"],
            ["search", "", "--r", "4", "--process", "star"],
            ["search", "Kn:6", "--process", "star"],
            ["verify", "--family", "c", "--n", "0" * 5000 + "4", "--r", "3"],
            ["dimw", "Kn:4", "--r", "3", "--details", "--details"],
        ],
        ids=lambda argv: " ".join(argv)[:40],
    )
    def test_leaves_other_forms_to_argparse(self, argv):
        assert _parse_strict(argv) is None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200)
    | st.text(max_size=4) | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4) | st.integers(), inner, max_size=3),
    max_leaves=16,
)
json_keys = st.sampled_from(["dim", "witness", "engine_calls", "a_1", "_", "é", "1x", "a b", 'q"'])


class TestJson:
    @settings(max_examples=400, deadline=None)
    @given(json_values | st.dictionaries(json_keys | st.text(max_size=4), json_values, max_size=4))
    def test_writes_what_json_dumps_writes(self, x):
        assert _json(x) == json.dumps(x)

    @pytest.mark.parametrize(
        "payload",
        [{"minimum": 4, "witness": [(0, 1), (0, 2)], "engine_calls": 622}, {"dim": -1},
         {"minimum": None, "witness": None, "engine_calls": 10**40}, {}],
    )
    def test_plain_payloads_need_no_json(self, payload, monkeypatch):
        monkeypatch.setitem(sys.modules, "json", None)  # importing json would raise
        assert _json(payload) == json.dumps(payload)


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["dimw", "{bad}", "--r", "1"],
            ["search", "{bad}", "--r", "1", "--process", "vertex"],
            ["simulate", "{bad}", "--r", "1", "--seed", "{good}", "--process", "vertex"],
            ["simulate", "Kn:3", "--r", "1", "--seed", "{bad}", "--process", "vertex"],
        ],
        ids=["dimw", "search", "simulate-graph", "simulate-seed"],
    )
    def test_undecodable_file_is_a_format_error(self, tmp_path, capsys, argv):
        bad, good = tmp_path / "bin.txt", tmp_path / "seed.txt"
        bad.write_bytes(b"\xff\xfe\x00v 1\n")
        good.write_text("v 0\n")
        rc = main([a.format(bad=bad, good=good) for a in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert "Traceback" not in err
        reason = json.loads(err)
        assert reason["error"] == "FormatError"
        assert str(bad) in reason["reason"]

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
        # the packed guard refuses 2^2000 vertices before the simplex region,
        # which would recurse 2000 levels deep, is enumerated
        argv = ["verify", "--family", "a", "--n", "2", "--r", "1", "--d", "2000"]
        rc, reason, elapsed = self.run(argv, capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert elapsed < 1.0

    @pytest.mark.parametrize("n,r,d", [(60, 59, 8), (2, 1, 40)])
    def test_verify_refuses_before_enumerating(self, n, r, d):
        # enumerating either seed takes gigabytes, so run it in a child with capped
        # memory; the packed guard refuses 60^8 and 2^40 vertices first
        argv = ["verify", "--family", "a", "--n", str(n), "--r", str(r), "--d", str(d)]
        run, _ = run_with_capped_memory(argv)
        assert run.returncode == 1
        assert json.loads(run.stderr)["error"] == "ResourceLimitError"

    @pytest.mark.parametrize(
        "argv,cost",
        [
            # 26 ints of 10^8 fields of 8 bits
            (["--family", "c", "--n", "10", "--r", "9", "--d", "8"], "20800000000 packed bits"),
            # 2590^2 fields of 16 bits fit, but 12-bit n takes 98 operations per axis
            (["--family", "v2", "--n", "2590", "--r", "3"], "22324556800 bits per round"),
            (["--family", "line", "--n", "40000", "--r", "3"], "3200000000 packed bits"),
        ],
        ids=["bits", "work", "line-bits"],
    )
    def test_verify_guard_names_its_cost(self, capsys, argv, cost):
        rc, reason, elapsed = self.run(["verify", *argv], capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert cost in reason["reason"]
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv,size",
        [
            (["verify", "--family", "line", "--n", "32768", "--r", "32767"], "134225920 edges"),
            (["verify", "--family", "star", "--n", "160", "--r", "159", "--d", "3"], "C(162,4) edges"),
            (["verify", "--family", "star", "--n", "2000", "--r", "1999"], "C(2000,2) edges"),
        ],
        ids=["line", "star", "star-d1"],
    )
    def test_verify_counts_edge_seeds_before_enumerating(self, argv, size):
        # the packed closures fit under their guard, but the seeds would take
        # gigabytes, so run in a child with capped memory
        run, elapsed = run_with_capped_memory(argv)
        assert (run.returncode, run.stdout) == (1, "")
        reason = json.loads(run.stderr)
        assert reason["error"] == "ResourceLimitError"
        assert size in reason["reason"]
        assert elapsed < 1.0

    def test_corner_seed_of_high_dimension(self, capsys):
        # 2^1999 corner masks, and a region 2000 levels deep
        argv = ["construct", "--family", "c", "--n", "2", "--r", "1", "--d", "2000"]
        rc, reason, elapsed = self.run(argv, capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--family", "a", "--n", "2", "--r", "1", "--d", "40"],
            ["table", "--d", "40", "--rmax", "1"],
            ["verify", "--family", "a", "--n", "1", "--r", "0", "--d", "2000"],
            ["table", "--d", "40", "--rmax", "100000000"],
            ["table", "--d", "2", "--rmax", "100000000"],
        ],
        ids=["construct", "table", "verify-one-vertex", "table-d40-rmax1e8", "table-d2-rmax1e8"],
    )
    def test_corner_masks_are_counted_before_enumerating(self, argv):
        # 2^39 or 2^1999 masks would exhaust memory, so run in a child with capped memory;
        # [0,1)^2000 is one vertex, so the verify case passes the packed guard; a table
        # checks every row, here up to r = 2235 for d = 2, before it lists any of 10^8 rows
        run, elapsed = run_with_capped_memory(argv)
        assert (run.returncode, run.stdout) == (1, "")
        assert json.loads(run.stderr)["error"] == "ResourceLimitError"
        assert elapsed < 1.0

    def test_table_of_huge_dimension(self, capsys):
        # the corner guard refuses d = 10^6 before the bounds compute d!
        rc, reason, elapsed = self.run(["table", "--d", "1000000", "--rmax", "1"], capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert elapsed < 1.0

    def test_unprintable_vertex_ids(self, capsys):
        # ids below 2^15000 have up to 4516 digits, past str()'s default 4300
        argv = ["construct", "--family", "star", "--n", "2", "--r", "1", "--d", "15000"]
        rc, reason, elapsed = self.run(argv, capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert "4300 digits" in reason["reason"]
        assert elapsed < 1.0

    @pytest.mark.parametrize("token", ["1/0", "x"])
    def test_bad_generator(self, capsys, token):
        argv = ["dimw", "Kn:4", "--r", "2", "--generators", f"{token},2,3,4"]
        rc, reason, _ = self.run(argv, capsys)
        assert rc == 1
        assert reason["error"] == "FormatError"
        assert repr(token) in reason["reason"]

    def test_empty_generators_are_refused(self, capsys):
        # an empty list is bad input, not a request for the default primes
        rc, reason, _ = self.run(["dimw", "Kn:4", "--r", "3", "--generators", ""], capsys)
        assert rc == 1
        assert reason == {"error": "FormatError", "reason": "bad generator '' in --generators"}

    def test_oversized_dimw_instance(self, capsys):
        # E*(V*r)^2 = 4950 * 1000^2, far over the rank-cost cap
        rc, reason, elapsed = self.run(["dimw", "Kn:100", "--r", "10"], capsys)
        assert rc == 1
        assert reason["error"] == "ResourceLimitError"
        assert elapsed < 1.0


LAYERS = ("hamming", "graphs", "linalg", "formulas", "packed", "engine", "constructions", "oracle",
          "polymethod")

# Prints the layers whose code has run, read without triggering a lazy load.
EXECUTED_LAYERS = (
    "import sys; "
    f"print(*[m for m in {LAYERS!r} "
    "if any(not k.startswith('__') for k in "
    "object.__getattribute__(sys.modules['bootperc.' + m], '__dict__'))])"
)


def run_python(code, cwd=None):
    """stdout of ``python -c CODE`` in a fresh interpreter running the package from src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


class TestStartup:
    """``import bootperc.cli`` runs no layer, and no pool, dataclass, rational or CSV machinery."""

    def test_import_footprint(self):
        loaded = set(run_python("import sys, bootperc.cli; print(*sys.modules)").split())
        heavy = {"dataclasses", "inspect", "concurrent.futures", "multiprocessing", "logging",
                 "fractions", "decimal", "numbers", "csv", "json", "argparse", "gettext"}
        assert sorted(heavy & loaded) == []
        # every layer is in sys.modules, where the benchmark's tracer reads it
        assert sorted({f"bootperc.{m}" for m in LAYERS} - loaded) == []

    def test_import_runs_no_layer(self):
        assert run_python(f"import bootperc.cli; {EXECUTED_LAYERS}") == "\n"

    @pytest.mark.parametrize(
        "argv,layers",
        [
            # verify checks on K_n^d with no graph: neither graphs nor engine runs
            (["verify", "--family", "c", "--n", "9", "--r", "8", "--d", "5"],
             "hamming packed constructions"),
            (["verify", "--family", "star", "--n", "20", "--r", "19", "--d", "3"],
             "hamming packed constructions"),
            (["verify", "--family", "line", "--n", "200", "--r", "100"],
             "hamming formulas packed constructions"),
            (["dimw", "Kn:16", "--r", "5"], "hamming graphs linalg polymethod"),
            (["dimw", "Hamming:3,3", "--r", "2"], "hamming graphs linalg polymethod"),
            (["search", "Kn:6", "--r", "4", "--process", "line"], "hamming graphs oracle"),
            # graphs reads its read-only helper from hamming, so a file also runs it
            (["search", "c4.txt", "--r", "2", "--process", "vertex"], "hamming graphs oracle"),
            # construct writes the seed file with graphs, and runs neither kernel
            (["construct", "--family", "c", "--n", "9", "--r", "8", "--d", "5"],
             "hamming graphs constructions"),
            (["construct", "--family", "line", "--n", "9", "--r", "6"],
             "hamming graphs formulas constructions"),
            # simulate runs the CSR kernel alone, not the packed one
            (["simulate", "Kn:5", "--r", "1", "--seed", "edge.seed", "--process", "star"],
             "hamming graphs engine"),
        ],
        ids=["verify", "verify-star", "verify-line", "dimw", "dimw-hamming", "search",
             "search-file", "construct", "construct-line", "simulate-edges"],
    )
    def test_each_command_runs_only_its_layers(self, tmp_path, argv, layers):
        (tmp_path / "c4.txt").write_text("p 4 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
        (tmp_path / "edge.seed").write_text("e 0 1\n")
        code = f"import bootperc.cli; bootperc.cli.main({argv!r}); {EXECUTED_LAYERS}"
        assert run_python(code, cwd=tmp_path).splitlines()[-1] == layers

    def test_benchmark_commands_load_neither_argparse_nor_json(self, tmp_path):
        # the benchmark's CLI jobs; its seeded search reads K_5^2 from a file
        edges = make_hamming(HammingSpace(5, 2)).edge_list()
        text = f"p 25 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
        (tmp_path / "h52.txt").write_text(text)
        vertex = ["search", "h52.txt", "--r", "4", "--process", "vertex"]
        argvs = [
            ["verify", "--family", "c", "--n", "9", "--r", "8", "--d", "5"],
            ["verify", "--family", "star", "--n", "20", "--r", "19", "--d", "3"],
            ["verify", "--family", "line", "--n", "200", "--r", "100"],
            ["dimw", "Kn:16", "--r", "5", "--details"],
            ["dimw", "Hamming:3,3", "--r", "2", "--details"],
            ["dimw", "Hamming:4,2", "--r", "3", "--details"],
            vertex + ["--jobs", "1"],
            vertex + ["--jobs", "2"],
            ["search", "Hamming:3,2", "--r", "3", "--process", "star"],
            ["search", "Kn:6", "--r", "4", "--process", "star"],
            ["search", "Kn:6", "--r", "4", "--process", "line"],
            ["search", "LineK:6", "--r", "6", "--process", "vertex"],
        ]
        code = (
            f"import sys, bootperc.cli; print([bootperc.cli.main(a) for a in {argvs!r}]); "
            "print('loaded:', *sorted({'argparse', 'json'} & set(sys.modules)))"
        )
        lines = run_python(code, cwd=tmp_path).splitlines()
        assert lines[-2:] == [str([0] * len(argvs)), "loaded:"]
        assert lines[3] == (
            '{"dim": 15, "constraint_rows": 120, "constraint_cols": 80, "kernel_dim": 15}'
        )
        assert json.loads(lines[6])["minimum"] == 6

    def test_other_spellings_print_what_the_canonical_one_prints(self, capsys):
        assert main(["search", "Kn:6", "--r", "4", "--process", "star"]) == 0
        canonical = capsys.readouterr()
        for argv in (["search", "Kn:6", "--proc", "star", "--r=4"],
                     ["search", "--r", "4", "--process=star", "Kn:6"]):
            assert _parse_strict(argv) is None  # argparse reads it
            assert main(argv) == 0
            assert capsys.readouterr() == canonical

    @pytest.mark.parametrize(
        "code,answer",
        [
            ('bootperc.cli.main(["verify", "--family", "c", "--n", "9", "--r", "8", "--d", "5"])',
             "PERCOLATES size=560"),
            ("print(bootperc.polymethod.recognized_space_dim_hamming(5, 4, 2))", "20"),
            ('bootperc.cli.main(["dimw", "Kn:4", "--r", "3"])', '{"dim": 6}'),
        ],
        ids=["verify-c", "lifted-dimension", "dimw"],
    )
    def test_integer_paths_load_no_rationals(self, code, answer):
        out = run_python(f"import sys, bootperc.cli; {code}; print(*sys.modules)")
        printed, loaded = out.split("\n", 1)
        assert printed == answer
        assert sorted({"fractions", "decimal", "numbers"} & set(loaded.split())) == []

    def test_library_runs_without_the_tests(self, tmp_path):
        # every exported name and the benchmark's library snippet resolve from src/ alone
        code = (
            "from bootperc import *; "
            "from bootperc.polymethod import recognized_space_dim_hamming as f; print(f(5, 4, 2))"
        )
        assert run_python(code, cwd=tmp_path) == "20\n"

    def test_layer_attribute_of_a_fresh_package(self, tmp_path):
        # the benchmark's lifted-542 value; the attribute's first use runs polymethod
        code = "import bootperc; print(bootperc.polymethod.recognized_space_dim_hamming(5, 4, 2))"
        assert run_python(code, cwd=tmp_path) == "20\n"


# the package's public names, by the module that defines them
PUBLIC_NAMES = {
    "constructions": ("carved_corner_set", "carved_region", "line_seed", "simplex_corner_set",
                      "simplex_region", "star_seed_hamming", "vertex_seed_dim2"),
    "engine": ("ActivationTrace", "is_percolating", "percolate", "trace_to_jsonable"),
    "errors": ("FormatError", "PreconditionError", "ResourceLimitError"),
    "formulas": ("min_seed_hamming_bounds", "min_seed_hamming_dim2", "min_seed_line_complete",
                 "weak_saturation_hamming"),
    "graphs": ("Graph", "graph_from_text", "make_complete", "make_hamming", "make_line_graph",
               "seed_from_text", "seed_to_text"),
    "hamming": ("HammingSpace",),
    "oracle": ("SearchResult", "min_percolating"),
    "packed": ("is_percolating_hamming",),
    "polymethod": ("DimReport", "is_proper_coloring", "product_coloring_on",
                   "recognized_space_dim_hamming", "recognized_space_report"),
}


class TestPackageNames:
    """The package serves each public name from its layer module on first use."""

    def test_all_lists_the_public_names(self):
        assert bootperc.__all__ == sorted(n for names in PUBLIC_NAMES.values() for n in names)
        assert len(bootperc.__all__) == 34

    @pytest.mark.parametrize(
        "home,name", [(home, n) for home, names in PUBLIC_NAMES.items() for n in names]
    )
    def test_is_the_layer_object(self, home, name):
        assert getattr(bootperc, name) is getattr(importlib.import_module(f"bootperc.{home}"), name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from bootperc import *", namespace)
        assert sorted(set(bootperc.__all__) - namespace.keys()) == []

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            bootperc.no_such_name
        # left the package; no stale alias
        for gone in ("lift_coloring", "star_seed_complete", "inner_cut_region",
                     "min_seed_complete", "graph_to_text"):
            assert not hasattr(bootperc, gone)

    def test_dir_lists_the_public_names(self):
        assert sorted(set(bootperc.__all__) - set(dir(bootperc))) == []

"""bootperc benchmark: end-to-end CLI timing per workload, or a traced per-layer run.

Usage:
    python3 bench/run.py --workload {verify,dimw,search} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is run from ``src/`` with the
interpreter that runs this script.  Each workload is a fixed list of
jobs.  A job is one fresh interpreter running job.py, which calls
``bootperc.cli.main(ARGS)`` as ``python -m bootperc ARGS`` does (or runs a
short library snippet) and records the job's peak memory; jobs run one
after another from this process, which never has more than one job
alive (a ``--jobs 2`` job starts its own two workers, so at most two
processes compute at once).  A pass runs every job once; the run
repeats passes for as long as the next one still fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics, each the median over passes:

    wall_s       summed wall time of the jobs, spawn to exit
    cpu_s        summed user + sys of the jobs and their waited-for
                 children (wait4 rusage)
    peak_rss_mb  largest peak RSS of any job or of its pool workers
                 (VmHWM, recorded by job.py)
    setup_s      a fresh interpreter that only does ``import bootperc.cli``,
                 sampled SETUP_SAMPLES_PER_PASS times at the start of every pass
    fail_ratio   failed / attempted jobs (non-zero exit, timeout or wrong
                 output); printed here and carried by the result's
                 ``attempted`` and ``failed`` fields

wall_s, cpu_s and setup_s are given at reference host speed.  Between
any two measurements this process times a fixed interpreter loop
(reference_loop, the fastest of REFERENCE_SAMPLES runs of a ~20 ms
loop, so that one disturbed run does not count); each job or set-up
sample is scaled by REFERENCE_LOOP_S over the mean of the loop times
just before and just after it.  On the 2-core
shared virtual machine (Xeon, Python 3.11) the benchmark was tuned on,
contention from outside the machine slows a fixed CPU loop by up to
40%, in phases from seconds to many minutes (steal time stays near
zero).  Unscaled, the verify workload's median wall time moved from
4.7 s to 6.1 s between two 4-minute periods and spread by 15% within
one; bench/baseline.json records the scaled spreads.  The loop runs in this process and shares nothing with bootperc, so a
change to the program cannot move it.  The unscaled medians are printed
as ``*_unscaled`` lines and per job.

``--trace 1`` runs each job untraced and then traced (job.py ``--trace``), which
records a span around every call into a layer, and prints the per-layer
metrics listed in LAYER_METRICS, each the median over passes of unscaled
times.  It also self-tests the tracer: the traced stdout must equal the
untraced stdout, and for every job the traced wall time must equal
setup_s plus the summed self times of the job's spans, up to a remainder
that is reported and must stay within REMAINDER_TOLERANCE_S +
REMAINDER_SHARE of the traced wall time.

The seed only relabels the vertices of the graph file given to the
``search`` workload; every other input is fixed.  Every job's output is
checked: fixed jobs byte for byte against values frozen from the first
benchmarked commit (several of them equal closed forms, computed here
with ``math.comb``), the seeded search by its minimum, by equal witnesses
at ``--jobs 1`` and ``--jobs 2``, and by a reference closure written
here rather than ``bootperc.engine``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
PYTHON = sys.executable
JOB_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

RUN_DEADLINE_S = 150  # no job starts later than this into the run
JOB_TIMEOUT_S = 60
SETUP_SAMPLES_PER_PASS = 3
# traced wall = setup_s + sum of self times + remainder.  The remainder
# holds installing the wrappers, writing the spans, interpreter teardown
# and the noise of setup_s; its size must stay within
# REMAINDER_TOLERANCE_S + REMAINDER_SHARE * traced wall.
REMAINDER_TOLERANCE_S = 0.1
REMAINDER_SHARE = 0.25
# reference_loop() takes this long at the host speed times are scaled to,
# about its fastest on the tuning machine
REFERENCE_LOOP_S = 0.02
REFERENCE_SAMPLES = 3

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# name -> (unit, which end-to-end metric it should move on which workload,
# and a workload where the layer does little)
LAYER_METRICS = {
    "graphs.build_s": ("s", "wall_s on verify; flat on dimw and search"),
    "graphs.edges_built": ("count", "wall_s on verify; flat on dimw and search"),
    "graphs.edges_per_s": ("1/s", "wall_s on verify; flat on dimw and search"),
    "graphs.rss_per_edge_b": ("B", "peak_rss_mb on verify; flat on dimw and search"),
    "constructions.seed_s": ("s", "wall_s on verify, under 2% of it; 0 on dimw and search"),
    "constructions.seed_elements": ("count", "invariant; wall_s on verify; 0 on dimw"),
    "engine.vertex_s": ("s", "wall_s on verify; 0 on dimw"),
    "engine.star_s": ("s", "wall_s on verify; 0 on dimw"),
    "engine.line_s": ("s", "wall_s on verify; 0 on dimw"),
    "engine.activated": ("count", "invariant; wall_s on verify; 0 on dimw"),
    "engine.rounds": ("count", "invariant; wall_s on verify; 0 on dimw"),
    "engine.activations_per_s": ("1/s", "wall_s on verify; 0 on dimw"),
    "engine.calls": ("count", "wall_s and cpu_s on search; 3 calls on verify"),
    "engine.call_us": ("us", "wall_s and cpu_s on search; 3 large calls on verify"),
    "oracle.self_s": ("s", "wall_s and cpu_s on search; 0 on verify"),
    "oracle.engine_calls": ("count", "wall_s and cpu_s on search; 0 on verify"),
    "oracle.useful_ratio": ("ratio", "wall_s and cpu_s on search (calls at --jobs 1 "
                                     "over calls at --jobs 2); 0 on verify"),
    "polymethod.coloring_s": ("s", "wall_s on dimw; 0 on verify"),
    "polymethod.self_s": ("s", "wall_s on dimw; 0 on verify"),
    "polymethod.matrix_cells": ("count", "wall_s on dimw; 0 on verify"),
    "linalg.self_s": ("s", "wall_s on dimw; 0 on verify"),
    "linalg.calls": ("count", "wall_s on dimw; 0 on verify"),
    # includes freeing the built graph when a command returns: ~0.36 s
    # for verify's 1.2M-edge Hamming graph
    "cli.self_s": ("s", "wall_s on all three; parsing and formatting are negligible"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall_s"),
    "trace.remainder_s": ("s", "none: traced wall not covered by setup_s or spans"),
}

# ---------------------------------------------------------------------------
# workloads

@dataclass
class Job:
    name: str
    args: list[str]  # after "python -m bootperc", or ["-c", snippet]
    check: Callable[[str], str | None]  # stdout -> error message or None

    @property
    def is_cli(self) -> bool:
        return self.args[0] != "-c"


def exact(expected: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        return None if out == expected else f"expected {expected!r}, got {out!r}"

    return check


def search_result(minimum: int, witness: list) -> Callable[[str], str | None]:
    """Check minimum and witness; engine_calls is a per-layer count, not checked."""

    def check(out: str) -> str | None:
        got = json.loads(out)
        if (got["minimum"], got["witness"]) != (minimum, witness):
            return f"expected minimum {minimum} witness {witness}, got {out.strip()}"
        return None

    return check


def verify_jobs(seed: int, tmp: Path) -> list[Job]:
    # Large one-shot graphs: graph build and the three engines' main loops.
    return [
        Job("carved-vertex", ["verify", "--family", "c", "--n", "9", "--r", "8", "--d", "5"],
            exact("PERCOLATES size=560\n")),
        # weak_saturation_hamming(n, r, d) = C(d+r, d+1)
        Job("star", ["verify", "--family", "star", "--n", "20", "--r", "19", "--d", "3"],
            exact(f"PERCOLATES size={comb(3 + 19, 3 + 1)}\n")),
        # min_seed_line_complete(n, r) = floor((r+2)^2 / 8)
        Job("line", ["verify", "--family", "line", "--n", "200", "--r", "100"],
            exact(f"PERCOLATES size={(100 + 2) ** 2 // 8}\n")),
    ]


def dimw_jobs(seed: int, tmp: Path) -> list[Job]:
    # Exact elimination on Fractions plus building the constraints; tiny graphs.
    return [
        Job("Kn16", ["dimw", "Kn:16", "--r", "5", "--details"], exact(
            '{"dim": 15, "constraint_rows": 120, "constraint_cols": 80, "kernel_dim": 15}\n')),
        Job("H33", ["dimw", "Hamming:3,3", "--r", "2", "--details"], exact(
            '{"dim": 3, "constraint_rows": 81, "constraint_cols": 54, "kernel_dim": 3}\n')),
        Job("H42", ["dimw", "Hamming:4,2", "--r", "3", "--details"], exact(
            '{"dim": 6, "constraint_rows": 48, "constraint_cols": 48, "kernel_dim": 6}\n')),
        # the only route into lift_coloring; C(d+r, d+1) for n >= r+1
        Job("lifted-542", ["-c", "from bootperc.polymethod import recognized_space_dim_hamming"
                                 " as f; print(f(5, 4, 2))"],
            exact(f"{comb(2 + 4, 2 + 1)}\n")),
    ]


def hamming_edges(n: int, d: int) -> list[tuple[int, int]]:
    """Edges of H(n, d) with x_1 the most significant base-n digit."""
    edges = []
    for u in range(n**d):
        stride = 1
        for _ in range(d):
            digit = (u // stride) % n
            for y in range(digit + 1, n):
                edges.append((u, u + (y - digit) * stride))
            stride *= n
    return edges


def percolates(vertex_count: int, edges, r: int, seed) -> bool:
    """Reference r-neighbour closure, independent of bootperc.engine."""
    adjacency: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    active = set(seed)
    count = [0] * vertex_count
    queue = list(active)
    while queue:
        for w in adjacency[queue.pop()]:
            count[w] += 1
            if count[w] == r and w not in active:
                active.add(w)
                queue.append(w)
    return len(active) == vertex_count


def search_jobs(seed: int, tmp: Path) -> list[Job]:
    # ~340k tiny engine calls: per-call overhead, not graph size; covers --jobs.
    n, d, r = 5, 2, 4
    perm = list(range(n**d))
    random.Random(seed).shuffle(perm)
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in hamming_edges(n, d))
    graph = tmp / f"hamming-{n}-{d}-seed{seed}.txt"
    graph.write_text(f"p {n**d} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    witnesses: list[list[int]] = []

    def seeded(out: str) -> str | None:
        got = json.loads(out)
        witness = got["witness"]
        if got["minimum"] != (r + 1) ** 2 // 4:  # min_seed_hamming_dim2(n, r)
            return f"minimum {got['minimum']} != {(r + 1) ** 2 // 4}"
        if not all(type(v) is int and 0 <= v < n**d for v in witness):
            return f"witness {witness} is not a list of vertices 0..{n**d - 1}"
        if len(set(witness)) != got["minimum"] or not percolates(n**d, edges, r, witness):
            return f"witness {witness} does not percolate"
        witnesses.append(witness)
        if witness != witnesses[0]:
            return f"witness {witness} differs from the earlier {witnesses[0]}"
        return None

    vertex = ["search", str(graph), "--r", str(r), "--process", "vertex"]
    return [
        Job("seeded-jobs1", vertex + ["--jobs", "1"], seeded),
        Job("seeded-jobs2", vertex + ["--jobs", "2"], seeded),
        Job("H32-star", ["search", "Hamming:3,2", "--r", "3", "--process", "star"],
            search_result(10, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 4], [2, 5], [3, 4],
                               [3, 5], [4, 5], [6, 7]])),
        Job("K6-star", ["search", "Kn:6", "--r", "4", "--process", "star"],
            search_result(10, [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4],
                               [2, 3], [2, 4], [3, 4]])),
        Job("K6-line", ["search", "Kn:6", "--r", "4", "--process", "line"],
            search_result(4, [[0, 1], [0, 2], [1, 3], [2, 4]])),
        Job("LineK6-vertex", ["search", "LineK:6", "--r", "6", "--process", "vertex"],
            search_result(8, [0, 1, 2, 3, 5, 6, 11, 14])),
    ]


WORKLOADS = {"verify": verify_jobs, "dimw": dimw_jobs, "search": search_jobs}


# ---------------------------------------------------------------------------
# running jobs

@dataclass
class Run:
    wall: float
    cpu: float
    stdout: str
    error: str | None
    rss_mb: float = 0.0  # peak over the job's processes, from job.py
    totals: dict = field(default_factory=dict)  # span sums of a traced run (traced.py)
    scale: float = 1.0  # to reference host speed; see reference_loop


def reference_loop() -> float:
    """Seconds for a fixed pure-interpreter loop: the host's current speed."""
    times = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return min(times)


def spawn(argv: list[str], tmp: Path, timeout: float) -> Run:
    """Run argv to exit; wall and wait4 rusage of it and its waited-for children."""
    if timeout <= 0:
        return Run(0.0, 0.0, "", "not started: run deadline passed")
    with open(tmp / "stdout", "w+") as out, open(tmp / "stderr", "w+") as err:
        start = time.perf_counter()
        # own process group, so a timeout also stops the job's pool workers
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=JOB_ENV, cwd=ROOT, start_new_session=True
        )
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    error = None
    if proc.returncode == -signal.SIGKILL:
        error = f"killed after the {timeout:.0f} s timeout"
    elif proc.returncode != 0:
        error = f"exit {proc.returncode}: {stderr.strip()[-300:]}"
    return Run(wall, usage.ru_utime + usage.ru_stime, stdout, error)


def run_job(job: Job, tmp: Path, deadline: float, traced: bool = False) -> Run:
    timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
    out = tmp / "job"
    mode = ["--cli", *job.args] if job.is_cli else ["--code", job.args[1]]
    trace = ["--trace"] if traced else []
    run = spawn([PYTHON, str(BENCH / "job.py"), str(out), *trace, *mode], tmp, timeout)
    peaks = [int(path.read_text()) for path in tmp.glob("job.rss*")]
    if run.error is None and not peaks:
        run.error = "job.py recorded no peak memory"
    if run.error is None:
        run.rss_mb = max(peaks) / 1024
        if traced:
            # the 10^5 spans of a search job are summed in another process,
            # so that this one stays small
            totals = subprocess.run(
                [PYTHON, str(BENCH / "traced.py"), f"{out}.spans"],
                env=JOB_ENV, capture_output=True, text=True, check=True, timeout=JOB_TIMEOUT_S,
            )
            run.totals = json.loads(totals.stdout)
    for path in tmp.glob("job.*"):
        path.unlink()
    if run.error is None:
        try:
            run.error = job.check(run.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            run.error = f"unreadable output {run.stdout!r}: {exc!r}"
    return run


def measure_setup(tmp: Path, deadline: float) -> Run:
    run = spawn([PYTHON, "-c", "import bootperc.cli"], tmp, deadline - time.perf_counter())
    if run.error is not None:
        raise SystemExit(f"set-up failed: {run.error}")
    return run


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def layer_metrics(jobs: list[Job], plain: list[Run], traced: list[Run], setup_s: float) -> dict:
    """Per-layer metrics of one pass: untraced runs ``plain``, traced runs ``traced``."""
    m: dict[str, float] = defaultdict(float)
    largest = (0.0, 0.0)  # (edges of the largest graph built, that job's untraced peak RSS)
    calls_by_job = {}
    for job, base, run in zip(jobs, plain, traced):
        for name, value in run.totals.items():
            m[name] += value
        largest = max(largest, (run.totals.get("largest_graph", 0), base.rss_mb))
        m["trace.remainder_s"] += remainder(run, setup_s)
        m["trace.overhead_s"] += run.wall - base.wall
        if base.error is None and base.stdout.startswith("{"):
            out = json.loads(base.stdout)
            m["oracle.engine_calls"] += out.get("engine_calls", 0)
            m["polymethod.matrix_cells"] += out.get("constraint_rows", 0) * out.get(
                "constraint_cols", 0
            )
            calls_by_job[job.name] = out.get("engine_calls", 0)
    engine_s = m["engine.vertex_s"] + m["engine.star_s"] + m["engine.line_s"]
    out = {
        "graphs.build_s": m["graphs.self_s"],
        "graphs.edges_built": m["graphs.edges_built"],
        "graphs.edges_per_s": ratio(m["graphs.edges_built"], m["graphs.self_s"]),
        "graphs.rss_per_edge_b": ratio(largest[1] * 2**20, largest[0]),
        "constructions.seed_s": m["constructions.self_s"],
        "constructions.seed_elements": m["constructions.seed_elements"],
        "engine.vertex_s": m["engine.vertex_s"],
        "engine.star_s": m["engine.star_s"],
        "engine.line_s": m["engine.line_s"],
        "engine.activated": m["engine.activated"],
        "engine.rounds": m["engine.rounds"],
        "engine.activations_per_s": ratio(m["engine.activated"], engine_s),
        "engine.calls": m["engine.calls"],
        "engine.call_us": ratio(engine_s * 1e6, m["engine.calls"]),
        "oracle.self_s": m["oracle.self_s"],
        "oracle.engine_calls": m["oracle.engine_calls"],
        "oracle.useful_ratio": ratio(
            calls_by_job.get("seeded-jobs1", 0), calls_by_job.get("seeded-jobs2", 0)
        ),
        "polymethod.coloring_s": m["polymethod.coloring_s"],
        "polymethod.self_s": m["polymethod.self_s"],
        "polymethod.matrix_cells": m["polymethod.matrix_cells"],
        "linalg.self_s": m["linalg.self_s"],
        "linalg.calls": m["linalg.calls"],
        "cli.self_s": m["cli.self_s"],
        "trace.overhead_s": m["trace.overhead_s"],
        "trace.remainder_s": m["trace.remainder_s"],
    }
    assert out.keys() == LAYER_METRICS.keys()
    return out


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def remainder(run: Run, setup_s: float) -> float:
    """Traced wall time not covered by set-up or by the main process's spans."""
    return run.wall - setup_s - run.totals.get("covered_s", 0.0)


# ---------------------------------------------------------------------------
# environment and output

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def bench_sha256() -> str:
    """Hash of the benchmark's own sources, which git_sha does not cover
    while they are uncommitted."""
    digest = hashlib.sha256()
    for path in sorted(BENCH.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check_runs(jobs: list[Job], passes: list, setup_s: float) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every run, with the tracer self-test."""
    attempted = failed = 0
    messages = []
    for i, (plain, traced) in enumerate(passes):
        for kind, runs in (("untraced", plain), ("traced", traced)):
            for job, run in zip(jobs, runs):
                attempted += 1
                if run.error is not None:
                    failed += 1
                    messages.append(f"pass {i} {kind} {job.name}: {run.error}")
        for job, base, run in zip(jobs, plain, traced):
            if run.error is not None or base.error is not None:
                continue
            limit = REMAINDER_TOLERANCE_S + REMAINDER_SHARE * run.wall
            if run.stdout != base.stdout:
                failed += 1
                messages.append(f"pass {i} {job.name}: traced stdout differs from untraced")
            elif abs(remainder(run, setup_s)) > limit:
                failed += 1
                messages.append(
                    f"pass {i} {job.name}: remainder {remainder(run, setup_s):.3f} s "
                    f"exceeds {limit:.3f} s (traced wall {run.wall:.3f} s)"
                )
    return attempted, failed, messages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bootperc" / "cli.py").is_file():
        print(f"bootperc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    load_before = os.getloadavg()[0]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmpdir:
        tmp = Path(tmpdir)
        jobs = WORKLOADS[args.workload](args.seed, tmp)
        measure_setup(tmp, deadline)  # warm-up: writes the bytecode caches
        loops = [reference_loop()]

        def scaled(run: Run) -> Run:
            loops.append(reference_loop())
            run.scale = REFERENCE_LOOP_S / ((loops[-2] + loops[-1]) / 2)
            return run

        setups: list[Run] = []
        passes: list[tuple[list[Run], list[Run]]] = []
        measure_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            setups += [
                scaled(measure_setup(tmp, deadline)) for _ in range(SETUP_SAMPLES_PER_PASS)
            ]
            plain, traced = [], []
            for job in jobs:
                plain.append(scaled(run_job(job, tmp, deadline)))
                if args.trace:
                    traced.append(scaled(run_job(job, tmp, deadline, traced=True)))
            passes.append((plain, traced))
            now = time.perf_counter()
            last = now - pass_start
            if now - measure_start + last > args.seconds or now + last > deadline:
                break
    load_after = os.getloadavg()[0]
    setup_s = statistics.median(run.wall for run in setups)
    attempted, failed, messages = check_runs(jobs, passes, setup_s)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "bench_sha256": bench_sha256(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": load_after,
        "passes": len(passes),
        "jobs": [job.name for job in jobs],
        "run_s": round(time.perf_counter() - started, 3),
        "reference_loop_s": statistics.median(loops),
    }
    print("env " + json.dumps(env))
    for line in messages:
        print("FAIL " + line)

    per_job = {}
    for i, job in enumerate(jobs):
        runs = [plain[i] for plain, _ in passes]
        per_job[job.name] = {
            "wall_s": statistics.median(run.wall for run in runs),
            "scaled_wall_s": statistics.median(run.wall * run.scale for run in runs),
            "cpu_s": statistics.median(run.cpu for run in runs),
            "peak_rss_mb": max(run.rss_mb for run in runs),
        }
        if args.trace:
            per_job[job.name]["traced_wall_s"] = statistics.median(t[i].wall for _, t in passes)
            per_job[job.name]["remainder_s"] = statistics.median(
                remainder(t[i], setup_s) for _, t in passes
            )
    print("jobs " + json.dumps(per_job))

    per_pass: dict[str, list[float]] = defaultdict(list)
    for plain, traced in passes:
        if args.trace:
            for name, value in layer_metrics(jobs, plain, traced, setup_s).items():
                per_pass[name].append(value)
        else:
            per_pass["wall_s"].append(sum(run.wall * run.scale for run in plain))
            per_pass["cpu_s"].append(sum(run.cpu * run.scale for run in plain))
            per_pass["peak_rss_mb"].append(max(run.rss_mb for run in plain))
            per_pass["wall_s_unscaled"].append(sum(run.wall for run in plain))
            per_pass["cpu_s_unscaled"].append(sum(run.cpu for run in plain))
    if not args.trace:
        per_pass["setup_s"] = [run.wall * run.scale for run in setups]
        per_pass["setup_s_unscaled"] = [run.wall for run in setups]
        for name in ("wall_s_unscaled", "cpu_s_unscaled", "setup_s_unscaled"):
            q1, median, q3 = quartiles(per_pass[name])
            print(f"{name:28s} {median:16.6f} s      q1 {q1:.6f} q3 {q3:.6f}")
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()} if args.trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        q1, median, q3 = quartiles(per_pass[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name:28s} {median:16.6f} {unit:6s} q1 {q1:.6f} q3 {q3:.6f} "
              f"n={len(per_pass[name])}")
    print(f"{'fail_ratio':28s} {failed / attempted:16.6f} ratio ({failed} of {attempted} jobs)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

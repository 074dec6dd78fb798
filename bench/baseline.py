"""Run the benchmark on several seeds per workload and summarise the spread.

Usage (from the repository root):
    python3 bench/baseline.py [--first-seed 0] [--out bench/baseline.json]

Each of RUNS runs per workload is ``run.py --workload W --seed S
--seconds <run_seconds of BENCHMARK.json>``, with seeds counting up from
``--first-seed``.  For every end-to-end metric the summary gives the
median over runs, the quartiles (``statistics.quantiles(n=4)``) and the
quartile spread as a share of the median, next to the metric's bound.
TRACE_RUNS traced runs per workload add a per-layer breakdown.
``--out`` stores the summary as JSON; bench/baseline.json is the record
a later change compares against.  Its hand-written ``notes`` are kept
when the file is rewritten.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import LAYER_METRICS  # noqa: E402

RUNS = 10
TRACE_RUNS = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """(env, per-job medians, result) parsed from one run's stdout."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    jobs = json.loads(next(ln for ln in lines if ln.startswith("jobs "))[5:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stdout}")
    return env, jobs, result


def summary(values: list[float], bound: float | None = None) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    if bound is not None:
        out["bound"] = bound
    out["values"] = values
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + RUNS)

    record: dict = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for workload in workloads:
        envs, job_runs, values = [], [], {name: [] for name in bounds}
        for seed in seeds:
            env, jobs, result = run_once(workload, seed, spec["run_seconds"], 0)
            envs.append(env)
            job_runs.append(jobs)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {
            "env": {
                "python": envs[0]["python"],
                "nproc": envs[0]["nproc"],
                "git_sha": envs[0]["git_sha"],
                "bench_sha256": envs[0]["bench_sha256"],
                "passes_per_run": [e["passes"] for e in envs],
                "reference_loop_s": [e["reference_loop_s"] for e in envs],
                "loadavg_1m": [[e["loadavg_1m_before"], e["loadavg_1m_after"]] for e in envs],
            },
            "end_to_end": {name: summary(v, bounds[name]) for name, v in values.items()},
            "job_medians": {
                job: {
                    metric: statistics.median(run[job][metric] for run in job_runs)
                    for metric in job_runs[0][job]
                }
                for job in job_runs[0]
            },
        }
        traced = [run_once(workload, seed, spec["run_seconds"], 1) for seed in seeds[:TRACE_RUNS]]
        if traced:
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for _, _, r in traced)
                for name in LAYER_METRICS
            }
            entry["traced_jobs"] = traced[0][1]
        record["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload:7s} {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:6.2%}  bound {s['bound']:.0%}{flag}",
                  flush=True)
    if args.out:
        record["per_layer_moves"] = {name: moves for name, (_, moves) in LAYER_METRICS.items()}
        if args.out.is_file():
            record["notes"] = json.loads(args.out.read_text()).get("notes", [])
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

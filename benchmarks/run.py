"""Benchmark of the poolreg command line: one workload per invocation.

    python3 benchmarks/run.py --workload fit-large --seed 1 --seconds 50 --trace 0

Run from the repository root. The program is taken from ``src/`` there.

``--trace 0`` times the workload's ``poolreg`` commands as a user runs
them, in fresh processes, repeating whole rounds while the next one is
expected to end within ``--seconds``, and reports the end-to-end metrics
(medians over rounds). ``--trace 1`` runs the same commands in-process
with ``jobs = 1`` (``inprocess.py``), in one fresh interpreter plain and in
another with spans around the calls into each module, and reports the
per-layer metrics. Either way the
outputs are checked against ``reference.py``, a result file is written
under ``.bench_out/``, and the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import environment
import tracing
from workloads import WORKLOADS

SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def declared_metrics(root: Path, trace: int) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def program_env(src: Path) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


def run_process(argv: list[str], env: dict, log: Path) -> dict:
    """One child process: wall time, CPU of it and its reaped workers, peak RSS."""
    start = time.perf_counter()
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv[:5])} ... exited with {proc.returncode}; "
                 f"see {log}:\n{log.read_text(encoding='utf-8')[-2000:]}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def run_round(workload, out: Path, env: dict) -> dict:
    out.mkdir(parents=True)
    calls = [run_process([sys.executable, "-m", "poolreg.cli", *argv], env,
                         out / f"command{i}.log")
             for i, argv in enumerate(workload.commands(out))]
    totals = {key: sum(c[key] for c in calls)
              for key in ("wall_s", "cpu_s", "sys_s", "minor_faults")}
    return {**totals, "peak_rss_mb": max(c["peak_rss_mb"] for c in calls)}


def outputs_differ(first: Path, other: Path) -> list[str]:
    """Result files of two runs of the same commands that are not byte-identical."""
    names = sorted(p.relative_to(first) for p in first.rglob("*.csv"))
    theirs = sorted(p.relative_to(other) for p in other.rglob("*.csv"))
    if names != theirs:
        return ["the set of output files"]
    return [str(n) for n in names if not filecmp.cmp(first / n, other / n, shallow=False)]


def measure_untraced(workload, seconds: int, out: Path, src: Path) -> tuple[dict, int, dict]:
    env = program_env(src)
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", workload.setup_snippet()], env=env, check=True)
        setup.append(time.perf_counter() - start)

    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, out / f"round{len(rounds)}", env))
        expected = statistics.median(r["wall_s"] for r in rounds)
        if time.perf_counter() - start + expected > seconds:
            break
    for k in range(1, len(rounds)):
        differ = outputs_differ(out / "round0", out / f"round{k}")
        workload.expect(not differ, f"round {k} outputs differ from round 0: {differ}")
        shutil.rmtree(out / f"round{k}")

    metrics = {"setup_s": statistics.median(setup)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = statistics.median(r[key] for r in rounds)
    return metrics, len(rounds), {"setup_s_samples": setup, "rounds": rounds}


def run_pass(workload, out: Path, src: Path, traced: bool) -> dict:
    """One in-process pass of the workload's commands, in a fresh interpreter."""
    out.mkdir(parents=True)
    argv = [sys.executable, str(Path(__file__).with_name("inprocess.py")), workload.name,
            str(workload.seed), str(workload.work), str(out), str(int(traced))]
    if subprocess.run(argv, env=program_env(src)).returncode != 0:
        sys.exit(f"the {'traced' if traced else 'plain'} in-process pass failed")
    record = json.loads((out / "pass.json").read_text(encoding="utf-8"))
    (out / "pass.json").unlink()
    return record


def measure_traced(workload, out: Path, src: Path) -> tuple[dict, list, dict]:
    plain = run_pass(workload, out / "untraced", src, traced=False)
    traced = run_pass(workload, out / "round0", src, traced=True)
    differ = outputs_differ(out / "untraced", out / "round0")
    workload.expect(not differ, f"traced outputs differ from untraced ones: {differ}")
    shutil.rmtree(out / "untraced")
    workload.expect(not traced["missing"], f"wrapped names not found: {traced['missing']}")
    spans = traced["spans"]
    counting = sum(s["cover_end"] - s["end"] for s in spans)
    details = {
        **{f"{side}_{key}": record[key] for side, record in (("untraced", plain),
                                                             ("traced", traced))
           for key in ("wall_s", "sys_s", "minor_faults")},
        "tracer_counting_s": counting, "missing_wrappers": traced["missing"],
    }
    return tracing.layer_metrics(spans, traced["wall_s"] - plain["wall_s"]), spans, details


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "poolreg" / "cli.py").is_file():
        sys.exit(f"no program source at {src / 'poolreg'}; run from the repository root")
    units = declared_metrics(root, args.trace)

    out = root / ".bench_out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    work = out / "inputs"
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    workload.prepare()

    if args.trace:
        metrics, spans, details = measure_traced(workload, out, src)
        rounds = 1
        (out / "spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    else:
        metrics, rounds, details = measure_untraced(workload, args.seconds, out, src)
    checks = workload.check(out / "round0")
    if "rmse_true" in units:
        metrics["rmse_true"] = checks["rmse_true"]

    missing = sorted(set(units) - set(metrics))
    if missing:
        sys.exit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": not workload.problems,
        "attempted": checks["attempted"] * rounds,
        "failed": checks["failed"] * rounds,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {**result, "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "rounds": rounds, "problems": workload.problems,
              "checks": checks, "margins_in_tolerances": workload.margins,
              "details": details,
              "environment": environment.record(root, workload.seeds())}
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, entry in result["metrics"].items():
        print(f"{args.workload:20s} {name:32s} {entry['value']:14.6g} {entry['unit']}")
    print(f"{args.workload:20s} attempted {result['attempted']}, failed {result['failed']}, "
          f"rounds {rounds}")
    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"result file: {out / 'result.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

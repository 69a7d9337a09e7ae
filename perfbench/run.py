"""pentamod benchmark: one workload (or both) with output checks.

Run from the root of a pentamod checkout:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1                # both workloads, 50 s each

Set-up time is taken from fresh interpreters that import pentamod from ./src
and build the division geometry.  The workload itself runs in a child
process (perfbench/workload.py) with BLAS fixed to one thread.  Every
metric is printed by name and unit; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).  The
full result, with machine facts, goes to .perfbench/BENCH_<workload>_s<seed>_t<trace>.json,
and with --trace 1 the spans to .perfbench/spans_<workload>_s<seed>.jsonl.
The exit code is 1 when an output check failed and 2 when the checkout is
incomplete.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("batch", "interactive")
REQUIRED = ["src/pentamod/__init__.py"] + [f"tests/golden/moduli{n}.svg" for n in (3, 4, 5)]

BLAS_THREADS = 1
SETUP_RUNS = 3      # before the workload, and as many again after it
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import pentamod; "
              "from pentamod import moduli; [moduli.division(n) for n in (3, 4, 5)]")
DEADLINE_S = 150.0   # per workload child; set-up timing after it needs the rest of 180 s

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "points_per_s": "1/s"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _importtime(stderr: str) -> tuple[float, float]:
    """(pentamod cumulative, scipy self total) seconds from -X importtime."""
    pentamod_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = (part.strip() for part in line[12:].split("|"))
        if not own.isdigit():
            continue
        if name == "pentamod":
            pentamod_us = int(cumulative)
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(own)
    return pentamod_us / 1e6, scipy_us / 1e6


def time_setup(traced: bool, runs: int) -> list[tuple[float, str]]:
    """(wall seconds, stderr) of fresh interpreters paying pentamod's set-up."""
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + ["-c", SETUP_CODE]
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
        out.append((wall, proc.stderr))
    return out


def summarize_setup(runs: list[tuple[float, str]], traced: bool) -> dict:
    walls = [wall for wall, _ in runs]
    out = {"setup_s": statistics.median(walls), "setup_runs": walls}
    if traced:
        parsed = [_importtime(stderr) for _, stderr in runs]
        out["setup.import_s"] = statistics.median(p[0] for p in parsed)
        out["setup.scipy_import_s"] = statistics.median(p[1] for p in parsed)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans_{name}_s{seed}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(budget, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pentamod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "blas_threads": BLAS_THREADS, "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def report(name: str, seed: int, seconds: float, trace: int, setup: dict, child: dict,
           facts: dict) -> dict:
    """Metrics of one workload run, printed and written to .perfbench/."""
    e2e = child["end_to_end"]
    metrics = {"setup_s": setup["setup_s"], "peak_rss_mb": child["peak_rss_mb"],
               "points_per_s": e2e["points_per_s"]}
    print(f"[{name}] seed={seed} rounds={e2e['rounds']} calls={e2e['calls']} "
          f"checks={child['attempted']} failed={child['failed']}")
    for key, value in metrics.items():
        print(f"[{name}] {key:<14} {value:>16.6g} {E2E_UNITS[key]}")
    for part, value in e2e["part_points_per_s"].items():
        print(f"[{name}]   {part} part   {value:>16.6g} 1/s")
    for key, value in child["info"].items():
        print(f"[{name}] {key}: {value}")
    for problem in child["problems"]:
        print(f"[{name}] CHECK FAILED: {problem}")
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": {**facts, "numpy": child["versions"]["numpy"],
                          "scipy": child["versions"]["scipy"]},
              "correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "problems": child["problems"],
              "info": child["info"], "setup": setup,
              "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
              "end_to_end_detail": e2e}
    if trace:
        layers = {**child["per_layer"], "setup.import_s": setup["setup.import_s"],
                  "setup.scipy_import_s": setup["setup.scipy_import_s"]}
        result["per_layer"] = {k: {"value": layers[k], "unit": unit}
                               for k, unit in child["per_layer_units"].items()}
        result["traced_end_to_end"] = child["traced_end_to_end"]
        for key, value in result["per_layer"].items():
            print(f"[{name}] {key:<36} {value['value']:>16.6g} {value['unit']}")
    (OUT / f"BENCH_{name}_s{seed}_t{trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pentamod benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a pentamod checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    traced = bool(args.trace)
    time_setup(traced, 1)       # writes the bytecode caches; not counted
    # set-up is timed before and after the workload, so one slow stretch of
    # a shared machine does not decide the median
    setup_runs = time_setup(traced, SETUP_RUNS)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    children = []
    for name in names:
        budget = DEADLINE_S * len(names) - (time.perf_counter() - start)
        children.append(run_workload(name, args.seed, args.seconds, args.trace, budget))
    setup = summarize_setup(setup_runs + time_setup(traced, SETUP_RUNS), traced)
    results = [report(name, args.seed, args.seconds, args.trace, setup, child, facts)
               for name, child in zip(names, children)]

    key = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][key]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r[key].items()}
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""reflectix benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload wire --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
src/. Each workload runs in a fresh interpreter that sets up and then
runs the workload's operations in complete passes for the given
seconds; between passes it starts further interpreters that only set
up, for the set-up time. Single process, single thread, one
closed-loop client. Workload and metric names and units come from
BENCHMARK.json beside perfbench/.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. --workload all runs the four workloads one after another and
prefixes each metric with its workload. The exit code is 1 when any
output was wrong and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

DEADLINE_S = 170
OUT_DIR = ".bench_out"
# Workload and metric names and units are read from here, the one list.
SPEC_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")


class BenchError(Exception):
    pass


def run_workload(root, workload, seed, seconds, trace, deadline) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(here, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", os.path.join(root, OUT_DIR)]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["error_rate"] = res["failed"] / res["attempted"]
    res["ok_rate"] = 1.0 - res["error_rate"]
    return res


def report(workload: str, res: dict, spec: dict, trace: int) -> dict:
    """Print the human-readable report; return the metrics for the JSON."""
    print(f"== {workload}: {res['passes']} passes of {res['ops_per_pass']} operations,"
          f" {res['nodes_per_pass']} nodes per pass in successful operations")
    print(f"   error_rate {res['error_rate']:.4f} ratio "
          f"({res['failed']} of {res['attempted']} operations failed)")
    for kind, type_name, exc, count in res["failures"]:
        print(f"     failure: {kind} {type_name}: {exc} x{count}")
    print(f"   latency_tail_ms is p{res['tail_percentile']:.1f} of "
          f"{res['latency_samples']} operations; setup_s is the fastest "
          f"of {res['setup_samples']} fresh interpreters spread over the run")
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": res[m["name"]], "unit": m["unit"]}
        for name, m in metrics.items():
            print(f"   {name} {m['value']:.6g} {m['unit']}")
        return metrics
    layers = dict(res["layers"])
    layers["setup.import_s"] = res["import_s_best"]
    layers["trace.overhead_nodes_per_s"] = res["nodes_per_s"] - res["traced"]["nodes_per_s"]
    layers["outcome.error_rate"] = res["error_rate"]
    print(f"   traced: nodes_per_s {res['traced']['nodes_per_s']:.6g} against "
          f"{res['nodes_per_s']:.6g} untraced; {res['traced']['passes']} traced passes;"
          f" {res['spans_kept']} spans of the first traced pass in {res['spans_file']}")
    for kind, type_name, exc, count in res["traced_failures"]:
        print(f"     traced failure: {kind} {type_name}: {exc} x{count}")
    self_times = sorted(((v, k) for k, v in res["layers"].items()
                         if k.endswith(".self_s") and v > 0), reverse=True)
    for v, k in self_times:
        print(f"   self {k[:-7]:32s} {v:.6f} s per pass")
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"   {name} {m['value']:.6g} {m['unit']}")
    return metrics


def main() -> int:
    try:
        with open(SPEC_FILE, encoding="utf-8") as f:
            spec = json.load(f)
    except OSError as e:
        print(f"cannot read the metric list: {e}", file=sys.stderr)
        return 2
    workloads = tuple(w["name"] for w in spec["workloads"])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = perf_counter() + DEADLINE_S * (4 if args.workload == "all" else 1)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reflectix", "__init__.py")):
        print("run from the root of a reflectix checkout (no src/reflectix here)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    names = workloads if args.workload == "all" else (args.workload,)
    attempted = failed = wrong = 0
    metrics = {}
    try:
        for w in names:
            res = run_workload(root, w, args.seed, args.seconds, args.trace, deadline)
            attempted += res["attempted"]
            failed += res["failed"]
            wrong += res["wrong"]
            for k, v in report(w, res, spec, args.trace).items():
                metrics[k if len(names) == 1 else f"{w}.{k}"] = v
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

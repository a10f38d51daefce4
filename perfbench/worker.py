"""One fresh interpreter running one workload; prints a JSON result.

Started by run.py with src/ on the import path. Setup is the import of
every reflectix module the workloads use plus a warm-up call of every
operation kind; the corpus is generated in between and not counted.
Then the operation list is run in complete passes until the time is
used, each operation timed on its own and its outcome classified:

  ok        the expected value came back, or the expected error class
  wrong     a value came back that its check refuses (fails the run)
  failed    any other exception, or an error where a value was due

Between untraced passes it starts SETUP_PROBES more interpreters with
--setup-only, and reports the fastest of all the set-ups. With
--trace 1 the first half of the time runs untraced and the rest
traced, so the result carries both speeds and the per-layer totals.
"""

from __future__ import annotations

from time import perf_counter

# Timed first, before the benchmark's own imports, so that a standard
# module the library needs (argparse for cli, say) is counted as its cost.
T_START = perf_counter()
import reflectix  # noqa: E402
import reflectix.cli  # noqa: E402,F401
import reflectix.multiplate  # noqa: E402,F401

IMPORT_S = perf_counter() - T_START

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

MIN_PASSES = 3
MAX_SECONDS_FACTOR = 4
SETUP_PROBES = 12


def run_op(op):
    """(seconds, outcome, exception type name or None)."""
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as e:  # every outcome is classified, none stops the run
        dt = perf_counter() - t0
        if op.expect is not None and isinstance(e, op.expect):
            return dt, "ok", None
        return dt, "failed", type(e).__name__
    dt = perf_counter() - t0
    if op.expect is not None:
        return dt, "wrong", f"accepted (expected {op.expect.__name__})"
    return dt, ("ok" if op.check(result) else "wrong"), None


class Tally:
    """Outcomes across passes, and each operation's durations."""

    def __init__(self, ops):
        self.ops = ops
        self.durations = [[] for _ in ops]
        self.always_ok = [True] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = {}  # (kind, type, exception) -> count

    def run_pass(self, tracer=None):
        gc.collect()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                frame = tracer.open_op(i)
            dt, outcome, exc = run_op(op)
            if tracer is not None:
                tracer.close_op(frame, dt)
            self.durations[i].append(dt)
            self.attempted += 1
            if outcome != "ok":
                self.always_ok[i] = False
                self.failed += 1
                self.wrong += outcome == "wrong"
                key = (op.kind, op.type, exc or "wrong output")
                self.failures[key] = self.failures.get(key, 0) + 1

    def summary(self) -> dict:
        """Speed figures from each operation's fastest pass.

        On a shared machine the same call swings by up to 2x as
        neighbours come and go; its fastest time over many passes is
        the least disturbed estimate of its cost.
        """
        best = [min(d) for d in self.durations]
        good = sorted(m for m, ok in zip(best, self.always_ok) if ok)
        nodes = sum(op.nodes for op, ok in zip(self.ops, self.always_ok) if ok)
        n = len(good)
        if n > 10:
            tail, pct = good[n - 11], 100.0 * (n - 10) / n
        else:
            tail, pct = (good[-1] if good else 0.0), 100.0
        return {
            "nodes_per_s": nodes / sum(best),
            "latency_p50_ms": 1000 * statistics.median(good) if good else 0.0,
            "latency_tail_ms": 1000 * tail,
            "tail_percentile": pct,
            "latency_samples": n,
            "passes": len(self.durations[0]),
            "ops_per_pass": len(self.ops),
            "nodes_per_pass": nodes,
        }


def run_passes(tally, seconds, tracer=None, on_pass=None):
    start = perf_counter()
    passes = 0
    while True:
        tally.run_pass(tracer)
        passes += 1
        if on_pass is not None:
            on_pass(passes)
        elapsed = perf_counter() - start
        if elapsed >= seconds and passes >= MIN_PASSES:
            return
        if elapsed >= MAX_SECONDS_FACTOR * seconds:
            return


def warm_up(ops) -> float:
    """Run the smallest operation of each kind once; returns seconds."""
    first = {}
    for op in ops:
        if op.kind not in first or op.nodes < first[op.kind].nodes:
            first[op.kind] = op
    t0 = perf_counter()
    for op in first.values():
        run_op(op)
    return perf_counter() - t0


class SetupProbes:
    """Set-ups of fresh interpreters, started at even intervals.

    The set-up time is the fastest of them. On a shared machine slow
    spells last several seconds, so set-ups started back to back often
    all land in one; spread over the run, some land outside it.
    """

    def __init__(self, argv: list, count: int, seconds: float):
        self.argv = argv
        self.count = count
        self.interval = seconds / count
        self.start = perf_counter()
        self.samples = []  # (import_s, setup_s)

    def _probe(self):
        out = subprocess.run(self.argv, capture_output=True, text=True,
                             check=True, timeout=120)
        r = json.loads(out.stdout.strip().splitlines()[-1])
        self.samples.append((r["import_s"], r["import_s"] + r["warmup_s"]))

    def due(self, _passes=None):
        """Start every probe whose time has come."""
        while (len(self.samples) < self.count
               and len(self.samples) * self.interval <= perf_counter() - self.start):
            self._probe()

    def finish(self):
        while len(self.samples) < self.count:
            self._probe()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args()

    ops = workloads.build(args.workload, args.seed, args.out_dir)
    warmup_s = warm_up(ops)
    result = {"import_s": IMPORT_S, "warmup_s": warmup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    probes = SetupProbes(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--out-dir", args.out_dir, "--setup-only"],
        SETUP_PROBES, untraced_s)
    plain = Tally(ops)
    run_passes(plain, untraced_s, on_pass=probes.due)
    probes.finish()
    setups = probes.samples + [(IMPORT_S, IMPORT_S + warmup_s)]
    result["setup_s"] = min(s for _, s in setups)
    result["import_s_best"] = min(i for i, _ in setups)
    result["setup_samples"] = len(setups)
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer(keep_limit=200_000)
        tracer.install()
        tracer.active = True
        traced = Tally(ops)
        per_pass = []

        def on_pass(n):
            per_pass.append(tracer.pass_totals())
            tracer.reset_pass()
            tracer.keep = False

        tracer.keep = True
        run_passes(traced, args.seconds / 2, tracer, on_pass)
        tracer.active = False
        layers = dict(per_pass[0])  # counts: the first traced pass
        for key in layers:
            if key.endswith(".self_s"):
                layers[key] = min(p[key] for p in per_pass)
            elif key == "trace.uncovered_share":
                layers[key] = statistics.median(p[key] for p in per_pass)
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}.tsv")
        tracer.write_spans(spans_path)
        result["traced"] = traced.summary()
        result["traced_failures"] = [list(k) + [v] for k, v in traced.failures.items()]
        result["layers"] = layers
        result["spans_file"] = spans_path
        result["spans_kept"] = tracer.kept

    result.update(plain.summary())
    result["attempted"] = plain.attempted
    result["failed"] = plain.failed
    result["wrong"] = plain.wrong
    result["failures"] = [list(k) + [v] for k, v in sorted(plain.failures.items())]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

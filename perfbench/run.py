#!/usr/bin/env python3
"""Benchmark of the ValueCheck analyzer: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the harness
(perfbench/vc_perfbench.cc) and the analyzer's libraries from source into
.bench_build/ (or $CARGO_TARGET_DIR). Each run then

  1. generates the workload's inputs from the seed,
  2. runs as many fresh jobs=4 harness processes as --seconds buys and takes
     each item's (app's, commit's) fastest time over them,
  3. checks every output against an answer the analyzer did not compute, and
  4. prints the metrics, then one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics; --trace 1 makes one untraced
jobs=4, one untraced jobs=1 and one traced jobs=4 process and reports the
per-layer metrics. See perfbench/README.md for the workloads, the metrics
and the steadiness rules.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("linux-large", "paper-apps", "mysql-commits")
CHECKERS = ("unused-def", "double-overwrite", "dead-global-store", "out-param-unused",
            "stale-copy")
# A --trace 0 run makes one jobs=4 process per PROCESS_SECONDS of --seconds
# (about what one takes on a 4-vCPU host), and at least MIN_PROCESSES. The
# count follows from --seconds alone, never from how fast the host happens
# to be, because the fastest of K samples depends on K.
PROCESS_SECONDS = {"linux-large": 8, "paper-apps": 5, "mysql-commits": 14}
MIN_PROCESSES = {"linux-large": 2, "paper-apps": 3, "mysql-commits": 2}
REPLAY_WINDOW = {"large": 100, "small": 20}
PROCESS_TIMEOUT = 170


class BenchError(Exception):
    """A failure that leaves no result to report."""


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(log):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("the analyzer sources (src/) are not in this checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "vc_perfbench", "-j", "4"])
    with open(os.path.join(out, "build.log"), "a") as build_log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=build_log, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed; see %s" % build_log.name)
    log("built %s" % os.path.relpath(os.path.join(out, "vc_perfbench"), ROOT))
    return os.path.join(out, "vc_perfbench")


def harness(binary, *args):
    """Runs one harness process and returns its JSON result line."""
    proc = subprocess.run([binary] + [str(a) for a in args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("vc_perfbench %s exited %d: %s" % (args[0], proc.returncode,
                                                             proc.stderr.strip()[-400:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(path):
    with open(path, "rb") as f:
        data = f.read()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n") - 1


class Workload:
    """Runs one workload's processes and checks what they print."""

    def __init__(self, name, binary, work, scale, plant):
        self.name = name
        self.binary = binary
        self.work = work
        self.scale = scale
        self.plant = plant
        self.inputs = os.path.join(work, "inputs")
        self.count = 0
        self.notes = []

    def generate(self, seed):
        return harness(self.binary, "gen", self.name, "--seed", seed, "--scale", self.scale,
                       "--out", self.inputs)

    def process(self, jobs, trace=False):
        """One fresh harness process; returns its result plus the CSV digest."""
        self.count += 1
        csv = os.path.join(self.work, "out-%d.csv" % self.count)
        args = ["--in", self.inputs, "--jobs", jobs, "--csv", csv]
        if self.name == "mysql-commits":
            args = ["replay"] + args + ["--window", REPLAY_WINDOW[self.scale]]
        else:
            args = ["batch", self.name] + args
        trace_path = None
        if trace:
            trace_path = os.path.join(self.work, "trace-%d.json" % self.count)
            args += ["--trace", trace_path]
        if self.plant:
            args += ["--drop-finding"]
        result = harness(self.binary, *args)
        result["jobs"] = jobs
        result["digest"], result["rows"] = digest(csv)
        if trace_path:
            with open(trace_path) as f:
                result["trace"] = json.load(f)
        return result

    def check(self, results, expected):
        """Counts failed operations: the harness's own checks (ledger, full
        run, degraded reports) plus byte-identical CSV across processes and,
        on linux-large, the recorded finding count and digest."""
        failed = 0
        reference = results[0]["digest"]
        if expected is not None:
            reference = expected["sha256"]
            if results[0]["rows"] != expected["findings"]:
                self.notes.append("finding count %d, recorded %d"
                                  % (results[0]["rows"], expected["findings"]))
        for result in results:
            bad = result["digest"] != reference
            if bad:
                self.notes.append("CSV of a jobs=%d process differs from the answer"
                                  % result["jobs"])
            failed += result["attempted"] if bad else result["failed"]
            for app in result.get("apps", []):
                if not app["ok"]:
                    self.notes.append("ledger mismatch on %s: %s" % (app["app"], json.dumps(app)))
            if result.get("matches_full_run") is False:
                self.notes.append("last replayed commit differs from a fresh full run")
        return failed


def expected_answer(name, scale, gen):
    """linux-large has no ledger: its answer is the finding count and CSV
    digest that `valuecheck analyze --jobs=4 --format=csv` printed for the
    corpus variant, recorded in perfbench/expected.json."""
    if name != "linux-large":
        return None
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)["linux-large"][scale][str(gen["variant"])]


def quantile(values, q):
    """statistics.quantiles-style percentile (q in 1..99) of >= 2 values."""
    return statistics.quantiles(values, n=100)[q - 1]


def best_items(results, key):
    """Each item's fastest time in seconds over `results`' processes."""
    return [min(times) / 1e9 for times in zip(*(r[key] for r in results))]


def wall_of(workload, items):
    """wall_s from per-item seconds: the median commit of a replay (the
    developer's per-commit wait), or one analysis of every app or tree."""
    return statistics.median(items) if workload.name == "mysql-commits" else sum(items)


def measure(workload, seconds, expected):
    """--trace 0: as many jobs=4 processes as `seconds` buys. On a shared
    host the same work runs up to 1.5x slower for seconds at a time, so each
    item (app, commit, tree) counts with its fastest time over the processes,
    and so does each set-up."""
    count = max(MIN_PROCESSES[workload.name],
                round(seconds / PROCESS_SECONDS[workload.name]))
    results = [workload.process(4) for _ in range(count)]
    failed = workload.check(results, expected)
    best = best_items(results, "wall_items_ns")
    info = ["processes: %d at jobs=4" % count]
    if workload.name == "mysql-commits":
        for name, q in (("commit_ms.p50", 50), ("commit_ms.p90", 90)):
            info.append("%-32s %.6g ms (%d commits)"
                        % (name, quantile(best, q) * 1e3, len(best)))
    metrics = {
        "wall_s": (wall_of(workload, best), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_bytes"] for r in results) / 1e6, "MB"),
        "setup_s": (sum(best_items(results, "setup_items_ns")), "s"),
    }
    return metrics, sum(r["attempted"] for r in results), failed, info


def layer_metrics(workload, traced, untraced):
    """--trace 1: per-layer metrics from the traced process's spans."""
    trace = traced["trace"]
    spans = trace["spans"]

    def span_s(name):
        return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name) / 1e9

    def total_s(name):
        return trace["totals"].get(name, {"nanos": 0})["nanos"] / 1e9

    def count(name):
        return trace["counters"].get(name, 0)

    m = {}
    m["support.read_sources_s"] = (span_s("support.read_sources"), "s")
    m["support.pool_steals"] = (count("support.pool_steals"), "count")
    m["support.pool_idle_s"] = (count("support.pool_idle_ns") / 1e9, "s")
    m["lexer.preprocess_s"] = (total_s("lexer.preprocess"), "s")
    m["lexer.lex_s"] = (total_s("lexer.lex"), "s")
    m["lexer.tokens"] = (count("lexer.tokens"), "count")
    m["parser.parse_file_s"] = (total_s("parser.parse_file"), "s")
    m["ir.lower_s"] = (total_s("ir.lower"), "s")
    m["ir.functions"] = (count("ir.functions"), "count")
    m["ir.instructions"] = (count("ir.instructions"), "count")
    m["core.project_build_s"] = (span_s("core.project_build"), "s")
    m["core.project_ast_mb"] = (count("core.project_ast_bytes") / 1e6, "MB")
    m["core.project_ir_mb"] = (count("core.project_ir_bytes") / 1e6, "MB")
    m["dataflow.liveness_s"] = (total_s("dataflow.liveness"), "s")
    m["dataflow.define_sets_s"] = (total_s("dataflow.define_sets"), "s")
    for checker in CHECKERS:
        m["checkers.%s_s" % checker] = (total_s("checkers." + checker), "s")
    m["checkers.run_s"] = (span_s("checkers.run"), "s")
    m["checkers.candidates"] = (count("checkers.candidates"), "count")
    m["vcs.load_history_s"] = (span_s("vcs.load_history"), "s")
    m["vcs.blame_s"] = (span_s("vcs.blame"), "s")
    m["core.authorship_s"] = (span_s("core.authorship"), "s")
    m["core.cross_scope_kept"] = (count("core.cross_scope_kept"), "count")
    m["pointer.andersen_s"] = (total_s("pointer.andersen"), "s")
    m["pointer.value_flow_s"] = (total_s("pointer.value_flow"), "s")
    m["core.prune_s"] = (span_s("core.prune"), "s")
    for pattern in ("config", "cursor", "hints", "peer"):
        m["core.prune." + pattern] = (count("core.prune." + pattern), "count")
    m["familiarity.dok_s"] = (total_s("familiarity.dok"), "s")
    m["core.rank_s"] = (span_s("core.rank"), "s")
    m["core.rank_scored"] = (count("core.rank_scored"), "count")
    m["core.fingerprint_s"] = (span_s("core.fingerprint"), "s")
    m["core.render_csv_s"] = (span_s("core.render_csv"), "s")
    m["core.teardown_s"] = (span_s("core.teardown"), "s")
    layers = sum(m[k][0] for k in ("core.authorship_s", "core.prune_s", "core.rank_s",
                                   "core.fingerprint_s"))
    analysis_run = span_s("core.analysis_run")
    m["core.analysis_self_s"] = (analysis_run - layers, "s")
    m["core.unattributed_s"] = (count("core.unattributed_ns") / 1e9, "s")

    commits_ms = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans
                  if s["name"] == "incremental.commit"]
    seen = count("incremental.functions_seen")
    m["incremental.commit_ms"] = (statistics.median(commits_ms), "ms")
    m["incremental.commit_ms.p90"] = (quantile(commits_ms, 90) if len(commits_ms) > 1
                                      else commits_ms[0], "ms")
    m["incremental.files_reparsed"] = (count("incremental.files_reparsed"), "count")
    m["incremental.functions_dirty"] = (count("incremental.functions_dirty"), "count")
    m["incremental.functions_total"] = (count("incremental.functions_total"), "count")
    m["incremental.carry_rate"] = (1 - count("incremental.functions_dirty") / seen if seen else 0,
                                   "ratio")
    m["incremental.post_detect_ms"] = (analysis_run * 1e3, "ms")
    m["incremental.dep_graph_ms"] = (span_s("incremental.dep_graph") * 1e3, "ms")

    # How much of the untraced time the spans account for, and what tracing
    # cost. Batch: spans on the jobs=4 path against wall_s. Replay: the
    # post-detect and dirty-closure work against the median commit.
    untraced_s = sum(untraced["wall_items_ns"]) / 1e9
    if workload.name == "mysql-commits":
        untraced_ms = statistics.median(untraced["wall_items_ns"]) / 1e6
        covered = (m["incremental.post_detect_ms"][0] + m["incremental.dep_graph_ms"][0]) / untraced_ms
        overhead = (sum(commits_ms) / 1e3) - untraced_s
    else:
        path = ("core.project_build_s", "checkers.run_s", "vcs.blame_s", "core.render_csv_s",
                "core.teardown_s")
        named = sum(m[k][0] for k in path) + layers
        traced_path = (sum(m[k][0] for k in path) + analysis_run + m["core.unattributed_s"][0])
        covered = named / untraced_s
        overhead = traced_path - untraced_s
    m["trace.coverage"] = (covered, "ratio")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def traced_run(workload, expected):
    """--trace 1: an untraced jobs=4 process (the base of coverage and
    overhead), an untraced jobs=1 process (the same work without the thread
    pool's parallelism) and a traced jobs=4 process."""
    untraced = workload.process(4)
    serial = workload.process(1)
    traced = workload.process(4, trace=True)
    processes = [untraced, serial, traced]
    failed = workload.check(processes, expected)
    metrics = layer_metrics(workload, traced, untraced)
    metrics["wall_s.jobs1"] = (wall_of(workload, [ns / 1e9 for ns in serial["wall_items_ns"]]),
                               "s")
    return metrics, sum(r["attempted"] for r in processes), failed, []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: small inputs, and a planted wrong answer
    # (the first finding dropped) that the correctness checks must catch.
    parser.add_argument("--scale", choices=("large", "small"), default="large")
    parser.add_argument("--plant-wrong-answer", action="store_true")
    args = parser.parse_args()
    log = lambda line: print(line, flush=True)

    try:
        binary = build(lambda line: print(line, file=sys.stderr))
        work = os.path.join(build_dir(), "work", args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        workload = Workload(args.workload, binary, work, args.scale, args.plant_wrong_answer)
        started = time.monotonic()
        gen = workload.generate(args.seed)
        # Flush the freshly written inputs so their writeback does not
        # overlap the timed processes.
        os.sync()
        log("%s seed %d: inputs %s (%.1f s)" % (args.workload, args.seed, json.dumps(gen),
                                               time.monotonic() - started))
        expected = expected_answer(args.workload, args.scale, gen)
        run = traced_run if args.trace else lambda w, e: measure(w, args.seconds, e)
        metrics, attempted, failed, info = run(workload, expected)
        shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    for line in info + workload.notes:
        log(line)
    for name, (value, unit) in metrics.items():
        log("%-32s %.6g %s" % (name, value, unit))
    log("operations: %d attempted, %d failed" % (attempted, failed))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark for treewalk's three user paths.

    python3 perfbench/run.py --workload <cli_run|batch_mixed|serve_mixed>
                             --seed N --seconds S --trace <0|1>

Run from the root of a source checkout.  The first run builds `twq` and
the benchmark helper `pbtool` from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build); inputs live in .bench_work and
are removed when the run ends.

--trace 0 measures the real binaries as child processes and prints the
end-to-end metrics; --trace 1 runs the same workload with the programs'
own exporters on, then replays its operations in-process with a span
around each call into a layer, and prints the per-layer metrics.  Every
answer is checked against an in-process oracle; a wrong answer aborts the
run with a non-zero exit and no result line.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("cli_run", "batch_mixed", "serve_mixed")
SETUP_REPEATS = 3
CLI_MIN_OPS = 201          # >= 10 samples beyond p95
CLI_RELOAD_EVERY = 12      # one reload after every 12 runs (4 per program)
CLI_RELOAD_TREES = 3
SERVE_RATE_QPS = 30        # open loop: about half of the closed-loop capacity
SERVE_RELOAD_EVERY_MS = 2000
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """Anything that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p95(xs):
    """Interpolated between samples, never beyond the largest one (batch
    runs hold only a few samples)."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=20, method="inclusive")[18]


# --- Build and provenance -------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ next to perfbench/: run from a full checkout")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "twq", "pbtool"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=900)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "twq"), os.path.join(out, "pbtool")


def provenance(pbtool):
    info = json.loads(subprocess.run([pbtool, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    cache = {}
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")
    if not info["optimized"] or not re.search(r"-O[123s]", flags):
        raise BenchError("refusing to report from an unoptimised build "
                         "(build type '%s', flags '%s')" % (build_type, flags))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    if r.returncode == 0:
        sha = r.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": platform.release(),
        "git_sha": sha,
        "build_type": build_type,
        "cxx_flags": flags,
        "compiler": "%s (%s)" % (cache.get("CMAKE_CXX_COMPILER", "?"),
                                 info["compiler"]),
    }


# --- Child processes ------------------------------------------------------

def run_child(cmd, workdir, timeout=CHILD_TIMEOUT_S):
    """Runs cmd to completion.  Returns (rc, stdout, stderr, wall_s,
    maxrss_mib): wall is spawn to exit, maxrss is the child's own peak."""
    out_path = os.path.join(workdir, ".child.out")
    err_path = os.path.join(workdir, ".child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=workdir)
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    if wall >= timeout:
        raise BenchError("timeout: " + " ".join(cmd))
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    return p.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0


def check_call(cmd, workdir, timeout=CHILD_TIMEOUT_S):
    rc, out, err, _, _ = run_child(cmd, workdir, timeout)
    if rc != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), rc, err[-500:]))
    return out


# --- Oracle ---------------------------------------------------------------

def oracle(pbtool, workdir, pairs):
    """(program, tree) -> (verdict, steps) from an in-process run."""
    pairs = sorted(set(pairs))
    with open(os.path.join(workdir, "pairs.tsv"), "w") as f:
        for prog, tree in pairs:
            f.write("%s\t%s\n" % (prog, tree))
    rc, _, err, _, _ = run_child([pbtool, "oracle", "pairs.tsv", "oracle.tsv"],
                                 workdir, timeout=150)
    if rc != 0:
        raise BenchError("oracle failed (%d): %s" % (rc, err[-500:]))
    answers = {}
    with open(os.path.join(workdir, "oracle.tsv")) as f:
        for line in f:
            prog, tree, verdict, steps, _ = line.rstrip("\n").split("\t")
            answers[(prog, tree)] = (verdict, int(steps))
    return answers


def check_answer(answers, prog, tree, verdict, steps):
    want = answers[(prog, tree)]
    if (verdict, steps) != want:
        raise BenchError("wrong answer for %s on %s: got %s/%d steps, want "
                         "%s/%d" % (prog, tree, verdict, steps, want[0],
                                    want[1]))


RUN_LINE = re.compile(r"^(ACCEPT|REJECT) \((\d+) steps")
BATCH_LINE = re.compile(r"^\[(\d+)\] (ACCEPT|REJECT) (\S+) (\S+) steps=(\d+)")
BATCH_ERROR = re.compile(r"^\[(\d+)\] ERROR ")


def parse_run(stdout):
    m = RUN_LINE.match(stdout)
    if not m:
        return None
    return m.group(1), int(m.group(2))


def parse_batch(stdout):
    """Returns ({(prog, tree): (verdict, steps)}, failed_jobs)."""
    results, failed = {}, 0
    for line in stdout.splitlines():
        m = BATCH_LINE.match(line)
        if m:
            results[(m.group(3), m.group(4))] = (m.group(2), int(m.group(5)))
        elif BATCH_ERROR.match(line):
            failed += 1
    return results, failed


def read_metrics(path):
    """Metrics JSON written by --metrics-out, keyed by (name, label value)."""
    with open(path) as f:
        samples = json.load(f)["metrics"]
    out = {}
    for s in samples:
        labels = s.get("labels") or {}
        key = (s["name"], next(iter(labels.values()), ""))
        out[key] = s
    return out


def metric_value(metrics, name, label=""):
    s = metrics.get((name, label))
    return float(s["value"]) if s and "value" in s else 0.0


def histogram_mean(metrics, name, label=""):
    s = metrics.get((name, label))
    if not s or not s.get("count"):
        return 0.0
    return float(s["sum"]) / float(s["count"])


def governor_peaks(metrics):
    return {
        "common.governor_peak_mb." + cat: metric_value(
            metrics, "treewalk_governor_memory_peak_bytes", cat) / 2**20
        for cat in ("axis-index", "compiled-ops", "selector-cache",
                    "mapped-snapshot")
    }


def replay(pbtool, workdir, workload, ops, seconds):
    with open(os.path.join(workdir, "ops.tsv"), "w") as f:
        for op in ops:
            f.write("\t".join(op) + "\n")
    out = check_call([pbtool, "replay", workload, "ops.tsv", str(seconds),
                      "spans.jsonl"], workdir, timeout=170)
    # Keep the latest spans of each workload for inspection.
    shutil.copy(os.path.join(workdir, "spans.jsonl"),
                os.path.join(ROOT, ".bench_work", "spans-%s.jsonl" % workload))
    return json.loads(out.strip().splitlines()[-1])


# --- Workloads ------------------------------------------------------------
#
# Each workload class has setup() (timed, repeated for setup_s), measure()
# (tracing off; returns end-to-end metrics) and traced() (exporters on plus
# the in-process replay; returns per-layer metrics).

class CliRun:
    PROGRAMS = ("chain.twp", "guarded.twp", "walk.twp")

    def __init__(self, tools, seed, workdir):
        self.twq, self.pbtool = tools
        self.seed, self.workdir = seed, workdir

    def setup(self, d):
        check_call([self.pbtool, "gen", "cli_run", str(self.seed), d], d)
        # Warm the .twsel cache: the headline path is a warm `twq run`.
        for prog in ("chain.twp", "guarded.twp"):
            rc, _, err, _, _ = run_child(
                [self.twq, "run", prog, "tree.twsnap", "--compile-cache",
                 "cache"], d)
            if rc not in (0, 2):
                raise BenchError("warm-up failed: " + err[-300:])

    def finish_setup(self, d):
        self.d = d
        pairs = [(p, "tree.twsnap") for p in self.PROGRAMS]
        pairs += [("chain.twp", "reload_%d.term" % k)
                  for k in range(CLI_RELOAD_TREES)]
        self.answers = oracle(self.pbtool, d, pairs)

    def one_run(self, prog, extra=()):
        rc, out, err, wall, rss = run_child(
            [self.twq, "run", prog, "tree.twsnap", "--compile-cache", "cache"]
            + list(extra), self.d)
        got = parse_run(out)
        if rc not in (0, 2) or got is None:
            raise BenchError("twq run %s exited %d: %s" % (prog, rc, err[-300:]))
        check_answer(self.answers, prog, "tree.twsnap", *got)
        return wall, rss

    def reload(self, n):
        """A changed tree to its first answer: snapshot build, then a run
        whose .twsel lookup misses (an empty compile cache, so the same
        trees can be reloaded again)."""
        k = n % CLI_RELOAD_TREES
        shutil.rmtree(os.path.join(self.d, "reload_cache"), ignore_errors=True)
        start = time.perf_counter()
        check_call([self.twq, "snapshot", "build", "reload_%d.term" % k,
                    "-o", "reload_%d.twsnap" % k], self.d)
        out = check_call([self.twq, "run", "chain.twp", "reload_%d.twsnap" % k,
                          "--compile-cache", "reload_cache"], self.d)
        ms = (time.perf_counter() - start) * 1000.0
        check_answer(self.answers, "chain.twp", "reload_%d.term" % k,
                     *parse_run(out))
        return ms

    def measure(self, seconds):
        # Reloads are spread through the run, so that they and the warm
        # runs see the same host.
        lat, reload, rss = [], [], 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(lat) < CLI_MIN_OPS:
            wall, r = self.one_run(self.PROGRAMS[len(lat) % 3])
            lat.append(wall * 1000.0)
            rss = max(rss, r)
            if len(lat) % CLI_RELOAD_EVERY == 0:
                reload.append(self.reload(len(reload)))
        return {
            "latency_p50_ms": median(lat),
            "latency_p95_ms": p95(lat),
            "throughput_ops_s": 1000.0 * len(lat) / sum(lat),
            "peak_rss_mb": rss,
            "reload_ms": median(reload),
        }, len(lat) + len(reload), 0

    def traced(self, seconds):
        hits = misses = 0
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds / 2 or i < 3:
            prog = self.PROGRAMS[i % 3]
            self.one_run(prog, ["--metrics-out", "m.json"])
            m = read_metrics(os.path.join(self.d, "m.json"))
            hits += metric_value(m, "treewalk_selector_cache_hits_total")
            misses += metric_value(m, "treewalk_selector_cache_misses_total")
            i += 1
        layers = replay(self.pbtool, self.d, "cli_run",
                        [(p, "tree.twsnap", "cache") for p in self.PROGRAMS],
                        seconds / 2)
        layers["logic.twsel_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        return layers, i, 0


class BatchMixed:
    PROGRAMS = ("chain.twp", "nested.twp", "guarded.twp",
                "desc_lookahead.twp", "example32.twp", "walk.twp")

    def __init__(self, tools, seed, workdir):
        self.twq, self.pbtool = tools
        self.seed, self.workdir = seed, workdir

    def setup(self, d):
        check_call([self.pbtool, "gen", "batch_mixed", str(self.seed), d], d)

    def finish_setup(self, d):
        self.d = d
        with open(os.path.join(d, "manifest.txt")) as f:
            self.jobs = [tuple(line.split()) for line in f if line.strip()]
        pairs = list(self.jobs)
        for k in range(8):
            pairs += [(os.path.join(d, p), os.path.join(d, "reload_%d.term" % k))
                      for p in self.PROGRAMS]
        self.answers = oracle(self.pbtool, d, pairs)

    def one_batch(self, manifest, jobs, extra=()):
        journal = os.path.join(self.d, "journal.%d" % time.monotonic_ns())
        rc, out, err, wall, rss = run_child(
            [self.twq, "batch", manifest, "--jobs", "2", "--journal", journal]
            + list(extra), self.d)
        results, failed = parse_batch(out)
        journal_bytes = os.path.getsize(journal) if os.path.exists(journal) else 0
        if os.path.exists(journal):
            os.remove(journal)
        if rc not in (0, 1):
            raise BenchError("twq batch exited %d: %s" % (rc, err[-300:]))
        return results, failed, wall, rss, journal_bytes

    def check(self, results, tree_for_oracle=None):
        for (prog, tree), got in results.items():
            key_tree = tree_for_oracle or tree
            check_answer(self.answers, prog, key_tree, *got)

    def reloads(self):
        times = []
        for k in range(8):
            term = os.path.join(self.d, "reload_%d.term" % k)
            snap = os.path.join(self.d, "reload_%d.twsnap" % k)
            manifest = os.path.join(self.d, "reload_%d.manifest" % k)
            with open(manifest, "w") as f:
                for p in self.PROGRAMS:
                    f.write("%s %s\n" % (os.path.join(self.d, p), snap))
            start = time.perf_counter()
            check_call([self.twq, "snapshot", "build", term, "-o", snap], self.d)
            results, failed, _, _, _ = self.one_batch(manifest, 6)
            times.append((time.perf_counter() - start) * 1000.0)
            if failed or len(results) != 6:
                raise BenchError("reload batch failed")
            self.check(results, term)
        return times

    def measure(self, seconds):
        walls, rates, rss = [], [], 0.0
        attempted = failed_total = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(walls) < 3:
            results, failed, wall, r, _ = self.one_batch(
                os.path.join(self.d, "manifest.txt"), len(self.jobs))
            attempted += len(self.jobs)
            failed_total += len(self.jobs) - len(results)
            self.check(results)
            walls.append(wall * 1000.0)
            rates.append(len(results) / wall)
            rss = max(rss, r)
        reload = self.reloads()
        return {
            "latency_p50_ms": median(walls),
            "latency_p95_ms": p95(walls),
            "throughput_ops_s": median(rates),
            "peak_rss_mb": rss,
            "reload_ms": median(reload),
        }, attempted, failed_total

    def traced(self, seconds):
        results, failed, wall, _, journal_bytes = self.one_batch(
            os.path.join(self.d, "manifest.txt"), len(self.jobs),
            ["--metrics-out", "m.json"])
        self.check(results)
        m = read_metrics(os.path.join(self.d, "m.json"))
        job_sum = m.get(("treewalk_engine_job_latency_ms", ""), {}).get("sum", 0.0)
        layers = replay(self.pbtool, self.d, "batch_mixed", self.jobs, seconds)
        layers.update({
            "engine.job_ms": histogram_mean(m, "treewalk_engine_job_latency_ms"),
            "engine.queue_wait_ms": histogram_mean(m, "treewalk_engine_queue_wait_ms"),
            "engine.worker_busy_frac": job_sum / (2 * wall * 1000.0),
            "engine.retries": metric_value(m, "treewalk_engine_retries_total"),
            "engine.deadline_hits": metric_value(m, "treewalk_engine_deadline_hits_total"),
            "engine.memory_trips": metric_value(m, "treewalk_engine_memory_trips_total"),
            "engine.journal_bytes_per_job": journal_bytes / len(self.jobs),
        })
        layers.update(governor_peaks(m))
        return layers, len(self.jobs), failed


RESIDENT_LINE = re.compile(r"loaded \S+ \(\d+ nodes, ~(\d+) KiB\) \[gen 0\]")
RELOAD_LINE = re.compile(r"reloaded generation \d+ \(\d+ trees, ([0-9.]+) ms build\)")


class ServeMixed:
    def __init__(self, tools, seed, workdir):
        self.twq, self.pbtool = tools
        self.seed, self.workdir = seed, workdir
        self.daemon = None

    def start_daemon(self, d, extra=()):
        p = subprocess.Popen(
            [self.twq, "serve", "corpus", "--port", "0", "--workers", "2"]
            + list(extra), cwd=d, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.daemon = p
        self.stderr_lines = []
        self.stderr_thread = threading.Thread(
            target=lambda: self.stderr_lines.extend(p.stderr), daemon=True)
        self.stderr_thread.start()
        line = p.stdout.readline()  # printed once the corpus is resident
        m = re.match(r"listening on [^:]+:(\d+)", line)
        if not m:
            self.stop_daemon()
            raise BenchError("twq serve did not start: " + line)
        self.port = int(m.group(1))

    def stop_daemon(self):
        p, self.daemon = self.daemon, None
        if p is None:
            return ""
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
        try:
            p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
        out = p.stdout.read()
        p.stdout.close()
        self.stderr_thread.join(timeout=5)
        return out

    def setup(self, d):
        self.stop_daemon()
        check_call([self.pbtool, "gen", "serve_mixed", str(self.seed), d], d)
        self.start_daemon(d, self.daemon_flags)

    daemon_flags = ()

    def finish_setup(self, d):
        self.d = d

    def load(self, open_s, closed_s):
        out = os.path.join(self.d, "client.tsv")
        check_call([self.pbtool, "client", str(self.port), "schedule.tsv",
                    str(SERVE_RATE_QPS), str(open_s), str(closed_s),
                    str(self.daemon.pid), str(SERVE_RELOAD_EVERY_MS), out],
                   self.d, timeout=open_s + closed_s + 60)
        rows, header = [], {}
        with open(out) as f:
            for line in f:
                if line.startswith("#"):
                    header = dict(kv.split("=") for kv in line[1:].split())
                    continue
                c = line.rstrip("\n").split("\t")
                rows.append({
                    "phase": int(c[0]), "due": float(c[2]), "send": float(c[3]),
                    "done": float(c[4]), "ok": c[5] == "1",
                    "verdict": "ACCEPT" if c[6] == "1" else "REJECT",
                    "steps": int(c[7]), "kind": c[9], "prog": c[10],
                    "tree": c[11]})
        header = {k: float(v) for k, v in header.items()}
        return rows, header

    def verify(self, rows):
        ok = [r for r in rows if r["ok"]]
        answers = oracle(self.pbtool, self.d,
                         [(r["prog"], "corpus/" + r["tree"]) for r in ok])
        for r in ok:
            check_answer(answers, r["prog"], "corpus/" + r["tree"],
                         r["verdict"], r["steps"])

    @staticmethod
    def backlog(rows, t):
        """Open-loop queries due by t but not yet sent at t."""
        return sum(1 for r in rows if r["phase"] == 0 and r["due"] <= t < r["send"])

    def open_loop_stats(self, rows, header):
        open_rows = [r for r in rows if r["phase"] == 0]
        end = header["open_end_ms"]
        lag = [r["send"] - r["due"] for r in open_rows]
        end_backlog = self.backlog(rows, end - 1e-3)
        mid_backlog = self.backlog(rows, end / 2)
        # The generator must keep its schedule: a backlog that grows to
        # more than a few queries means the latency is not an open-loop
        # latency at this rate.
        unsteady = end_backlog >= 8 and end_backlog > mid_backlog
        return open_rows, lag, end_backlog, unsteady

    def reload_times(self):
        self.stderr_thread.join(timeout=5)
        return [float(m.group(1)) for m in map(RELOAD_LINE.search,
                                                self.stderr_lines) if m]

    def measure(self, seconds):
        rows, header = self.load(0.5 * seconds, 0.4 * seconds)
        rss = vm_hwm_mib(self.daemon.pid)
        self.stop_daemon()
        self.verify(rows)
        open_rows, lag, backlog, unsteady = self.open_loop_stats(rows, header)
        if unsteady:
            raise BenchError("unsteady: open-loop backlog grew to %d queries "
                             "(generator lag p95 %.1f ms); no latency reported"
                             % (backlog, p95(lag)))
        lat = [r["done"] - r["due"] for r in open_rows if r["ok"]]
        closed = [r for r in rows if r["phase"] == 1 and r["ok"]]
        closed_s = (header["closed_end_ms"] - header["closed_start_ms"]) / 1000.0
        failed = sum(1 for r in rows if not r["ok"])
        return {
            "latency_p50_ms": median(lat),
            "latency_p95_ms": p95(lat),
            "throughput_ops_s": len(closed) / closed_s,
            "peak_rss_mb": rss,
            "reload_ms": median(self.reload_times()),
        }, len(rows), failed

    def traced(self, seconds):
        rows, header = self.load(0.3 * seconds, 0.15 * seconds)
        stats = self.stop_daemon()
        self.verify(rows)
        m = read_metrics(os.path.join(self.d, "m.json"))
        open_rows, lag, backlog, _ = self.open_loop_stats(rows, header)
        client_ms = [r["done"] - r["send"] for r in rows if r["ok"]]
        req = m.get(("treewalk_server_request_latency_ms", ""), {})
        shed = sum(metric_value(m, "treewalk_server_shed_total", why)
                   for why in ("queue", "memory", "draining"))
        admitted = metric_value(m, "treewalk_server_admitted_total")
        ops = [(r["prog"], "corpus/" + r["tree"]) for r in rows[:60]]
        layers = replay(self.pbtool, self.d, "serve_mixed", ops, 0.5 * seconds)
        layers.update({
            "server.request_ms_p50": float(req.get("p50", 0.0)),
            "server.request_ms_p95": float(req.get("p95", 0.0)),
            "server.shed_frac": shed / (shed + admitted) if shed + admitted else 0.0,
            "server.quarantined": metric_value(m, "treewalk_server_quarantined_total"),
            "server.reload_build_ms": median(self.reload_times()),
            # The daemon's own per-tree accounting, from its load log.
            "server.resident_mb": sum(
                int(hit.group(1)) for hit in map(RESIDENT_LINE.search,
                                             self.stderr_lines) if hit) / 1024.0,
            "client.wire_ms": (sum(client_ms) / len(client_ms)
                               - histogram_mean(m, "treewalk_server_request_latency_ms")),
            "client.attempts_per_query": header["attempts"] / len(rows),
            "client.transport_errors": header["transport_errors"],
            "client.generator_lag_ms": p95(lag),
            "client.backlog_end": backlog,
            "engine.job_ms": histogram_mean(m, "treewalk_engine_job_latency_ms"),
            "engine.queue_wait_ms": histogram_mean(m, "treewalk_engine_queue_wait_ms"),
            "engine.retries": metric_value(m, "treewalk_engine_retries_total"),
            "engine.deadline_hits": metric_value(m, "treewalk_engine_deadline_hits_total"),
            "engine.memory_trips": metric_value(m, "treewalk_engine_memory_trips_total"),
        })
        layers.update(governor_peaks(m))
        log(stats.strip())
        return layers, len(rows), sum(1 for r in rows if not r["ok"])


def vm_hwm_mib(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the daemon")


# --- Driver ---------------------------------------------------------------

END_TO_END_UNITS = {
    "latency_p50_ms": "ms", "latency_p95_ms": "ms", "throughput_ops_s": "1/s",
    "peak_rss_mb": "MiB", "setup_s": "s", "reload_ms": "ms",
}


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        tools = build()
        prov = provenance(tools[1])
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, "%s-s%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    os.makedirs(workdir)
    cls = {"cli_run": CliRun, "batch_mixed": BatchMixed,
           "serve_mixed": ServeMixed}[args.workload]
    bench = cls(tools, args.seed, workdir)
    if args.trace and isinstance(bench, ServeMixed):
        bench.daemon_flags = ("--metrics-out", "m.json")
    try:
        # Set up several times from scratch; setup_s is the median.
        setups = []
        for k in range(1 if args.trace else SETUP_REPEATS):
            d = os.path.join(workdir, "setup%d" % k)
            os.makedirs(d)
            start = time.perf_counter()
            bench.setup(d)
            setups.append(time.perf_counter() - start)
        bench.finish_setup(d)
        if args.trace:
            metrics, attempted, failed = bench.traced(args.seconds)
            units = per_layer_units()
            metrics = {k: metrics.get(k, 0.0) for k in units}
        else:
            metrics, attempted, failed = bench.measure(args.seconds)
            metrics["setup_s"] = median(setups)
            units = END_TO_END_UNITS
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    finally:
        if isinstance(bench, ServeMixed):
            bench.stop_daemon()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    print("workload %s  seed %d  (held-out validation seed: 7919)  trace %d"
          % (args.workload, args.seed, args.trace))
    for k, v in prov.items():
        print("  %-12s %s" % (k, v))
    for name in units:
        print("  %-40s %14.4f %s" % (name, metrics[name], units[name]))
    print("  %-40s %14.4f ratio  (%d of %d operations)"
          % ("error_frac", failed / attempted if attempted else 0.0, failed,
             attempted))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

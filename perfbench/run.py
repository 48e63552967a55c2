"""End-to-end benchmark of the ``repro`` CLI, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload e2-trial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs the real ``python -m repro`` CLI (default flags,
telemetry on) in child processes through ``perfbench/probe.py``, each
with a fresh ``--out`` store root, until ``--seconds`` have passed (at
least three times).  ``--seed`` is passed to the CLI's ``--seed``.
Timings are divided by the CPU speed that ``perfbench/speed.py``
samples meanwhile, so they read in reference seconds.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The exit code
is 1 when any correctness check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

from speed import REFERENCE_UNIT_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")
SPEED = os.path.join(HERE, "speed.py")

#: The E2 split-vote-with-resets grid both E2 workloads run: small n, so
#: one invocation rests on hundreds of trials.
E2_NS = (10, 13, 14)
E2_TRIALS_PER_N = 120
E2_SET = ["--set", f"ns={E2_NS}", "--set", f"trials={E2_TRIALS_PER_N}"]
E2_TRIALS = 2 * E2_TRIALS_PER_N * len(E2_NS)  # a split and a unanimous each
#: The E2 workloads cycle through this many CLI seeds, ``seed * E2_SEEDS
#: + k``.  E2 windows per trial are heavy-tailed and a batched group runs
#: until its slowest trial decides, so what one seed costs is one draw
#: from that tail.  A run averages several draws instead of resting on one.
E2_SEEDS = 4
FUZZ_TRIALS = 80
READ_PASSES = 100
MIN_INVOCATIONS = 3
MAX_SECONDS = 100.0  # never start another invocation past this
CHILD_TIMEOUT = 150.0

WORKLOADS = ("e2-trial", "e2-batched", "fuzz-bracha", "query-report")

END_TO_END = (("setup_s", "s"), ("ops_per_sec", "1/s"),
              ("peak_rss_mb", "MB"))

# name, unit, layer, end-to-end metric it should move, heavy / near-zero in
PER_LAYER = [
    ("cli.import_s", "s", "cli", "setup_s", "all / none"),
    ("core.analysis.import_s", "s", "cli", "setup_s", "all / none"),
    ("experiments.cells_s", "s", "experiments", "setup_s",
     "e2-* / fuzz-bracha, query-report"),
    ("experiments.build_row_s", "s", "experiments", "setup_s",
     "e2-* / fuzz-bracha, query-report"),
    ("runner.trials", "count", "runner", "ops_per_sec",
     "fuzz-bracha / e2-trial"),
    ("runner.chunks", "count", "runner", "ops_per_sec",
     "fuzz-bracha / e2-trial"),
    ("runner.parent_wait_s", "s", "runner", "ops_per_sec",
     "fuzz-bracha / e2-trial"),
    ("runner.worker_busy_s", "s", "runner", "ops_per_sec",
     "fuzz-bracha / e2-trial"),
    ("runner.result_bytes_per_trial", "B", "runner", "ops_per_sec",
     "fuzz-bracha / e2-trial"),
    ("runner.retries", "count", "runner", "ops_per_sec",
     "fuzz-bracha / e2-trial"),
    ("runner.quarantined", "count", "runner", "ops_per_sec",
     "fuzz-bracha / e2-trial"),
    ("runner.cpu_util", "ratio", "runner", "ops_per_sec",
     "fuzz-bracha / e2-trial"),
    ("simulation.windows", "count", "simulation", "ops_per_sec",
     "e2-trial / e2-batched"),
    ("simulation.windows_per_sec", "1/s", "simulation", "ops_per_sec",
     "e2-trial / e2-batched"),
    ("simulation.window_trials_per_sec", "1/s", "simulation",
     "ops_per_sec", "e2-trial / e2-batched"),
    ("simulation.steps", "count", "simulation", "ops_per_sec",
     "fuzz-bracha / e2-batched"),
    ("simulation.steps_per_sec", "1/s", "simulation", "ops_per_sec",
     "fuzz-bracha / e2-batched"),
    ("simulation.step_trials_per_sec", "1/s", "simulation", "ops_per_sec",
     "fuzz-bracha / e2-batched"),
    ("batched.trials", "count", "batched", "ops_per_sec",
     "e2-batched / the other three"),
    ("batched.fallback_trials", "count", "batched", "ops_per_sec",
     "e2-batched / the other three"),
    ("batched.run_s", "s", "batched", "ops_per_sec",
     "e2-batched / the other three"),
    ("batched.windows_per_sec", "1/s", "batched", "ops_per_sec",
     "e2-batched / the other three"),
    ("batched.deliver_s", "s", "batched", "ops_per_sec, peak_rss_mb",
     "e2-batched / the other three"),
    ("batched.tally_s", "s", "batched", "ops_per_sec, peak_rss_mb",
     "e2-batched / the other three"),
    ("batched.decide_s", "s", "batched", "ops_per_sec, peak_rss_mb",
     "e2-batched / the other three"),
    ("verification.check_s_per_trial", "s", "verification", "ops_per_sec",
     "fuzz-bracha / e2-*"),
    ("results.rows_written", "count", "results", "ops_per_sec",
     "fuzz-bracha / e2-*"),
    ("results.write_row_s", "s", "results", "ops_per_sec",
     "fuzz-bracha / e2-*"),
    ("results.manifest_writes", "count", "results", "ops_per_sec",
     "fuzz-bracha / e2-*"),
    ("results.finish_s", "s", "results", "ops_per_sec",
     "fuzz-bracha / e2-*"),
    ("results.bytes_written", "B", "results", "ops_per_sec",
     "fuzz-bracha / e2-*"),
    ("results.mount_s", "s", "results", "ops_per_sec",
     "query-report / the other three"),
    ("results.query_s", "s", "results", "ops_per_sec",
     "query-report / the other three"),
    ("results.report_s", "s", "results", "ops_per_sec",
     "query-report / the other three"),
    ("results.rows_scanned", "count", "results", "ops_per_sec",
     "query-report / the other three"),
    ("telemetry.spans", "count", "telemetry", "ops_per_sec",
     "e2-trial, fuzz-bracha / e2-batched"),
    ("telemetry.span_us", "us", "telemetry", "ops_per_sec",
     "e2-trial, fuzz-bracha / e2-batched"),
    ("telemetry.bytes", "B", "telemetry", "ops_per_sec",
     "e2-trial, fuzz-bracha / e2-batched"),
]
LAYERS = ("cli", "experiments", "runner", "simulation", "batched",
          "verification", "results", "telemetry")
PER_LAYER += [(f"self_share.{layer}", "ratio", layer, "-",
               "share of traced self time") for layer in LAYERS]
PER_LAYER += [
    ("trace.ops_per_sec_untraced", "1/s", "trace", "ops_per_sec",
     "base of the tracing overhead"),
    ("trace.ops_per_sec_traced", "1/s", "trace", "ops_per_sec",
     "traced invocations of the same run"),
    ("trace.overhead_pct", "%", "trace", "ops_per_sec",
     "untraced over traced rate, minus one"),
]


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------
def e2_argv(seed: int, backend: str, workers: int, out: str) -> list:
    return ["run", "E2", *E2_SET, "--seed", str(seed), "--backend", backend,
            "--workers", str(workers), "--out", out]


def fuzz_argv(seed: int, out: str) -> list:
    return ["fuzz", "--protocol", "bracha", "--workers", "2", "--trials",
            str(FUZZ_TRIALS), "--seed", str(seed), "--out", out]


def read_argvs(out: str) -> list:
    """The fixed mix of read commands of ``query-report``."""
    return [
        ["query", "SELECT experiment, backend, COUNT(*) AS n FROM rows "
                  "GROUP BY experiment, backend", "--out", out],
        ["query", "SELECT * FROM runs ORDER BY experiment", "--out", out],
        ["query", "SELECT name, COUNT(*) AS n, SUM(dur) AS total "
                  "FROM spans GROUP BY name ORDER BY name", "--out", out],
        ["report", "E2", "--out", out],
        ["report", "fuzz", "--out", out],
        ["show", "E2", "--timing", "--out", out],
        ["show", "fuzz", "--timing", "--out", out],
    ]


# ----------------------------------------------------------------------
# Child processes.
# ----------------------------------------------------------------------
def fresh(work: str, name: str) -> str:
    """A new, empty directory under the run's scratch root ``work``."""
    return tempfile.mkdtemp(prefix=f"{name}-", dir=work)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_WORKERS", None)
    env.pop("REPRO_CHAOS", None)
    # Output digests are compared across invocations; pin string hashing
    # so no output can differ by hash order alone.
    env["PYTHONHASHSEED"] = "0"
    return env


#: The children running now, so a signal can stop their process groups.
RUNNING: list = []


def stop_running(signum, frame) -> None:
    """SIGTERM/SIGINT: kill the running child's group, reap it, exit."""
    for proc in RUNNING:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
        except OSError:
            pass
    sys.exit(128 + signum)


class SpeedLog:
    """The speed sampler child (``perfbench/speed.py``) and its samples."""

    def __init__(self, work: str) -> None:
        self.path = os.path.join(work, "speed.txt")
        self.stderr_path = os.path.join(work, "speed-stderr.txt")
        self.samples: list = []  # (time, thread CPU seconds of unit())
        self._offset = 0
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, SPEED, self.path], cwd=ROOT,
                stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                stderr=stderr, start_new_session=True)
        RUNNING.append(self.proc)

    def follow(self, group: int) -> None:
        """Sample the CPUs of process group ``group`` from now on."""
        self.proc.stdin.write(f"{group}\n".encode())
        self.proc.stdin.flush()

    def _read(self) -> None:
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except OSError:
            return
        data = data[:data.rfind(b"\n") + 1]  # whole lines only
        self._offset += len(data)
        for line in data.decode().splitlines():
            when, _, took = line.split()
            self.samples.append((float(when), float(took)))

    def factor(self, start: float, end: float) -> float:
        """How many times slower than the reference the CPUs ran.

        The mean over the samples taken in ``[start, end]``; a window too
        short for three samples takes the three nearest its middle.
        """
        self._read()
        window = [took for when, took in self.samples if start <= when <= end]
        if len(window) < 3:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            window = [took for _, took in nearest[:3]]
        if not window:
            raise RuntimeError("the speed sampler took no samples: "
                               + self.problem())
        return statistics.mean(window) / REFERENCE_UNIT_S

    def problem(self) -> str:
        """Why the sampler stopped, or '' while it runs."""
        if self.proc.poll() is None:
            return ""
        with open(self.stderr_path) as handle:
            return f"speed sampler exited {self.proc.returncode}: " \
                f"{handle.read()[-2000:]}"

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        RUNNING.remove(self.proc)


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with ``wait4``; kill it past ``timeout``.

    Returns ``(exit code, rusage)``.  The rusage covers the child and
    every descendant it reaped (its pool workers), so ``ru_maxrss`` is
    the largest resident set of any of them.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def launch(work: str, speed: SpeedLog, commands: list, trace: bool = False,
           passes: int = 1) -> dict:
    """Run ``commands`` in one probed child; return its measurements.

    ``setup_s`` and ``op_s`` are wall seconds; ``setup_ref_s`` and
    ``op_ref_s`` the same intervals in reference seconds.
    """
    base = fresh(work, "probe")
    spans_dir = os.path.join(base, "spans")
    os.makedirs(spans_dir)
    spec = {"commands": commands, "passes": passes, "trace": trace,
            "spans_dir": spans_dir,
            "result": os.path.join(base, "result.json")}
    spec_path = os.path.join(base, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    stderr_path = os.path.join(base, "stderr.txt")
    with open(stderr_path, "w") as stderr:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, PROBE, spec_path], cwd=ROOT,
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr,
            start_new_session=True)
        RUNNING.append(proc)
        speed.follow(proc.pid)
        try:
            code, usage = wait_child(proc, CHILD_TIMEOUT)
        finally:
            RUNNING.remove(proc)
        exited = time.monotonic()
    record = {"launched": started, "exited": exited, "code": code,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "rss_mb": usage.ru_maxrss / 1024.0}
    with open(stderr_path) as handle:
        record["stderr"] = handle.read()
    try:
        with open(spec["result"]) as handle:
            record.update(json.load(handle))
    except (OSError, ValueError):
        record["codes"] = [code or 1]
        return record
    if trace:
        record["worker_spans"] = read_worker_spans(spans_dir)
    first = record.get("first_op") or record["first_command"]
    end = record.get("finished") or record["end"]
    record["setup_s"] = first - started
    record["op_s"] = end - first
    record["setup_speed"] = speed.factor(started, first)
    record["op_speed"] = speed.factor(first, end)
    record["setup_ref_s"] = record["setup_s"] / record["setup_speed"]
    record["op_ref_s"] = record["op_s"] / record["op_speed"]
    return record


def read_worker_spans(spans_dir: str) -> list:
    batches = []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name)) as handle:
            for line in handle:
                batch = json.loads(line)
                batch["pid"] = name.split(".")[0]
                batches.append(batch)
    return batches


# ----------------------------------------------------------------------
# Reading what a run left in its store.
# ----------------------------------------------------------------------
def run_dirs(out: str, experiment: str) -> list:
    base = os.path.join(out, experiment)
    if not os.path.isdir(base):
        return []
    return [os.path.join(base, name) for name in sorted(os.listdir(base))
            if os.path.isfile(os.path.join(base, name, "manifest.json"))]


def load_rows(run_dir: str) -> list:
    """The run's rows from ``rows.jsonl``, last record per cell wins."""
    by_key = {}
    with open(os.path.join(run_dir, "rows.jsonl")) as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn line; its intact copy follows
            by_key[json.dumps(record["key"])] = record
    return [record["row"] for record in
            sorted(by_key.values(), key=lambda record: record["index"])]


def load_manifest(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "manifest.json")) as handle:
        return json.load(handle)


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def tree_bytes(path: str, name: str = None) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for file_name in files:
            if name is None or file_name == name:
                total += os.path.getsize(os.path.join(folder, file_name))
    return total


def store_summary(out: str, experiment: str) -> dict:
    """Rows, digest, health and telemetry of the single run under out."""
    dirs = run_dirs(out, experiment)
    if len(dirs) != 1:
        return {"ok": False, "why": f"{len(dirs)} {experiment} runs"}
    manifest = load_manifest(dirs[0])
    rows = load_rows(dirs[0])
    health = manifest.get("run_health") or {}
    counters = (manifest.get("telemetry") or {}).get("counters") or {}
    trial_span_s = 0.0
    for event in read_jsonl(os.path.join(dirs[0], "telemetry.jsonl")):
        if event.get("kind") == "span" and event.get("name") == "trial":
            trial_span_s += event.get("dur") or 0.0
    return {"ok": bool(manifest.get("completed")), "rows": rows,
            "digest": digest(rows),
            "manifest_rows": manifest.get("row_count"),
            "retries": health.get("retries", 0),
            "quarantined": health.get("quarantined", 0),
            "health_failures": len(health.get("failures") or []),
            "trials_completed": counters.get("trials_completed", 0),
            "trial_span_s": trial_span_s}


def read_jsonl(path: str) -> list:
    events = []
    try:
        with open(path) as handle:
            for line in handle:
                try:
                    events.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        pass
    return events


# ----------------------------------------------------------------------
# Workloads: one invocation, checked.
# ----------------------------------------------------------------------
class Workload:
    """One workload: how to invoke it and how to check an invocation."""

    def __init__(self, name: str, seed: int, work: str,
                 speed: SpeedLog) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.speed = speed
        self.expected_ops = {"e2-trial": E2_TRIALS, "e2-batched": E2_TRIALS,
                             "fuzz-bracha": FUZZ_TRIALS,
                             "query-report": READ_PASSES
                             * len(read_argvs(""))}[name]
        seeds = E2_SEEDS if name.startswith("e2-") else 1
        self.cli_seeds = [seed * seeds + k for k in range(seeds)]
        self.invocations = 0
        self.store = None
        self.reference = {}  # CLI seed: digest each invocation must match
        self.agreement = []

    def launch(self, commands: list, trace: bool = False,
               passes: int = 1) -> dict:
        return launch(self.work, self.speed, commands, trace, passes)

    def prepare(self) -> list:
        """Untimed set-up before the timed process; returns problems."""
        if self.name != "query-report":
            return []
        self.store = fresh(self.work, "store")
        store_run = self.launch([
            e2_argv(self.seed, "batched", 2, self.store),
            fuzz_argv(self.seed, self.store)])
        summaries = [store_summary(self.store, experiment)
                     for experiment in ("E2", "fuzz")]
        if store_run["codes"] != [0, 0] or \
                not all(summary["ok"] for summary in summaries):
            return [f"building the query store failed: {store_run['codes']}"
                    f"\n{store_run['stderr'][-2000:]}"]
        self.agreement.append(agreement_entry(store_run, summaries))
        return []

    def invoke(self, trace: bool) -> dict:
        cli_seed = self.cli_seeds[self.invocations % len(self.cli_seeds)]
        self.invocations += 1
        if self.name == "query-report":
            record = self.launch(read_argvs(self.store), trace=trace,
                                 passes=READ_PASSES)
            record["out"] = None
        else:
            out = fresh(self.work, "out")
            if self.name == "fuzz-bracha":
                argv = fuzz_argv(cli_seed, out)
            else:
                backend, workers = (("trial", 0) if self.name == "e2-trial"
                                    else ("batched", 2))
                argv = e2_argv(cli_seed, backend, workers, out)
            record = self.launch([argv], trace=trace)
            record["out"] = out
        record["cli_seed"] = cli_seed
        return record

    def check(self, record: dict) -> list:
        """Problems with one invocation; sets ``record['failed']``."""
        problems = []
        if record["code"] != 0 or any(record.get("codes", [1])):
            problems.append(f"exit codes {record['code']}/"
                            f"{record.get('codes')}: "
                            f"{record['stderr'][-2000:]}")
        if self.name == "query-report":
            digests = record.get("pass_digests") or [None]
            if len(set(digests)) != 1:
                problems.append("read output differs between passes")
            self._match(record["cli_seed"], digests[0], problems)
            ops = len(record.get("codes") or [])
            failed = sum(1 for code in record.get("codes", []) if code)
        else:
            experiment = "fuzz" if self.name == "fuzz-bracha" else "E2"
            summary = store_summary(record["out"], experiment) \
                if not problems else {"ok": False, "why": "exit code"}
            record["summary"] = summary
            ops = record.get("stream_ops", 0)
            failed = record.get("stream_failed", 0)
            if not summary["ok"]:
                problems.append(f"store: {summary.get('why', 'incomplete')}")
            else:
                self._check_store(summary, record, problems)
            if ops != self.expected_ops:
                problems.append(f"{ops} trials ran, expected "
                                f"{self.expected_ops}")
        if problems:
            failed = self.expected_ops
        record["ops"] = max(ops, 1)
        record["failed"] = failed
        return problems

    def _check_store(self, summary: dict, record: dict,
                     problems: list) -> None:
        if summary["quarantined"] or summary["health_failures"]:
            problems.append(f"quarantined {summary['quarantined']}, "
                            f"failed {summary['health_failures']}")
        if self.name == "fuzz-bracha":
            rows = summary["rows"]
            findings = [row for row in rows if not row.get("ok")]
            if findings or len(rows) != FUZZ_TRIALS:
                problems.append(f"fuzz: {len(findings)} findings in "
                                f"{len(rows)} rows")
        self._match(record["cli_seed"], summary["digest"], problems)
        record["agreement"] = agreement_entry(record, [summary])

    def _match(self, cli_seed: int, value: str, problems: list) -> None:
        reference = self.reference.setdefault(cli_seed, value)
        if value != reference:
            problems.append(f"output digest {value} != {reference} "
                            f"at CLI seed {cli_seed}")

    def cross_check(self) -> list:
        """E2 rows must be identical on the other backend at equal seed.

        Checked at the first CLI seed of the run.
        """
        cli_seed = self.cli_seeds[0]
        reference = self.reference.get(cli_seed)
        if not self.name.startswith("e2-") or reference is None:
            return []
        other = "batched" if self.name == "e2-trial" else "trial"
        out = fresh(self.work, "cross")
        record = self.launch([e2_argv(cli_seed, other, 2, out)])
        summary = store_summary(out, "E2") if record["code"] == 0 and \
            record.get("codes") == [0] else {"ok": False}
        if not summary["ok"]:
            return [f"cross-check on the {other} backend did not complete"]
        if summary["digest"] != reference:
            return [f"E2 rows differ at seed {cli_seed}: {self.name} "
                    f"{reference} != {other} backend {summary['digest']}"]
        return []


# ----------------------------------------------------------------------
# Per-layer metrics of one traced invocation.
# ----------------------------------------------------------------------
def span_tables(record: dict):
    """Inclusive and self seconds per span name, over every process."""
    inclusive, self_s, calls, attrs = {}, {}, {}, {}
    trees = [record.get("spans") or []]
    trees += [batch["spans"] for batch in record.get("worker_spans", [])]
    for spans in trees:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        for index, (name, start, end, parent, extra) in enumerate(spans):
            if end is None:
                continue
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start
                                                    - child[index])
            calls[name] = calls.get(name, 0) + 1
            for key, value in extra.items():
                bucket = attrs.setdefault(name, {}).setdefault(key, [])
                bucket.append(value)
    return inclusive, self_s, calls, attrs


def layer_metrics(record: dict) -> dict:
    inclusive, self_s, calls, attrs = span_tables(record)
    counts = dict(record.get("counts") or {})
    for batch in record.get("worker_spans", []):
        for key, value in batch["counts"].items():
            counts[key] = counts.get(key, 0) + value
    phases = record.get("phases") or {}
    stats = record.get("batched_stats") or {}
    summary = record.get("summary") or {}

    def inc(name):
        return inclusive.get(name, 0.0)

    def total(name, key):
        return sum(attrs.get(name, {}).get(key, []))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    busy = inc("runner.execute_trial") - inc("bench.pickle")
    trial_pids = {batch["pid"] for batch in record.get("worker_spans", [])
                  if any(span[0] == "runner.execute_trial"
                         for span in batch["spans"])}
    sizes = attrs.get("runner.execute_trial", {}).get("bytes", [])
    spans = counts.get("telemetry_spans", 0)
    out = record.get("out")
    metrics = {
        # What the program's own ``trial`` spans time: the whole call.
        "trial_call_s": inc("runner.execute_trial"),
        "experiments.cells_s": inc("experiments.build_cells"),
        "experiments.build_row_s": inc("experiments.build_row"),
        "runner.trials": record.get("stream_ops", 0),
        "runner.chunks": total("runner.chunk_specs", "chunks"),
        "runner.parent_wait_s": self_s.get("runner.next", 0.0),
        "runner.worker_busy_s": busy,
        "runner.result_bytes_per_trial":
            sum(sizes) / len(sizes) if sizes else 0,
        "runner.retries": summary.get("retries", 0),
        "runner.quarantined": summary.get("quarantined", 0),
        "runner.cpu_util": rate(busy, record.get("op_s", 0)
                                * max(1, len(trial_pids))),
        "simulation.windows": total("simulation.window_run", "windows"),
        "simulation.windows_per_sec": rate(
            total("simulation.window_run", "windows"),
            inc("simulation.window_run")),
        "simulation.window_trials_per_sec": rate(
            calls.get("simulation.window_run", 0),
            inc("simulation.window_run")),
        "simulation.steps": total("simulation.step_run", "steps"),
        "simulation.steps_per_sec": rate(
            total("simulation.step_run", "steps"),
            inc("simulation.step_run")),
        "simulation.step_trials_per_sec": rate(
            calls.get("simulation.step_run", 0), inc("simulation.step_run")),
        "batched.trials": stats.get("batched", 0),
        "batched.fallback_trials": stats.get("fallback", 0),
        "batched.run_s": inc("batched.run"),
        "batched.windows_per_sec": rate(total("batched.run", "windows"),
                                        inc("batched.run")),
        "batched.deliver_s": phases.get("deliver", 0.0),
        "batched.tally_s": phases.get("tally", 0.0),
        "batched.decide_s": phases.get("decide", 0.0),
        "verification.check_s_per_trial": rate(
            inc("verification.check"), calls.get("verification.check", 0)),
        "results.rows_written": calls.get("results.write_row", 0),
        "results.write_row_s": inc("results.write_row"),
        "results.manifest_writes": counts.get("manifest_writes", 0),
        "results.finish_s": inc("results.finish"),
        "results.bytes_written": tree_bytes(out) if out else 0,
        "results.mount_s": inc("results.mount"),
        "results.query_s": inc("results.query"),
        "results.report_s": inc("results.report"),
        "results.rows_scanned": counts.get("rows_scanned", 0),
        "telemetry.spans": spans,
        "telemetry.span_us": rate(
            (inc("telemetry.span") + inc("telemetry.record_span")) * 1e6,
            spans),
        "telemetry.bytes": tree_bytes(out, "telemetry.jsonl") if out else 0,
    }
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer = name.split(".")[0]
        if layer in by_layer:
            by_layer[layer] += seconds
    whole = sum(by_layer.values()) or 1.0
    for layer, seconds in by_layer.items():
        metrics[f"self_share.{layer}"] = seconds / whole
    return metrics


def import_times() -> dict:
    """``cli.import_s`` / ``core.analysis.import_s`` via ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT)
    cli_us = analysis_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        if name.strip() == "repro.core.analysis":
            analysis_us = int(cumulative)
        if name.startswith(" repro") and not name.startswith("  "):
            cli_us += int(cumulative)
    return {"cli.import_s": cli_us / 1e6,
            "core.analysis.import_s": analysis_us / 1e6}


# ----------------------------------------------------------------------
# One workload run.
# ----------------------------------------------------------------------
def machine_record(seed: int) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "seed": seed, "load_before": list(os.getloadavg())}


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def compile_sources() -> None:
    """Write missing bytecode first, so no invocation's set-up pays it.

    Users pay bytecode compilation once per checkout, not per run; after
    the first run of a checkout this only checks timestamps.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   cwd=ROOT, env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT, stdout=subprocess.DEVNULL)


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    machine = machine_record(seed)
    problems = []
    extra_failed = 0  # ops of a failed check outside the timed invocations
    plain, traced = [], []
    layers = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        speed = SpeedLog(work)
        try:
            workload = Workload(name, seed, work, speed)
            compile_sources()
            problems += workload.prepare()
            if trace and not problems:
                layers.update(import_times())
            started = time.monotonic()
            while not problems:
                traced_turn = trace and len(plain) > len(traced)
                record = workload.invoke(traced_turn)
                problems += workload.check(record)
                if traced_turn:
                    record["layers"] = layer_metrics(record)
                    if "agreement" in record:
                        record["agreement"]["busy_s"] = \
                            record["layers"]["trial_call_s"]
                if "agreement" in record:
                    workload.agreement.append(record["agreement"])
                (traced if traced_turn else plain).append(record)
                # Stop when one more invocation would overrun the budget,
                # after at least MIN_INVOCATIONS (and one traced) of them.
                projected = time.monotonic() - started \
                    + (record["exited"] - record["launched"])
                enough = len(plain) + len(traced) >= MIN_INVOCATIONS \
                    or projected > MAX_SECONDS
                if enough and (traced or not trace) and projected > seconds:
                    break
            if not problems:
                crossed = workload.cross_check()
                if crossed:
                    problems += crossed
                    extra_failed = workload.expected_ops
            if speed.problem():
                problems.append(speed.problem())
        finally:
            speed.close()
    machine["load_after"] = list(os.getloadavg())
    records = plain + traced
    wall = sum(r["exited"] - r["launched"] for r in records)
    machine["cpu_wall_ratio"] = (sum(r["cpu_s"] for r in records) / wall
                                 if wall else 0.0)
    timed = [r for r in plain if r.get("op_s")]
    machine["speed"] = [round(r["op_speed"], 3) for r in timed]
    machine["cli_seeds"] = [r["cli_seed"] for r in timed]
    if problems and not records:
        extra_failed = max(extra_failed, 1)  # set-up failed before any op
    result = {"workload": name, "correct": not problems,
              "attempted": sum(r.get("ops", 1) for r in records)
              + extra_failed,
              "failed": sum(r.get("failed", 0) for r in records)
              + extra_failed,
              "problems": problems, "machine": machine,
              "invocations": len(records)}
    result["each"] = {
        "setup_s": [r["setup_ref_s"] for r in timed],
        "ops_per_sec": [r["ops"] / r["op_ref_s"] for r in timed],
        "peak_rss_mb": [r["rss_mb"] for r in plain],
    }
    # The rate pools the run: all ops over all op time, in reference
    # seconds.  Set-up is the median over the invocations.
    result["end_to_end"] = {
        "setup_s": median(result["each"]["setup_s"]),
        "ops_per_sec": pooled_rate(timed),
        "peak_rss_mb": median(result["each"]["peak_rss_mb"]),
    }
    result["wall"] = {
        "setup_s": median([r["setup_s"] for r in timed]),
        "ops_per_sec": pooled_rate(timed, "op_s"),
    }
    if trace:
        for metric, _, _, _, _ in PER_LAYER:
            values = [r["layers"][metric] for r in traced
                      if metric in r.get("layers", {})]
            if values:
                layers[metric] = median(values)
        untraced_rate, traced_rate = pooled_rate(plain), pooled_rate(traced)
        layers["trace.ops_per_sec_untraced"] = untraced_rate
        layers["trace.ops_per_sec_traced"] = traced_rate
        layers["trace.overhead_pct"] = (
            (untraced_rate / traced_rate - 1.0) * 100.0
            if traced_rate else 0.0)
        result["per_layer"] = {metric: layers.get(metric, 0.0)
                               for metric, *_ in PER_LAYER}
        result["missing_hooks"] = sorted({
            target for r in traced for target in r.get("missing", [])})
    result["agreement"] = agreement_ratios(workload.agreement)
    return result


def pooled_rate(records: list, seconds_key: str = "op_ref_s") -> float:
    """All ops of ``records`` over all their op time."""
    timed = [r for r in records if r.get(seconds_key)]
    seconds = sum(r[seconds_key] for r in timed)
    return sum(r["ops"] for r in timed) / seconds if seconds else 0.0


def agreement_entry(record: dict, summaries: list) -> dict:
    """What one invocation's own telemetry says, next to our counts."""
    return {
        "ops": record.get("stream_ops", 0),
        "trials_completed": sum(s["trials_completed"] for s in summaries),
        "rows": sum(len(s["rows"]) for s in summaries),
        "manifest_rows": sum(s["manifest_rows"] or 0 for s in summaries),
        "trial_span_s": sum(s["trial_span_s"] for s in summaries),
        "busy_s": None,
    }


def agreement_ratios(entries: list) -> dict:
    """The program's own telemetry against the benchmark's counts."""
    def ratio(numerator, denominator):
        return round(numerator / denominator, 4) if denominator else None

    busy = [e for e in entries if e["busy_s"]]
    return {
        "trials_completed/ops": ratio(
            sum(e["trials_completed"] for e in entries),
            sum(e["ops"] for e in entries)),
        "manifest_rows/rows": ratio(
            sum(e["manifest_rows"] for e in entries),
            sum(e["rows"] for e in entries)),
        "trial_spans_s/worker_busy_s": ratio(
            sum(e["trial_span_s"] for e in busy),
            sum(e["busy_s"] for e in busy)),
    }


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------
def print_report(result: dict, log) -> None:
    name = result["workload"]
    log(f"== {name}: {result['invocations']} invocations, "
        f"{result['attempted']} ops attempted, {result['failed']} failed, "
        f"correct={result['correct']}")
    log("machine: " + json.dumps(result["machine"], sort_keys=True))
    for metric, unit in END_TO_END:
        each = " ".join(f"{value:.4g}" for value in result["each"][metric])
        how = "pooled over" if metric == "ops_per_sec" else "median of"
        wall = result["wall"].get(metric)
        wall = f" (wall clock {wall:.4f})" if wall is not None else ""
        log(f"  {metric:<14} {result['end_to_end'][metric]:12.4f} {unit:<4}"
            f"{wall} {how} [{each}]")
    log("telemetry agreement (program / benchmark): "
        + json.dumps(result["agreement"], sort_keys=True))
    for problem in result["problems"]:
        log(f"  FAILED: {problem}")
    if "per_layer" not in result:
        return
    shares = {layer: result["per_layer"][f"self_share.{layer}"]
              for layer in LAYERS}
    log(f"  per-layer (traced; overhead "
        f"{result['per_layer']['trace.overhead_pct']:.1f}% of untraced "
        f"ops_per_sec):")
    log(f"  {'metric':<34} {'value':>14} {'unit':<6} {'self':>6}  "
        f"moves / heavy in / near zero in")
    for metric, unit, layer, moves, where in PER_LAYER:
        value = result["per_layer"][metric]
        share = f"{shares[layer] * 100:5.1f}%" if layer in shares else "     -"
        log(f"  {metric:<34} {value:14.6g} {unit:<6} {share}  "
            f"{moves} / {where}")
    if result.get("missing_hooks"):
        log("  hooks not installed: " + ", ".join(result["missing_hooks"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, stop_running)
    signal.signal(signal.SIGINT, stop_running)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            print_report(result, log)
            results.append(result)
    except (subprocess.SubprocessError, OSError, RuntimeError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    units = dict((metric, unit) for metric, unit, *_ in PER_LAYER) \
        if args.trace else dict(END_TO_END)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric, value in result[key].items():
            metrics[prefix + metric] = {"value": value,
                                        "unit": units[metric]}
    correct = all(result["correct"] for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

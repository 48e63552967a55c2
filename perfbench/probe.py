"""Child process of the benchmark: run ``repro`` CLI commands under probes.

Usage (``perfbench/run.py`` writes the spec)::

    PYTHONPATH=src python perfbench/probe.py SPEC.json

``SPEC.json`` holds ``{"commands": [[argv...], ...], "passes": int,
"result": PATH, "trace": bool, "spans_dir": PATH}``.  The probe imports
``repro.cli`` exactly as ``python -m repro`` does, installs its hooks,
and calls ``repro.cli.main(argv)`` for each command, repeating the whole
list ``passes`` times (default once).

Two hook sets, both installed from this file (the program is not edited):

* **probe** (always): the outermost runner stream is counted (trials
  yielded, ``TrialFailure`` items) and its first call marks the first
  operation; the end of every ``RunStore.finish`` marks the end of the
  run.  These are two clock reads and one counter per trial.
* **tracer** (``trace: true``): spans around calls into each layer's
  public functions, kept in memory as ``[name, start, end, parent,
  attrs]`` and written with the result.  Forked pool workers inherit the
  hooks and append their span trees to ``spans_dir/<pid>.jsonl`` each
  time a trial finishes.

Every hook target is optional: a target the program no longer has is
listed under ``missing`` in the result instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import time
import traceback

class Tracer:
    """In-memory span recorder shared by every hook in one process."""

    def __init__(self, enabled: bool, spans_dir: str) -> None:
        self.enabled = enabled
        self.spans_dir = spans_dir
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.phases: dict = {}
        self.batched_runners: list = []

    def _own_process(self) -> None:
        # A forked worker inherits the parent's open spans; start afresh.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.stack, self.counts = [], [], {}

    def open(self, name: str) -> int:
        self._own_process()
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()
        if not self.stack and self.pid != self.main_pid:
            self._flush_worker()

    def count(self, name: str, delta: float = 1) -> None:
        self._own_process()
        self.counts[name] = self.counts.get(name, 0) + delta

    def _flush_worker(self) -> None:
        """Append this worker's finished span trees to its own file."""
        path = os.path.join(self.spans_dir, f"{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps({"spans": self.spans,
                                     "counts": self.counts}) + "\n")
        self.spans, self.counts = [], {}


class Probe:
    """Outside-in counts of one process: ops, failures, first op, end."""

    def __init__(self) -> None:
        self.first_op = None
        self.end = None
        self.ops = 0
        self.failed = 0
        self.depth = 0
        self.failure_type = None

    def mark_first_op(self) -> None:
        if self.first_op is None:
            self.first_op = time.monotonic()

    def stream(self, results, tracer: Tracer):
        """Count the items of the outermost runner stream.

        ``depth`` is raised while the stream computes its next item, so a
        runner the outer one delegates to is neither counted twice nor
        re-marked.  Traced, each ``next`` is a ``runner.next`` span: its
        self time is the parent waiting on (or dispatching to) workers.
        """
        while True:
            self.depth += 1
            span = tracer.open("runner.next") if tracer.enabled else None
            try:
                item = next(results)
            except StopIteration:
                return
            finally:
                if span is not None:
                    tracer.close(span)
                self.depth -= 1
            self.ops += 1
            if self.failure_type is not None and \
                    isinstance(item, self.failure_type):
                self.failed += 1
            yield item


TRACER = Tracer(False, "")
PROBE = Probe()
MISSING: list = []


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _resolve(module_name: str, attr: str):
    """``(owner, original)`` for ``module:attr`` or ``module:Class.attr``."""
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            return None, None
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


def patch(target: str, make_wrapper) -> bool:
    """Replace ``module:attr`` (and every module-level alias of it).

    A function imported by name elsewhere (``from x import f``) is
    rebound in every loaded ``repro`` module; a method is replaced on its
    class, which forked workers inherit.
    """
    module_name, attr = target.split(":")
    owner, original = _resolve(module_name, attr)
    if original is None:
        MISSING.append(target)
        return False
    wrapper = make_wrapper(original)
    name = attr.split(".")[-1]
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        return True
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
    return True


def timed(name: str, after=None):
    """Wrapper factory: a tracer span around each call."""
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = TRACER.open(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(TRACER.spans[span][4], args, result)
            finally:
                TRACER.close(span)
            return result
        return wrapper
    return make


# ----------------------------------------------------------------------
# Probe hooks (always installed).
# ----------------------------------------------------------------------
def _stream_wrapper(original):
    @functools.wraps(original)
    def iter_results(self, specs, *args, **kwargs):
        if PROBE.depth:
            return original(self, specs, *args, **kwargs)
        PROBE.mark_first_op()
        return PROBE.stream(iter(original(self, specs, *args, **kwargs)),
                            TRACER)
    return iter_results


def _finish_wrapper(original):
    @functools.wraps(original)
    def finish(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            PROBE.end = time.monotonic()
    return finish


def install_probe() -> None:
    """Hook every runner stream and the run store's ``finish``."""
    streams = 0
    for module in _repro_modules():
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == \
                    module.__name__ and "iter_results" in vars(value):
                value.iter_results = _stream_wrapper(value.iter_results)
                streams += 1
    if not streams:
        MISSING.append("runner iter_results")
    _, failure = _resolve("repro.runner.health", "TrialFailure")
    PROBE.failure_type = failure if isinstance(failure, type) else None
    patch("repro.results.store:RunStore.finish", _finish_wrapper)


# ----------------------------------------------------------------------
# Tracer hooks (traced runs only).
# ----------------------------------------------------------------------
def _note(key: str, value):
    def after(attrs, args, result):
        attrs[key] = value(result)
    return after


def _worker_result_bytes(attrs, args, result):
    """Pickled size of a worker's result, sampled for 16 per worker."""
    if TRACER.pid == TRACER.main_pid or \
            TRACER.counts.get("sampled", 0) >= 16:
        return
    from multiprocessing.reduction import ForkingPickler

    span = TRACER.open("bench.pickle")
    attrs["bytes"] = len(ForkingPickler.dumps(result))
    TRACER.close(span)
    TRACER.count("sampled")


def _batched_windows(result):
    results = result[0] if isinstance(result, tuple) else result
    return sum(item.windows_elapsed for item in results if item is not None)


def _wrap_build_cells(original):
    """Time cell expansion, and each built cell's ``build_row``."""
    row_timer = timed("experiments.build_row")

    @functools.wraps(original)
    def build_cells(*args, **kwargs):
        span = TRACER.open("experiments.build_cells")
        try:
            cells = original(*args, **kwargs)
        finally:
            TRACER.close(span)
        for cell in cells:
            cell.build_row = row_timer(cell.build_row)
        return cells
    return build_cells


def _wrap_batched_init(original):
    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        if len(args) < 2 and kwargs.get("phase_timers") is None:
            kwargs["phase_timers"] = TRACER.phases
        original(self, *args, **kwargs)
    return __init__


def _wrap_batched_runner_init(original):
    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        TRACER.batched_runners.append(self)
    return __init__


def _wrap_scan_runs(original):
    @functools.wraps(original)
    def scan_runs(*args, **kwargs):
        for item in original(*args, **kwargs):
            TRACER.count("rows_scanned", len(item[2]))
            yield item
    return scan_runs


def _wrap_telemetry_span(original):
    """Time a telemetry span's own enter/exit work, not its body."""
    @functools.wraps(original)
    @contextlib.contextmanager
    def span(self, *args, **kwargs):
        TRACER.count("telemetry_spans")
        mark = TRACER.open("telemetry.span")
        try:
            manager = original(self, *args, **kwargs)
            value = manager.__enter__()
        finally:
            TRACER.close(mark)
        try:
            yield value
        except BaseException:
            mark = TRACER.open("telemetry.span")
            try:
                if not manager.__exit__(*sys.exc_info()):
                    raise
            finally:
                TRACER.close(mark)
        else:
            mark = TRACER.open("telemetry.span")
            try:
                manager.__exit__(None, None, None)
            finally:
                TRACER.close(mark)
    return span


def _counted(name: str, make):
    def wrap(original):
        inner = make(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            TRACER.count(name)
            return inner(*args, **kwargs)
        return wrapper
    return wrap


TRACE_TARGETS = [
    ("repro.runner.spec:execute_trial",
     timed("runner.execute_trial", _worker_result_bytes)),
    ("repro.runner.parallel:ParallelRunner._chunk_specs",
     timed("runner.chunk_specs", _note("chunks", len))),
    ("repro.simulation.windows:WindowEngine.run",
     timed("simulation.window_run",
           _note("windows", lambda result: result.windows_elapsed))),
    ("repro.simulation.engine:StepEngine.run",
     timed("simulation.step_run",
           _note("steps", lambda result: result.steps_elapsed))),
    ("repro.batched.engine:BatchedWindowEngine.__init__",
     _wrap_batched_init),
    ("repro.batched.engine:BatchedWindowEngine.run",
     timed("batched.run", _note("windows", _batched_windows))),
    ("repro.batched.runner:BatchedRunner.__init__",
     _wrap_batched_runner_init),
    ("repro.verification.invariants:InvariantChecker.check_result",
     timed("verification.check")),
    ("repro.results.store:RunStore.write_row", timed("results.write_row")),
    ("repro.results.store:RunStore.finish", timed("results.finish")),
    ("repro.results.store:RunStore._write_manifest",
     _counted("manifest_writes", timed("results.manifest"))),
    ("repro.results.columnar:compact_run", timed("results.compact")),
    ("repro.results.store:scan_runs", _wrap_scan_runs),
    ("repro.results.query:mount_store", timed("results.mount")),
    ("repro.results.query:query_store", timed("results.query")),
    ("repro.results.report:build_report", timed("results.report")),
    ("repro.telemetry.recorder:Telemetry.span", _wrap_telemetry_span),
    ("repro.telemetry.recorder:Telemetry.record_span",
     _counted("telemetry_spans", timed("telemetry.record_span"))),
    ("repro.telemetry.recorder:Telemetry.count", timed("telemetry.count")),
    ("repro.telemetry.recorder:Telemetry.gauge", timed("telemetry.gauge")),
    ("repro.telemetry.recorder:Telemetry.flush", timed("telemetry.flush")),
]


def install_tracer() -> None:
    for target, make in TRACE_TARGETS:
        patch(target, make)
    _, available = _resolve("repro.experiments", "available_experiments")
    if available is None:
        MISSING.append("repro.experiments:available_experiments")
        return
    for experiment in available():
        object.__setattr__(experiment, "build_cells",
                           _wrap_build_cells(experiment.build_cells))


# ----------------------------------------------------------------------
# Running the commands.
# ----------------------------------------------------------------------
def run_command(main, argv):
    """One CLI command in this process: ``(exit code, stdout text)``."""
    buffer = io.StringIO()
    span = TRACER.open("cli.main") if TRACER.enabled else None
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    except Exception:  # a crashed command is a failed op, reported below
        traceback.print_exc()
        code = 1
    finally:
        if span is not None:
            TRACER.close(span)
    return code, buffer.getvalue()


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    from repro.cli import main as cli_main

    TRACER.enabled = bool(spec.get("trace"))
    TRACER.spans_dir = spec.get("spans_dir") or "."
    install_probe()
    if TRACER.enabled:
        install_tracer()
    commands = spec["commands"]
    first_command = time.monotonic()
    codes, pass_digests = [], []
    for _ in range(int(spec.get("passes", 1))):
        digest = hashlib.sha256()
        for argv in commands:
            code, text = run_command(cli_main, argv)
            digest.update(text.encode())
            codes.append(code)
        pass_digests.append(digest.hexdigest())
    result = {
        "first_command": first_command,
        "first_op": PROBE.first_op,
        "finished": PROBE.end,
        "end": time.monotonic(),
        "stream_ops": PROBE.ops,
        "stream_failed": PROBE.failed,
        "codes": codes,
        "pass_digests": pass_digests,
        "missing": MISSING,
    }
    if TRACER.enabled:
        batched = {}
        for runner in TRACER.batched_runners:
            for key, value in getattr(runner, "stats", {}).items():
                batched[key] = batched.get(key, 0) + value
        result.update(spans=TRACER.spans, counts=TRACER.counts,
                      phases=TRACER.phases, batched_stats=batched)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

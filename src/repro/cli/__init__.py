"""The unified ``repro`` command line: one entry point for every experiment.

Subcommands::

    repro list [--doc]
        List the registered experiments; ``--doc`` emits the generated
        EXPERIMENTS.md document to stdout.

    repro run {EXPERIMENT ... | --all} [--quick] [--workers N]
              [--out DIR | --no-store] [--seed N] [--set key=value ...]
              [--backend trial|batched] [--max-retries N]
              [--trial-timeout S] [--chaos SPEC]
              [--no-telemetry] [--no-progress]
        Run experiments through the registry.  The executor runs every
        spec group the batched engine admits on the vectorized engine
        and the rest per trial, with bit-identical rows;
        ``--backend trial`` forces the per-trial oracle for every spec.
        By default every run is
        persisted to the results store under ``--out`` (``results/``), so
        rerunning the same configuration *resumes*: cells whose rows are
        already stored are skipped.  Execution goes through the
        supervising executor (retries, broken-pool recovery, optional
        hang watchdog); ``--chaos`` injects a seeded, replayable fault
        pattern for chaos testing (``repro fuzz`` and ``repro search``
        take the same three flags).  See "Fault tolerance & chaos
        testing" in PERFORMANCE.md.

        Campaigns record a per-run ``telemetry.jsonl`` span/metric event
        log and render a live progress line while running (``repro fuzz``
        and ``repro search`` too); telemetry never changes result rows.
        Each ``batch`` span carries the batched engine's phase seconds
        and window counts.  See "Telemetry & profiling" in
        PERFORMANCE.md.

    repro show {RUN_DIR | EXPERIMENT} [--out DIR] [--timing]
        Render a stored run (a run directory, or the latest stored run of
        an experiment) as a table.  Fuzz-campaign runs render too.
        ``--timing`` appends per-cell trial-duration percentiles,
        per-signature batch totals with their phase split and window
        counts, and the slowest trial's span tree from the run's
        telemetry event log.

    repro top {RUN_DIR | EXPERIMENT} [--out DIR] [--interval S] [--once]
        Tail a (possibly still running) campaign's telemetry event log:
        progress, trial rate, executor gauges, counters, busiest cells.
        Refreshes until the run completes; ``--once`` prints a single
        snapshot for scripts and CI.

    repro fuzz [--trials N] [--workers K] [--protocol P] [--seed S]
               [--n N] [--t T] [--minimize] [--out DIR | --no-store]
        Fuzz adversarial schedules against a protocol and re-check every
        trace with the independent invariant checker
        (:mod:`repro.verification`).  Campaigns persist to the results
        store and resume like experiments; ``--minimize`` shrinks every
        violating schedule into a counterexample artifact.  The engine
        follows the protocol's fault model: the step engine for
        Byzantine protocols, the window engine otherwise.  Exits 1 when
        violations were found, 0 when the campaign is clean.

    repro search [--strategy S] [--objective O] [--generations G]
                 [--population P] [--windows W] [--protocol P] [--seed S]
                 [--n N] [--t T] [--workers K] [--out DIR | --no-store]
        Optimize admissible schedules toward a hardness objective
        (:mod:`repro.search`).  Campaigns persist generation by
        generation and resume mid-campaign; the best-found schedule is
        saved as a replayable ``best-schedule.json`` artifact.

    repro replay ARTIFACT.json
        Re-execute any saved schedule artifact (a minimized fuzz
        counterexample or a search best-schedule) and print the
        independent invariant verdict.  Exits 1 when the replay violates
        an invariant, 0 when it is clean.

    repro query "SQL" [--out DIR] [--format {table,json,csv}]
        SQL across *every* stored run (``rows``/``runs`` tables, one
        table per experiment, plus ``spans``/``metrics`` tables mounted
        from each run's telemetry event log), with each run's manifest
        fields joined in as columns — experiment, seed, backend, params,
        run_health.
        Scans each run's ``rows.jsonl`` into an in-memory SQLite
        database (only the tables the query names) and runs the query
        read-only: anything but a single SELECT exits 2.

    repro report EXPERIMENT [--out DIR] [--format {text,json}]
                 [--percentiles Q,Q,...]
        Aggregate every stored run of one experiment: a run summary, a
        per-cell percentile table over every numeric row column, and
        the recomputed finalizer rows (the E2/E4 exponential fits) of
        the latest completed run.

    repro lint [--select CODES] [--ignore CODES] [--format {text,json}]
               [--root DIR] [--tests DIR] [--fixture [DIR]]
        Statically lint the ``repro`` package against the project's
        determinism/parity/registry/serialization contracts
        (:mod:`repro.staticcheck`; codes documented in
        ``STATIC_ANALYSIS.md``).  Exits 1 when findings remain, 0 when
        the tree is clean.  ``--fixture`` instead runs the self-test
        corpus in ``tests/staticcheck_fixtures/``, checking that every
        bad-example fixture yields exactly its expected code.

Works both as ``python -m repro ...`` from a source checkout and as the
installed ``repro`` console script.

Each subcommand is one :data:`COMMANDS` entry: its help line, its
argument builder and its handler.  A handler imports what its command
runs, so only ``run``, ``list`` and the readers of a registered
experiment's runs load the experiment registry, and with it numpy.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

# Every campaign command executes through the supervising executor, so it
# loads with the CLI: hooks installed between ``import repro.cli`` and
# ``main()`` (profilers, the end-to-end benchmark's probe) find its runner
# classes.  Everything else a command needs, its handler imports itself.
import repro.runner.supervisor  # noqa: F401
from repro.experiments.base import Experiment
from repro.results.store import (CAMPAIGNS, FUZZ_EXPERIMENT, SEARCH_EXPERIMENT,
                                 RunStore, latest_run, load_run,
                                 read_manifest)
from repro.tables import format_table

DEFAULT_OUT = "results"

_DOC_PREAMBLE = """\
# EXPERIMENTS

<!-- Generated from the experiment registry by
     `python -m repro list --doc`.  Do not edit by hand: after changing
     the registry (or this preamble), regenerate with
     `PYTHONPATH=src python -m repro list --doc > EXPERIMENTS.md`.
     The test tests/test_cli.py::test_experiments_md_in_sync regenerates
     this document and compares it against the checked-in file. -->

The reproduction's nine experiments, one table each, all defined in
`repro.experiments.definitions` and run through the single grid-expansion
path of `repro.experiments.base.Experiment.run`.

Common front ends:

- `python -m repro list` — what is registered.
- `python -m repro run E2 --quick` — run one experiment (quick-sized);
  rows stream into the results store under `results/` and a rerun of the
  same configuration resumes instead of recomputing.
- `python -m repro run --all` — regenerate every table at full size.
- `python -m repro show E2` — render the latest stored run.
- `python -m repro query "SELECT ... FROM rows ..."` — SQL across every
  stored run; `python -m repro report E2` — per-cell percentile tables
  plus recomputed finalizer rows (see "Query & report" in
  PERFORMANCE.md).
- `python -m repro fuzz` — adversarial schedule fuzzing with independent
  invariant checking (see "Verification & fuzzing" in PERFORMANCE.md);
  campaigns persist and resume like experiment runs.
- `python -m repro search` — guided adversary search over admissible
  schedules (see "Adversary search" in PERFORMANCE.md); `python -m repro
  replay` re-executes any saved schedule artifact.
- `benchmarks/` — the same experiments under pytest-benchmark.
- `repro.experiments.get_experiment(name).run(params=...)` — the same
  experiments from Python.

Each experiment's *default parameters* are the paper-size sweep; the
*quick overrides* are what `--quick` changes.  Every parameter can be set
from the CLI with `--set key=value`.
"""


def render_registry_doc() -> str:
    """EXPERIMENTS.md, generated from the experiment registry."""
    from repro.experiments.registry import available_experiments

    sections = [_DOC_PREAMBLE]
    for experiment in available_experiments():
        sections.append("\n".join([
            f"## {experiment.name} — {experiment.title}",
            "",
            experiment.description,
            "",
            f"- **Alias:** `{experiment.slug}`",
            f"- **Monte Carlo fan-out via `repro.runner`:** "
            f"{'yes' if _fans_out(experiment) else 'no (analytic)'}",
            f"- **Default parameters:** {_format_params(experiment.defaults)}",
            f"- **Quick overrides:** "
            f"{_format_params(experiment.quick_overrides)}",
            f"- **Row columns:** {_format_columns(experiment.row_schema)}",
        ]))
    return "\n\n".join(sections) + "\n"


def _fans_out(experiment: Experiment) -> bool:
    """Whether the experiment runs trials through :mod:`repro.runner`
    (the analytic experiments' cells hold no specs)."""
    return any(cell.specs for cell in experiment.cells())


def _format_params(params: Mapping[str, Any]) -> str:
    if not params:
        return "(none)"
    return ", ".join(f"`{key}={value!r}`" for key, value in params.items())


def _format_columns(columns: Sequence[str]) -> str:
    return ", ".join(f"`{column}`" for column in columns)


def _parse_set(assignments: Sequence[str]) -> Dict[str, Any]:
    """``--set key=value`` overrides; values parse as Python literals."""
    overrides: Dict[str, Any] = {}
    for assignment in assignments:
        key, separator, raw = assignment.partition("=")
        if not separator or not key:
            raise ValueError(
                f"--set expects key=value, got {assignment!r}")
        try:
            overrides[key] = ast.literal_eval(raw)
        except (SyntaxError, ValueError):
            raise ValueError(
                f"--set {key}: {raw!r} is not a Python literal "
                f"(quote strings explicitly, e.g. {key}='{raw}')") from None
    return overrides


def _cmd_list(args: argparse.Namespace) -> int:
    if args.doc:
        sys.stdout.write(render_registry_doc())
        return 0
    if args.adversaries:
        from repro.adversaries.registry import ADVERSARIES, STRATEGIES

        print(format_table([
            {"adversary": name, "class": cls.__name__}
            for name, cls in sorted(ADVERSARIES.items())]))
        print("\nByzantine strategies (for the 'byzantine' adversary):")
        print(format_table([
            {"strategy": name, "class": cls.__name__}
            for name, cls in sorted(STRATEGIES.items())]))
        return 0
    if args.protocols:
        from repro.protocols.registry import available_protocols

        print(format_table([
            {"protocol": name, "class": info.protocol_cls.__name__,
             "fault_model": info.fault_model}
            for name, info in sorted(available_protocols().items())]))
        return 0
    from repro.experiments.registry import available_experiments

    rows = [{"name": experiment.name, "alias": experiment.slug,
             "title": experiment.title,
             "parallel": "yes" if _fans_out(experiment) else "no"}
            for experiment in available_experiments()]
    print(format_table(rows))
    print("\nRun one with: python -m repro run <NAME> [--quick]")
    return 0


def _resolve_run_params(experiment: Experiment,
                        args: argparse.Namespace) -> Dict[str, Any]:
    overrides = _parse_set(args.set or [])
    if args.seed is not None:
        overrides["seed"] = args.seed
    return experiment.resolve_params(overrides or None, quick=args.quick)


def _execution_policy(args: argparse.Namespace):
    """The resilience knobs as (policy, injector) for one invocation.

    Checks the worker count (``--workers``, else ``$REPRO_WORKERS``),
    parses ``--chaos`` (default: ``$REPRO_CHAOS``) and combines it with
    ``--max-retries``/``--trial-timeout``.  Raises ``ValueError`` on a bad
    value — callers treat that as a usage error, before any store opens.
    """
    from repro.faults import build_injector, parse_chaos_spec
    from repro.runner import ExecutionPolicy, RetryPolicy, default_workers

    if args.workers is None:
        default_workers()  # raises on a bad $REPRO_WORKERS
    elif args.workers < 0:
        raise ValueError(f"--workers must be >= 0, got {args.workers}")
    chaos = parse_chaos_spec(args.chaos)
    policy = ExecutionPolicy(
        retry=RetryPolicy(max_retries=args.max_retries),
        trial_timeout=args.trial_timeout, chaos=chaos)
    return policy, build_injector(chaos)


def _print_health(block: Mapping[str, Any]) -> None:
    """Report a ``run_health`` block, live or stored (silent when clean)."""
    failures = block.get("failures", [])
    counters = {key: value for key, value in block.items()
                if key != "failures" and value}
    if not counters and not failures:
        return
    rendered = " ".join(f"{key}={value}"
                        for key, value in sorted(counters.items()))
    print(f"run health: {rendered or '-'} failures={len(failures)}")
    for entry in failures:
        print(f"  failed trial {entry.get('tag')}: {entry.get('error')} "
              f"({entry.get('attempts')} attempts)")


class _CampaignTiming:
    """What ``_campaign_timing`` hands the campaign handlers.

    ``telemetry`` goes into the campaign entry point (``None`` with
    ``--no-telemetry``); ``wall_time`` is set when the context exits.
    """

    def __init__(self) -> None:
        self.telemetry = None
        self.wall_time = 0.0


@contextmanager
def _campaign_timing(args: argparse.Namespace, store, label: str):
    """Time one campaign and run its telemetry lifecycle.

    The single timing path shared by run/fuzz/search: builds the
    :class:`~repro.telemetry.Telemetry` recorder (unless
    ``--no-telemetry``), points its sink at the run store, opens the
    root ``campaign`` span, and subscribes the live progress renderer.
    On exit — *before* the handler stamps the manifest through
    ``_run_campaign`` — the progress line is cleared and the recorder
    is flushed and closed, so the final manifest summarizes a fully
    written event log.
    """
    from repro.telemetry import ProgressRenderer, Telemetry

    timing = _CampaignTiming()
    telemetry = None
    progress = None
    if not args.no_telemetry:
        telemetry = Telemetry()
        if store is not None:
            store.attach_telemetry(telemetry)
        if not args.no_progress:
            progress = ProgressRenderer(label)
            telemetry.add_listener(progress)
    timing.telemetry = telemetry
    started = time.time()
    try:
        if telemetry is not None:
            with telemetry.span("campaign", label=label):
                yield timing
        else:
            yield timing
    finally:
        timing.wall_time = time.time() - started
        if progress is not None:
            progress.close()
        if telemetry is not None:
            telemetry.close()


def _run_campaign(args: argparse.Namespace, name: str,
                  params: Dict[str, Any], resilience, *, label: str,
                  title: str, unit: str, execute: Callable[..., Any],
                  extra_work: Callable[[Any], int] = lambda result: 0,
                  backend: Optional[str] = None):
    """Run one campaign command: store, timing, manifest, header, health.

    The one path ``run``, ``fuzz`` and ``search`` share.  Opens the run
    store (unless ``--no-store``; its manifest records ``backend``),
    runs ``execute(workers=, store=, policy=, health=, telemetry=)`` under
    :func:`_campaign_timing`, and completes the manifest — except on a
    rerun that computed nothing (every row cached, the run already
    complete, and ``extra_work(result)`` zero, e.g. no fresh
    minimization), which keeps the stored wall time.  Prints the header
    (``title``, wall time, resume counts) and the run-health report, and
    returns the campaign's result.
    """
    from repro.runner import RunHealth

    policy, injector = resilience
    health = RunHealth()
    store = None
    if not args.no_store:
        store = RunStore.open(args.out, name, params, workers=args.workers,
                              fault_injector=injector, health=health,
                              backend=backend)
        cached = store.row_count
        was_complete = bool(store.manifest.get("completed"))
    with _campaign_timing(args, store, label) as timing:
        result = execute(workers=args.workers, store=store, policy=policy,
                         health=health, telemetry=timing.telemetry)
    header = f"{title}{timing.wall_time:.1f}s"
    if store is not None:
        computed = store.row_count - cached
        if computed or extra_work(result) or not was_complete:
            store.finish(timing.wall_time)
        header += (f"; {cached} cached + {computed} computed {unit} "
                   f"-> {store.path}")
    print(header + ") ==")
    _print_health(health.to_jsonable())
    return result


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.batched.support import resolve_backend
    from repro.experiments.registry import (available_experiments,
                                            get_experiment)

    if args.all:
        names = [experiment.name for experiment in available_experiments()]
    elif args.experiments:
        names = args.experiments
    else:
        print("repro run: name at least one experiment, or pass --all",
              file=sys.stderr)
        return 2
    try:
        resilience = _execution_policy(args)
    except ValueError as error:
        return _usage_error("run", error)
    backend = resolve_backend(args.backend)
    exit_code = 0
    for name in names:
        try:
            experiment = get_experiment(name)
            params = _resolve_run_params(experiment, args)
        except (KeyError, ValueError) as error:
            # Report and keep going: in a multi-experiment run the other
            # experiments still regenerate (and persist) their tables.
            exit_code = _usage_error("run", error)
            continue
        rows = _run_campaign(
            args, experiment.name, params, resilience,
            label=f"run {experiment.name}",
            title=f"== {experiment.name}: {experiment.title} (",
            unit="cells",
            execute=partial(experiment.run, params=params, backend=backend),
            backend=backend)
        print(format_table(rows))
        print()
    return exit_code


def _resolve_run_dir(command: str, target: str, out: str):
    """Resolve a run directory or experiment name to ``(run_dir, None)``.

    Shared by ``show`` and ``top``.  On failure returns ``(None,
    exit_code)`` with the diagnostic already printed.
    """
    if os.path.isdir(target):
        if not os.path.isfile(os.path.join(target, "manifest.json")):
            return None, _usage_error(command, ValueError(
                f"{target!r} is not a run directory (no manifest.json); "
                f"pass a results/<EXPERIMENT>/<digest> directory or an "
                f"experiment name"))
        return target, None
    if os.sep in target or target.startswith("."):
        # Path-like but nonexistent: report the missing run id rather
        # than misdiagnosing it as an unknown experiment name.
        return None, _usage_error(command, ValueError(
            f"no run directory at {target!r}"))
    if target in CAMPAIGNS:
        name = target  # fuzz/search campaigns are stored runs too
    else:
        from repro.experiments.registry import get_experiment

        try:
            name = get_experiment(target).name
        except KeyError as error:
            return None, _usage_error(command, error)
    found = latest_run(out, name)
    if found is None:
        hint = name if name in CAMPAIGNS else f"run {name}"
        print(f"no stored runs of {name} under {out!r}; "
              f"run `python -m repro {hint}` first",
              file=sys.stderr)
        return None, 1
    return found, None


def _cmd_show(args: argparse.Namespace) -> int:
    run_dir, code = _resolve_run_dir("show", args.target, args.out)
    if run_dir is None:
        return code
    manifest, rows = load_run(run_dir)
    experiment = None
    if manifest["experiment"] not in CAMPAIGNS:
        from repro.experiments.registry import get_experiment

        try:
            experiment = get_experiment(manifest["experiment"])
        except KeyError:
            # Not a registered experiment: render the stored rows as-is,
            # with no synthetic finalizer rows.
            pass
    if experiment is not None and experiment.finalize is not None:
        rows = rows + experiment.finalize(rows, manifest["params"])
    status = "complete" if manifest.get("completed") else "partial"
    wall = manifest.get("wall_time_seconds")
    print(f"== {manifest['experiment']} run {os.path.basename(run_dir)} "
          f"({status}, {manifest['row_count']} stored rows"
          + (f", {wall:.1f}s" if wall is not None else "")
          + f", seed {manifest.get('seed')}, "
          f"v{manifest.get('package_version')}) ==")
    print(f"params: {manifest['params']}")
    backend = manifest.get("backend")
    if backend is not None:
        note = (" (resumed under differing backends)"
                if backend == "mixed" else "")
        print(f"backend: {backend}{note}")
    _print_health(manifest.get("run_health") or {})
    _show_manifest_telemetry(manifest)
    print(format_table(rows))
    if args.timing:
        _show_timing(run_dir)
    return 0


def _show_timing(run_dir: str) -> None:
    """The ``show --timing`` section: percentiles + slowest span tree."""
    from repro.telemetry import TELEMETRY_NAME, read_events
    from repro.telemetry.timing import (batch_timing_rows,
                                        cell_timing_rows,
                                        render_span_chain,
                                        slowest_trial_chain)

    events = read_events(os.path.join(run_dir, TELEMETRY_NAME))
    timing_rows = cell_timing_rows(events)
    batch_rows = batch_timing_rows(events)
    if not timing_rows and not batch_rows:
        print("\nno trial timing recorded for this run "
              "(was it executed with --no-telemetry?)")
        return
    if timing_rows:
        print("\n-- trial timing (telemetry, ms) --")
        print(format_table(timing_rows))
    if batch_rows:
        print("\n-- batch timing (telemetry, ms) --")
        print(format_table(batch_rows))
    chain = slowest_trial_chain(events)
    if chain:
        print("\nslowest trial:")
        print("\n".join(render_span_chain(chain)))


def _show_manifest_telemetry(manifest: Mapping[str, Any]) -> None:
    """One summary line for a stored run's ``telemetry`` block."""
    block = manifest.get("telemetry") or {}
    if not block:
        return
    counters = block.get("counters") or {}
    trials = counters.get("trials_completed")
    print(f"telemetry: {block.get('spans', 0)} spans, "
          f"{block.get('events', 0)} events over "
          f"{block.get('segments', 1)} segment(s)"
          + (f", {trials:g} trials observed" if trials else "")
          + " (show --timing for the breakdown)")




def _cmd_top(args: argparse.Namespace) -> int:
    """Tail a campaign's telemetry event log: ``repro top``."""
    from repro.telemetry import TELEMETRY_NAME, read_events
    from repro.telemetry.timing import render_top, top_snapshot

    run_dir, code = _resolve_run_dir("top", args.target, args.out)
    if run_dir is None:
        return code
    interactive = sys.stdout.isatty()
    while True:
        try:
            manifest = read_manifest(run_dir)
        except (OSError, ValueError):
            manifest = {}
        events = read_events(os.path.join(run_dir, TELEMETRY_NAME))
        snapshot = top_snapshot(events, manifest=manifest)
        if interactive and not args.once:
            sys.stdout.write("\x1b[H\x1b[2J")  # home + clear screen
        print(render_top(snapshot, os.path.basename(run_dir)))
        if args.once or snapshot.get("completed"):
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            print()
            return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verification.fuzzer import (resolve_fuzz_params,
                                           run_fuzz_campaign)

    try:
        params = resolve_fuzz_params(
            protocol=args.protocol, trials=args.trials, seed=args.seed,
            n=args.n, t=args.t, max_windows=args.max_windows,
            max_steps=args.max_steps)
        resilience = _execution_policy(args)
    except (KeyError, ValueError) as error:
        return _usage_error("fuzz", error)
    # Minimization rewrites cached rows, so it counts as work done this
    # run: the manifest must end up completed with this wall time.
    report = _run_campaign(
        args, FUZZ_EXPERIMENT, params, resilience, label="fuzz",
        title=(f"== fuzz: {params['trials']} trials of "
               f"{params['protocol']} (n={params['n']}, t={params['t']}, "
               f"{params['engine']} engine, seed {params['seed']}; "),
        unit="trials",
        execute=partial(run_fuzz_campaign, params, minimize=args.minimize),
        extra_work=lambda report: report.minimized_trials)
    findings = report.findings
    if not findings:
        print(f"no invariant violations in {params['trials']} trials")
        return 0
    print(f"{len(findings)} violating trial(s):")
    print(format_table([
        {"trial": row["trial"], "inputs": row["inputs"],
         "violations": row["violations"],
         "minimized_windows": row.get("minimized_windows"),
         "counterexample": row.get("counterexample") or "-"}
        for row in findings]))
    if params["engine"] != "window":
        print("\nstep-engine findings carry no window schedule, so "
              "--minimize does not apply; replay them via "
              "repro.verification.fuzz_trial_spec with the trial index")
    elif not args.minimize:
        print("\nrerun with --minimize to shrink the violating schedules "
              "into counterexample artifacts")
    return 1


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.search.campaign import (resolve_search_params,
                                       run_search_campaign)

    try:
        params = resolve_search_params(
            protocol=args.protocol, strategy=args.strategy,
            objective=args.objective, generations=args.generations,
            population=args.population, windows=args.windows,
            seed=args.seed, n=args.n, t=args.t, workload=args.workload,
            verify=not args.no_verify, target_score=args.target_score)
        resilience = _execution_policy(args)
    except (KeyError, ValueError) as error:
        return _usage_error("search", error)
    report = _run_campaign(
        args, SEARCH_EXPERIMENT, params, resilience, label="search",
        title=(f"== search: {params['strategy']} x "
               f"{params['generations']}x{params['population']} toward "
               f"{params['objective']} on {params['protocol']} "
               f"(n={params['n']}, t={params['t']}, "
               f"horizon {params['windows']} windows, "
               f"seed {params['seed']}; "),
        unit="evaluations",
        execute=partial(run_search_campaign, params))
    print(format_table(report.generation_summary()))
    print(f"\nbest score: {report.best_score} "
          f"(generation {report.best_generation})")
    if report.best_artifact is not None:
        print(f"best schedule: {report.best_artifact}")
        print("replay it with: python -m repro replay "
              f"{report.best_artifact}")
    findings = report.findings
    if findings:
        print(f"\n{len(findings)} invariant-violating candidate(s):")
        print(format_table([
            {"generation": row["generation"],
             "candidate": row["candidate"],
             "violations": row["violations"],
             "counterexample": row.get("counterexample") or "-"}
            for row in findings]))
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.runner.spec import build_engine, execute_trial
    from repro.verification.invariants import InvariantChecker
    from repro.verification.shrink import load_schedule_artifact

    if not os.path.isfile(args.artifact):
        return _usage_error("replay", ValueError(
            f"no schedule artifact at {args.artifact!r}"))
    try:
        spec, schedule, artifact = load_schedule_artifact(args.artifact)
    except (KeyError, TypeError, ValueError) as error:
        return _usage_error("replay", ValueError(
            f"{args.artifact!r} is not a schedule artifact: {error}"))
    try:
        # Parses but names an unknown protocol or an impossible system.
        build_engine(spec)
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        return _usage_error("replay", ValueError(
            f"{args.artifact!r} cannot be replayed: {message}"))
    result = execute_trial(spec)
    report = InvariantChecker().check_result(result)
    expected = artifact.get("violations", [])
    print(f"== replay: {len(schedule)} windows of {spec.protocol} "
          f"(n={spec.n}, t={spec.t}, seed {spec.seed}) ==")
    print(f"decided: {result.decided}  windows: {result.windows_elapsed}  "
          f"resets: {result.total_resets}  "
          f"outputs: {''.join('-' if o is None else str(o) for o in result.outputs)}")
    if report.ok:
        print("invariant verdict: OK (all invariants hold)")
        if expected:
            print(f"warning: artifact expected violations {expected}, "
                  f"but the replay is clean")
        return 0
    print(f"invariant verdict: VIOLATED — {report.summary()}")
    return 1


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.results.query import QueryError, run_query

    try:
        result = run_query(args.out, args.sql)
    except QueryError as error:
        return _usage_error("query", error)
    if args.format == "json":
        try:
            print(json.dumps({"engine": result.engine,
                              "columns": result.columns,
                              "rows": result.rows},
                             sort_keys=False, allow_nan=False))
        except (TypeError, ValueError) as error:  # a blob or an infinity
            return _usage_error("query", ValueError(
                f"the result has no JSON form ({error}); use --format csv"))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(result.columns)
        writer.writerows(result.rows)
    else:
        print(format_table(result.as_dicts(), columns=result.columns))
        print(f"({len(result.rows)} row(s) via the {result.engine} "
              f"engine)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.results.report import (ReportError, build_report,
                                      render_report_text)

    try:
        percentiles = tuple(float(chunk) for chunk in
                            args.percentiles.split(","))
        if not percentiles or \
                any(not 0.0 <= q <= 100.0 for q in percentiles):
            raise ValueError
    except ValueError:
        return _usage_error("report", ValueError(
            f"--percentiles expects comma-separated values in [0, 100], "
            f"got {args.percentiles!r}"))
    try:
        report = build_report(args.out, args.experiment,
                              percentiles=percentiles)
    except KeyError as error:
        return _usage_error("report", error)
    except ReportError as error:
        print(f"repro report: {error}", file=sys.stderr)
        return 1
    if args.format == "json":
        sys.stdout.write(report.as_json())
    else:
        sys.stdout.write(render_report_text(report))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.staticcheck import (expand_code_selection, run_fixture_selftest,
                                   run_lint)

    if args.fixture is not None:
        fixtures_root = args.fixture or None
        try:
            rows = run_fixture_selftest(fixtures_root)
        except (RuntimeError, ValueError, OSError) as error:
            return _usage_error("lint", error)
        failed = 0
        for name, expected, got, ok in rows:
            verdict = "ok" if ok else "FAIL"
            rendered = ",".join(sorted(got)) or "-"
            print(f"{verdict:4} {name}: expected {expected}, got {rendered}")
            failed += 0 if ok else 1
        print(f"repro lint --fixture: {len(rows) - failed}/{len(rows)} "
              f"fixtures behaved as expected")
        return 1 if failed else 0

    try:
        select = expand_code_selection(args.select)
        ignore = expand_code_selection(args.ignore)
    except ValueError as error:
        return _usage_error("lint", error)
    result = run_lint(package_root=args.root, tests_root=args.tests,
                      select=select, ignore=ignore)
    if args.format == "json":
        sys.stdout.write(result.render_json())
    else:
        print(result.render_text())
    return 0 if result.ok else 1


def _add_out_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"{what} (default: results/)")


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    """The knobs shared by run/fuzz/search: store, resilience, telemetry."""
    from repro.faults import CHAOS_ENV

    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (0 = serial; default: "
                             "$REPRO_WORKERS or the CPU count)")
    _add_out_arg(parser, "results-store root")
    parser.add_argument("--no-store", action="store_true",
                        help="print results only, persist nothing")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="re-executions of a failed chunk/trial "
                             "before quarantine (default: 2; 0 disables)")
    parser.add_argument("--trial-timeout", type=float, default=None,
                        help="per-trial wall-clock budget in seconds; "
                             "enables the hang watchdog (default: off)")
    parser.add_argument("--chaos", default=os.environ.get(CHAOS_ENV),
                        help="inject deterministic faults, e.g. "
                             "'crash=0.2,hang=0.1,raise=0.1,seed=7' "
                             "(kinds: crash, hang, raise, poison, torn; "
                             "default: $REPRO_CHAOS)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="record no telemetry.jsonl event log "
                             "(results are bit-identical either way)")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress the live progress line")


def _list_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--doc", action="store_true",
                        help="emit the generated EXPERIMENTS.md document")
    parser.add_argument("--adversaries", action="store_true",
                        help="list the adversary registry (and Byzantine "
                             "strategies)")
    parser.add_argument("--protocols", action="store_true",
                        help="list the protocol registry")


def _run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiment names or aliases (e.g. E2, "
                             "feasibility)")
    parser.add_argument("--all", action="store_true",
                        help="run every registered experiment")
    parser.add_argument("--quick", action="store_true",
                        help="apply the quick (smoke-sized) overrides")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one experiment parameter "
                             "(repeatable; value is a Python literal)")
    parser.add_argument("--backend", default=None,
                        choices=("trial", "batched"),
                        help="execution backend: 'batched' vectorizes "
                             "reset-tolerant trial groups under the "
                             "benign, silencing, split-vote and "
                             "adaptive-resetting adversaries and runs "
                             "the rest per trial; 'trial' runs every "
                             "trial on the per-trial oracle (rows are "
                             "bit-identical) (default: batched)")
    _add_campaign_args(parser)


def _fuzz_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=100,
                        help="number of fuzzed executions (default: 100)")
    parser.add_argument("--protocol", default="reset-tolerant",
                        help="protocol registry name "
                             "(default: reset-tolerant)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign master seed (default: 0)")
    parser.add_argument("--n", type=int, default=None,
                        help="system size (default: 9 on the window "
                             "engine, 7 on the step engine)")
    parser.add_argument("--t", type=int, default=None,
                        help="fault bound (default: the protocol's "
                             "maximum for n)")
    parser.add_argument("--max-windows", type=int, default=60,
                        help="window cap per trial (default: 60)")
    parser.add_argument("--max-steps", type=int, default=6000,
                        help="step cap per trial (default: 6000)")
    parser.add_argument("--minimize", action="store_true",
                        help="shrink violating schedules into "
                             "counterexample artifacts")
    _add_campaign_args(parser)


def _search_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", default="hill-climb",
                        help="search strategy: hill-climb, anneal or "
                             "evolve (default: hill-climb)")
    parser.add_argument("--objective", default="undecided-rounds",
                        help="objective: undecided-rounds, "
                             "undecided-fraction, vote-margin or "
                             "invariant-violation "
                             "(default: undecided-rounds)")
    parser.add_argument("--generations", type=int, default=25,
                        help="search generations (default: 25)")
    parser.add_argument("--population", type=int, default=8,
                        help="candidates per generation (default: 8)")
    parser.add_argument("--windows", type=int, default=240,
                        help="schedule length / evaluation horizon in "
                             "windows (default: 240)")
    parser.add_argument("--protocol", default="reset-tolerant",
                        help="protocol registry name "
                             "(default: reset-tolerant)")
    parser.add_argument("--workload", default="split",
                        help="input workload: split, unanimous-0 or "
                             "unanimous-1 (default: split)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign master seed (default: 0)")
    parser.add_argument("--n", type=int, default=None,
                        help="system size (default: 12)")
    parser.add_argument("--t", type=int, default=None,
                        help="fault bound (default: the protocol's "
                             "maximum for n)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the per-candidate invariant check "
                             "(faster evaluations)")
    parser.add_argument("--target-score", type=float, default=None,
                        help="stop once the running best reaches this "
                             "score (budget is unchanged)")
    _add_campaign_args(parser)


def _replay_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("artifact",
                        help="a schedule artifact: a fuzz counterexample "
                             "or a search best-schedule JSON file")


def _query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("sql", metavar="SQL",
                        help="the query, e.g. \"SELECT experiment, "
                             "count(*) FROM rows GROUP BY experiment\"")
    _add_out_arg(parser, "results-store root")
    parser.add_argument("--format", default="table",
                        choices=("table", "json", "csv"),
                        help="output format (default: table)")


def _report_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment",
                        help="experiment name or alias (fuzz/search "
                             "campaigns work too)")
    _add_out_arg(parser, "results-store root")
    parser.add_argument("--format", default="text",
                        choices=("text", "json"),
                        help="output format (default: text)")
    parser.add_argument("--percentiles", default="50,90,99",
                        metavar="Q,Q,...",
                        help="percentiles for the per-cell table "
                             "(default: 50,90,99)")


def _lint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated codes or families to keep "
                             "(e.g. D1,P or D)")
    parser.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated codes or families to drop")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--root", default=None,
                        help="package directory to lint (default: the "
                             "installed repro package)")
    parser.add_argument("--tests", default=None,
                        help="tests directory linted under the tests/ "
                             "prefix (default: the repository tests/)")
    parser.add_argument("--fixture", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="run the self-test corpus instead (default "
                             "corpus: tests/staticcheck_fixtures/)")


def _stored_run_args(parser: argparse.ArgumentParser) -> None:
    """The target and store root shared by ``show`` and ``top``."""
    parser.add_argument("target",
                        help="a run directory, or an experiment name "
                             "(latest stored run)")
    _add_out_arg(parser, "results-store root searched for experiment "
                         "names")


def _show_args(parser: argparse.ArgumentParser) -> None:
    _stored_run_args(parser)
    parser.add_argument("--timing", action="store_true",
                        help="append per-cell trial-duration percentiles "
                             "and the slowest trial's span tree (from "
                             "telemetry.jsonl)")


def _top_args(parser: argparse.ArgumentParser) -> None:
    _stored_run_args(parser)
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between refreshes (default: 2.0)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit (for scripts "
                             "and CI)")


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, argument builder and handler.

    The handler imports what its command runs, so a command loads only
    its own modules.
    """

    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]


COMMANDS: Dict[str, Command] = {
    "list": Command("list registered experiments (or adversaries, "
                    "protocols)", _list_args, _cmd_list),
    "run": Command("run experiments through the registry", _run_args,
                   _cmd_run),
    "fuzz": Command("fuzz adversarial schedules and re-check every trace "
                    "with the independent invariant checker", _fuzz_args,
                    _cmd_fuzz),
    "search": Command("optimize admissible schedules toward a hardness "
                      "objective (guided adversary search)", _search_args,
                      _cmd_search),
    "replay": Command("re-execute a saved schedule artifact and print the "
                      "invariant verdict", _replay_args, _cmd_replay),
    "query": Command("read-only SQLite SELECT across every stored run "
                     "(rows/runs/spans/metrics tables, one view per "
                     "experiment)", _query_args, _cmd_query),
    "report": Command("percentile tables per cell plus recomputed "
                      "finalizer rows for one experiment's stored runs",
                      _report_args, _cmd_report),
    "lint": Command("statically lint the repro package against the "
                    "project's determinism/parity/registry contracts",
                    _lint_args, _cmd_lint),
    "show": Command("render a stored run as a table", _show_args,
                    _cmd_show),
    "top": Command("tail a campaign's telemetry event log: progress, "
                   "rates, counters, busiest cells", _top_args, _cmd_top),
}
"""The ``repro`` subcommands, in ``repro --help`` order."""


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` argument parser: every subcommand, or only ``command``.

    A parser for one subcommand is all one invocation of it parses; it
    still names every subcommand wherever argparse prints the top-level
    usage (an unrecognised argument, say).
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's experiment tables through the "
                    "declarative experiment registry.")
    if command is None:
        names, metavar = list(COMMANDS), None
    else:
        names, metavar = [command], "{" + ",".join(COMMANDS) + "}"
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar=metavar)
    for name in names:
        spec = COMMANDS[name]
        subparser = subparsers.add_parser(name, help=spec.help)
        spec.add_arguments(subparser)
        subparser.set_defaults(func=spec.handler)
    return parser


def _usage_error(command: str, error: Exception) -> int:
    """Report a bad name/parameter and return the usage-error exit code.

    Only argument interpretation is caught this way; internal failures
    propagate with their tracebacks.
    """
    message = error.args[0] if error.args else str(error)
    print(f"repro {command}: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the invoked subcommand is built; anything else (``--help``, a
    # misspelt command) gets the whole parser.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if command == "run":
        # numpy loads before the first trial either way; ``run`` loads it
        # here, before parsing.  CPython 3.11 frees a frame-stack chunk as
        # soon as the stack shrinks below it, so an import's cost depends
        # on the call depth it runs at: one frame deeper, from the
        # handler, numpy's typing modules re-allocated a chunk every few
        # calls (about 1,400 more page faults before the first trial
        # under perfbench's probe, 500 under ``runpy``).
        import repro.experiments.registry  # noqa: F401
    args = build_parser(command).parse_args(argv)
    return args.func(args)


__all__ = ["COMMANDS", "Command", "main", "build_parser",
           "render_registry_doc"]

"""CPU speed sampler: how fast the CPUs under the benchmark run, over time.

Usage (``perfbench/run.py`` starts it and feeds it)::

    python perfbench/speed.py SAMPLES.txt

A virtual CPU's speed can change by a factor of two within seconds when
other guests load the host.  The benchmark divides its timings by the
speed measured here, so that they read in reference seconds.

Standard input carries process-group ids, one per line: the group of the
invocation being timed.  Every ``TICK`` seconds the sampler pins itself
to the CPU of a running process of that group (taking them in turn), or
to each CPU in turn when none is running, runs ``unit()`` there and
appends ``time cpu seconds`` to SAMPLES.txt: the monotonic time at the
middle of the sample, the CPU, and the thread CPU time ``unit()`` took.
Thread CPU time leaves out any time the sampler waited for the CPU, so a
sample measures the CPU's speed, not how busy it was.  The sampler exits
when standard input closes.
"""

from __future__ import annotations

import os
import select
import sys
import time

#: Seconds between samples.  One sample takes about 2 ms of one CPU, so
#: the sampler takes about 5% of a CPU.
TICK = 0.04

#: Thread CPU seconds ``unit()`` takes at the reference speed.  A
#: reference second is the time in which ``unit()`` runs 500 times.
REFERENCE_UNIT_S = 0.002


def unit() -> int:
    """A fixed piece of interpreter work: loops, dict and string ops."""
    table = {}
    total = 0
    for i in range(8000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += len(str(i)) * (i & 7)
    return total + len(table)


def running_cpus(group: int) -> list:
    """CPUs that the running processes of ``group`` are on."""
    cpus = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        # fields[0] is the state, fields[2] the group, fields[36] the CPU.
        if fields[0] == "R" and int(fields[2]) == group:
            cpus.append(int(fields[36]))
    return cpus


def main() -> int:
    allowed = sorted(os.sched_getaffinity(0))
    group = None
    turn = 0
    stdin = sys.stdin.fileno()
    with open(sys.argv[1], "a") as out:
        while True:
            ready, _, _ = select.select([stdin], [], [], TICK)
            if ready:
                data = os.read(stdin, 4096)
                if not data:
                    return 0
                group = int(data.split()[-1])
            cpus = [cpu for cpu in running_cpus(group) if cpu in allowed] \
                if group is not None else []
            cpu = (cpus or allowed)[turn % len(cpus or allowed)]
            turn += 1
            os.sched_setaffinity(0, {cpu})
            started, cpu_started = time.monotonic(), time.thread_time()
            unit()
            took = time.thread_time() - cpu_started
            middle = (started + time.monotonic()) / 2
            out.write(f"{middle:.6f} {cpu} {took:.7f}\n")
            out.flush()


if __name__ == "__main__":
    sys.exit(main())

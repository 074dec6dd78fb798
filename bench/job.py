"""Run one bootperc job and record its peak resident memory.

Usage:
    python job.py OUT --cli ARG...            # same as: python -m bootperc ARG...
    python job.py OUT --code SNIPPET          # same as: python -c SNIPPET
    python job.py OUT --trace (--cli|--code) ...   # also record spans (traced.py)

The peak is VmHWM from /proc/self/status, in kB: the high-water resident
set of the process's own address space, which starts afresh at exec.
The wait4 ``ru_maxrss`` of a child is no use here, because Linux counts
into it the image of the process the child was forked from, so every
job would read at least the benchmark's own RSS.  The job writes its
peak to OUT.rss when it ends; each process-pool worker it forks writes
its own to OUT.rss.<pid> when the worker exits.  With ``--trace`` the
spans go to OUT.spans and OUT.spans.<pid> (see traced.py).
"""

from __future__ import annotations

import os
import sys
from multiprocessing import util as mp_util

import bootperc.cli


def vmhwm_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Peak:
    """Writes this process's VmHWM when it ends; forked pool workers write theirs."""

    def __init__(self, path: str) -> None:
        self.path = path
        mp_util.register_after_fork(self, Peak.after_fork)

    def after_fork(self) -> None:
        self.path = f"{self.path}.{os.getpid()}"
        mp_util.Finalize(self, self.write, exitpriority=10)

    def write(self) -> None:
        with open(self.path, "w") as fh:
            fh.write(f"{vmhwm_kb()}\n")


def main(argv: list[str]) -> int:
    out, rest = (argv[0], argv[1:]) if argv else ("", [])
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
    if len(rest) < 2 or rest[0] not in ("--cli", "--code"):
        print(__doc__, file=sys.stderr)
        return 2
    peak = Peak(out + ".rss")
    tracer = None
    if trace:
        from traced import Tracer, install

        tracer = Tracer(out + ".spans")
        install(tracer)
    try:
        if rest[0] == "--cli":
            return bootperc.cli.main(rest[1:])
        exec(compile(rest[1], "<job>", "exec"), {"__name__": "__main__"})
        return 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.write()
        peak.write()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

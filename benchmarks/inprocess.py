"""One in-process pass of a workload's commands, for the traced run of run.py.

    python3 benchmarks/inprocess.py <workload> <seed> <inputs dir> <out dir> <trace 0|1>

Takes ``poolreg`` from ``src/`` of the working directory, calls
``poolreg.cli.main`` on each of the workload's commands with ``jobs = 1``,
under the tracer when asked, and writes ``pass.json`` to the out dir: the
wall time, system time and minor page faults of the calls, the spans and
any wrapped name not found. Each pass runs in a fresh interpreter, so the
plain and the traced pass both pay the warm-up of a new process (imports
aside, which are not timed).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, work, out, traced = argv
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import poolreg.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"imported poolreg from {cli.__file__}, not from {src}")
    workload = WORKLOADS[name](Path(work), int(seed))
    tracer = tracing.Tracer()
    if traced == "1":
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for args in workload.commands(Path(out), jobs=1):
        code = cli.main(args)
        if code != 0:
            sys.exit(f"poolreg {' '.join(args)} returned {code}")
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    tracer.uninstall()
    record = {"wall_s": wall, "sys_s": after.ru_stime - before.ru_stime,
              "minor_faults": after.ru_minflt - before.ru_minflt,
              "spans": tracer.spans, "missing": tracer.missing}
    (Path(out) / "pass.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Regenerate the reference outputs that ``run.py`` checks every pass against.

Run from the repository root, on the code whose outputs are the reference::

    python3 benchmarks/make_reference.py

Writes ``reference/<workload>.trace.csv.gz`` for the two horizon workloads
and ``reference/validate.seed<k>.csv.gz`` for every CLI seed in
``run.VALIDATE_SEEDS``.  Exits non-zero, after writing the rest, if any
command fails: the benchmark's workloads must be ones on which no output
fails.  Only change the references together with a change that states why
the outputs moved.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys

from checks import write_reference
from run import (OUT, REFERENCE, VALIDATE_SEEDS, WORKLOADS, cli_argv, import_package,
                 reference_path)


def main() -> int:
    ba = import_package()
    REFERENCE.mkdir(exist_ok=True)
    outdir = OUT / "reference"
    failures = 0
    for workload in WORKLOADS.values():
        for seed in VALIDATE_SEEDS if workload.seeded else [None]:
            shutil.rmtree(outdir, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = ba.cli.main(cli_argv(workload, seed, outdir))
            if rc != 0:
                print(f"{workload.name} seed {seed}: exit {rc}", file=sys.stderr)
                failures += 1
                continue
            path = reference_path(workload, seed)
            write_reference(path, (outdir / workload.output).read_bytes())
            print(f"wrote {path.relative_to(REFERENCE.parent)}")
    shutil.rmtree(outdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

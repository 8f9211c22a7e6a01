#!/usr/bin/env python3
"""Layered benchmark of the blockaloha CLI.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload horizon-paper --seed 1 --seconds 30 --trace 0

Each workload is one CLI command, run in this process through
``blockaloha.cli.main`` again and again (closed loop, one command at a
time) for ``--seconds`` seconds, on the package under ``src/`` of this
checkout.  Every pass's output file is checked against the stored
reference in ``benchmarks/reference/``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  Everything else goes to the lines before it.

Layers are measured from outside: the public functions each layer exposes
are wrapped as module attributes for the duration of a run and restored
afterwards (see ``tracer.py``).  ``--trace 0`` wraps only the step
boundaries it needs for step latency (``optimize_block`` and
``run_horizon`` as the CLI reaches them); ``--trace 1`` runs pairs of one
unwrapped and one fully traced pass, and reports each layer's self time,
work counts and the tracing overhead.

Workloads (why each exists):

* ``horizon-paper`` -- ``optimize`` at the CLI defaults (K=400, grid step
  0.05, 9,261 candidates per block).  The grid scan and ``chi`` carry the
  time, and P_O saturates at block 9, so almost every later scan repeats
  its input: a scan cache or a kernel speed-up shows here.
* ``horizon-congested`` -- ``optimize`` at lambda=2e-3, T=10, v=5, K=3000,
  grid step 0.1.  P_O never saturates, so no scan input repeats (a scan
  cache is bypassed), and the O(k) history rebuild per block dominates.
* ``validate`` -- the analytic-vs-Monte-Carlo suite at the default episode
  scale with one worker.  The spatial Monte Carlo tier does most of the
  work and the optimizer is never called.

The horizon workloads are deterministic and ignore ``--seed``.
``validate`` runs the CLI with ``VALIDATE_SEEDS[seed % len(VALIDATE_SEEDS)]``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import check_output, read_reference
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference"
SCHEMA = 1

SETUP_REPEATS = 7
# CLI seeds of the validate workload, each with a stored reference.  Seeds 5
# and 11 are left out: one |z| < 3 row of the seed code fails there, and a
# workload must be one on which no output fails.
VALIDATE_SEEDS = (1, 2, 3, 4, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16)
# Monte Carlo tier -> the entry point the CLI calls
TIERS = {
    "bernoulli": "simulate_bernoulli",
    "policy_chain": "simulate_policy_chain",
    "renewal": "simulate_renewal_pcl",
    "spatial": "simulate_spatial",
}

# Fresh-interpreter set-up: import the package and resolve the workload's
# config.  Prints its own split so the layer times come from the same run.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import blockaloha
from blockaloha.cli import load_run_config
t1 = time.perf_counter()
load_run_config(None, json.loads(sys.argv[1]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "file": blockaloha.__file__}))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    output: str  # the output file checked against its reference
    seeded: bool  # whether the CLI seed comes from the benchmark seed

    def overrides(self) -> dict[str, str]:
        pairs = [self.argv[i + 1] for i, a in enumerate(self.argv) if a == "--set"]
        return dict(p.split("=", 1) for p in pairs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("horizon-paper", ("optimize",), "trace.csv", False),
        Workload(
            "horizon-congested",
            ("optimize", "--set", "lambda=2e-3", "--set", "T=10", "--set", "v=5",
             "--set", "K=3000", "--set", "grid_step=0.1"),
            "trace.csv",
            False,
        ),
        Workload("validate", ("validate", "--workers", "1"), "validation.csv", True),
    )
}


def reference_path(workload: Workload, cli_seed: int | None) -> Path:
    if workload.seeded:
        return REFERENCE / f"validate.seed{cli_seed}.csv.gz"
    return REFERENCE / f"{workload.name}.{workload.output}.gz"


def cli_seed_for(workload: Workload, seed: int) -> int | None:
    if not workload.seeded:
        return None
    return VALIDATE_SEEDS[seed % len(VALIDATE_SEEDS)]


def cli_argv(workload: Workload, cli_seed: int | None, outdir: Path) -> list[str]:
    argv = [*workload.argv, "--outdir", str(outdir)]
    if cli_seed is not None:
        argv += ["--seed", str(cli_seed)]
    return argv


def import_package():
    """Import ``blockaloha`` from this checkout's ``src/``, or exit with code 2."""
    if not (SRC / "blockaloha" / "__init__.py").is_file():
        print(f"benchmark: no package at {SRC / 'blockaloha'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import blockaloha
    import blockaloha.cli

    if Path(blockaloha.__file__).resolve().parent != SRC / "blockaloha":
        print(f"benchmark: imported {blockaloha.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return blockaloha


# -- set-up -----------------------------------------------------------------

def _setup_child(overrides: dict, extra_flags: tuple[str, ...] = ()):
    """Run one fresh interpreter through import + config; (wall_s, report, stderr)."""
    cmd = [sys.executable, *extra_flags, "-c", SETUP_CODE, json.dumps(overrides)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    wall = perf_counter() - t0
    report = json.loads(proc.stdout.splitlines()[-1])
    if Path(report["file"]).resolve().parent != SRC / "blockaloha":
        raise RuntimeError(f"set-up imported {report['file']}, not {SRC}")
    return wall, report, proc.stderr


class SetupSampler:
    """Fresh-interpreter set-up times, spread over the run.

    The machine's speed drifts over seconds, so instead of timing all
    SETUP_REPEATS children back to back, children run between passes: after
    each pass, as many as keep their share level with the share of the
    measured time elapsed.  The harness has already imported the package,
    so the bytecode cache is warm, as it is for a user's second run.
    """

    def __init__(self, overrides: dict, seconds: float):
        self.overrides, self.seconds = overrides, seconds
        self.measured = 0.0
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.configs: list[float] = []

    def after_pass(self, wall_s: float) -> None:
        self.measured += wall_s
        due = math.ceil(SETUP_REPEATS * min(1.0, self.measured / self.seconds))
        while len(self.walls) < due:
            wall, report, _ = _setup_child(self.overrides)
            self.walls.append(wall)
            self.imports.append(report["import_s"])
            self.configs.append(report["config_s"])

    def metrics(self) -> dict[str, float]:
        self.after_pass(self.seconds)  # top up when the passes ended early
        return {
            "setup_s": statistics.median(self.walls),
            "setup.import_s": statistics.median(self.imports),
            "setup.config_s": statistics.median(self.configs),
        }


def spatial_import_s(overrides: dict) -> float:
    """Cumulative import time of ``blockaloha.spatial`` from ``-X importtime``."""
    _, _, stderr = _setup_child(overrides, ("-X", "importtime"))
    for line in stderr.splitlines():
        fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[2] == "blockaloha.spatial":
            return int(fields[1]) * 1e-6
    raise RuntimeError("blockaloha.spatial missing from -X importtime output")


# -- probes -----------------------------------------------------------------

class Probe:
    """Wrapped layer boundaries plus the work counters taken at them.

    The step boundaries are always wrapped; ``full`` adds every layer the
    traced run reports.  Counters are totals over all passes.
    """

    def __init__(self, ba, full: bool):
        self.ba = ba
        self.tracer = Tracer()
        self.counts: dict[str, float] = defaultdict(float)
        self.p_o_prev: dict[int, list[float]] = defaultdict(list)  # pass -> P_O_prev
        self.spatial_job: dict | None = None  # arguments of the first spatial call
        t, cli, opt = self.tracer, ba.cli, ba.optimizer
        t.wrap(cli, "run_horizon", "optimizer.run_horizon")
        t.wrap(opt, "optimize_block", "optimizer.optimize_block", self._on_block)
        if full:
            for tier, attr in TIERS.items():
                sig = inspect.signature(getattr(cli, attr))
                t.wrap(cli, attr, f"montecarlo.{tier}",
                       lambda a, kw, r, tier=tier, sig=sig: self._on_mc(tier, sig, a, kw))
            t.wrap(opt, "chi", "runlength.chi", self._on_chi)
            t.wrap(opt, "expected_peak_latency", "latency.peak")
            t.wrap(opt, "expected_paoi", "latency.peak")
            t.wrap(opt, "_pcl_weights", "latency.gap_weights")
            t.wrap(ba.latency.BlockHistory, "extended", "latency.history_extend",
                   self._on_extend)
            t.wrap(cli, "write_csv", "cli.write", self._on_write)
            t.wrap(cli, "write_meta", "cli.write", self._on_write)

    def close(self) -> None:
        self.tracer.close()

    def _on_block(self, args, kwargs, result) -> None:
        config = args[5]
        self.p_o_prev[self.tracer.trace_id].append(args[1])
        self.counts["optimizer.candidates"] += len(config.grid_values) ** 3

    def _on_chi(self, args, kwargs, result) -> None:
        self.counts["runlength.chi.points"] += math.prod(getattr(args[1], "shape", ()))

    def _on_extend(self, args, kwargs, result) -> None:
        self.counts["latency.history_entries"] += len(result)

    def _on_write(self, args, kwargs, result) -> None:
        self.counts["cli.bytes_written"] += Path(args[0]).stat().st_size

    def _on_mc(self, tier, sig, args, kwargs) -> None:
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        a = a.arguments
        n = a["episodes"]
        if tier == "bernoulli":
            blocks = len(a["p_seq"]) + (a["virtual_block"] == "extend")
            slots = n * blocks * a["shape"].T
        elif tier == "policy_chain":
            slots = n * len(a["rho_seq"]) * a["shape"].T
        elif tier == "renewal":
            slots = n * len(a["P_tilde_seq"])  # this tier draws whole blocks
        else:
            sp = self.ba.spatial
            lam = sp.effective_densities(a["params"], a["policy"], a["P_O_prev"]).lambda_eff
            radius = a["disk_radius"] or sp.default_disk_radius(lam)
            slots = n * a["shape"].T
            self.spatial_job = self.spatial_job or dict(a)
            self.counts["montecarlo.spatial.interferers"] += slots * lam * math.pi * radius**2
        self.counts[f"montecarlo.{tier}.slots"] += slots

    def step_samples(self, trace_id: int) -> list[float]:
        """Per-block decision latencies (s) of one horizon pass.

        A block runs from the start of its ``optimize_block`` call to the
        start of the next one (the last ends with ``run_horizon``), so it
        includes the history extend.  Empty when the pass scanned nothing.
        """
        t = self.tracer
        starts = sorted(s[2] for s in t.named("optimizer.optimize_block", trace_id))
        if not starts:
            return []
        (horizon,) = t.named("optimizer.run_horizon", trace_id)
        bounds = starts + [horizon[3]]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def repeat_share(self) -> float:
        """Share of blocks whose P_O_prev equals the previous block's."""
        blocks = repeats = 0
        for seq in self.p_o_prev.values():
            blocks += len(seq)
            repeats += sum(a == b for a, b in zip(seq, seq[1:]))
        return repeats / blocks if blocks else 0.0


# -- passes -----------------------------------------------------------------

@dataclass
class Pass:
    wall_s: float
    output: bytes | None


def run_pass(ba, probe: Probe | None, trace_id: int, argv: list[str], outdir: Path,
             output: str) -> Pass:
    """One CLI command; ``probe`` None runs it without a root span."""
    shutil.rmtree(outdir, ignore_errors=True)
    root = contextlib.nullcontext()
    if probe is not None:
        probe.tracer.trace_id = trace_id
        root = probe.tracer.span("cli.main")
    rc = None
    t0 = perf_counter()
    try:
        with root, contextlib.redirect_stdout(io.StringIO()):
            rc = ba.cli.main(argv)
    except Exception:  # a broken pass is a failed output, not a crashed benchmark
        traceback.print_exc()
    wall = perf_counter() - t0
    path = outdir / output
    return Pass(wall, path.read_bytes() if rc == 0 and path.is_file() else None)


def run_passes(ba, probe: Probe, budget_s: float, argv, outdir, output,
               setup: SetupSampler) -> list[Pass]:
    """Passes while one more, as long as the last, keeps their summed wall
    time within ``budget_s``; at least one.  Runs stay inside their time
    budget even when one pass is a third of it."""
    passes: list[Pass] = []
    measured = 0.0
    while not passes or measured + passes[-1].wall_s <= budget_s:
        passes.append(run_pass(ba, probe, len(passes), argv, outdir, output))
        measured += passes[-1].wall_s
        setup.after_pass(passes[-1].wall_s)
    return passes


def check_passes(passes: list[Pass], output: str, reference: bytes):
    """(attempted, failed, identical files, validation rows passed) over passes."""
    results = [check_output(output, p.output, reference) for p in passes]
    return (
        sum(r.checked for r in results),
        sum(r.failed for r in results),
        sum(r.identical for r in results),
        sum(r.rows_passed for r in results),
    )


# -- runs -------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(ba, workload: Workload, argv, outdir, reference, seconds, setup):
    probe = Probe(ba, full=False)
    try:
        passes = run_passes(ba, probe, seconds, argv, outdir, workload.output, setup)
    finally:
        probe.close()
    attempted, failed, _, _ = check_passes(passes, workload.output, reference)
    # A step is one block decision on the horizon workloads and the whole
    # command on validate, which reports nothing before it ends.  Step
    # percentiles are taken per pass, then the median over passes: a pooled
    # percentile would follow the share of the run the machine spent slow.
    steps = [probe.step_samples(i) or [p.wall_s] for i, p in enumerate(passes)]
    metrics = {
        "setup_s": setup.metrics()["setup_s"],
        "wall_s": statistics.median(p.wall_s for p in passes),
        "step_p50_ms": statistics.median(map(statistics.median, steps)) * 1e3,
        "step_p95_ms": statistics.median(percentile(s, 95) for s in steps) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": (attempted - failed) / attempted,
    }
    notes = {"passes": len(passes), "steps_per_pass": len(steps[0])}
    return attempted, failed, metrics, notes


def spatial_scaling(ba, job: dict) -> float:
    """t(1 worker) / (2 t(2 workers)) for one spatial Monte Carlo call,
    rerun with its own arguments (the workload's first spatial call)."""
    times = {}
    for workers in (1, 2):
        t0 = perf_counter()
        ba.simulate_spatial(**{**job, "workers": workers})
        times[workers] = perf_counter() - t0
    return times[1] / (2.0 * times[2])


def run_traced(ba, workload: Workload, argv, outdir, reference, seconds, setup):
    """Pairs of one unwrapped and one traced pass, while one more pair, as
    long as the last, keeps the summed wall time within ``seconds``.  Pairs
    alternate which pass runs first, so a drift of the machine's speed does
    not fall on one side of the tracing overhead.  A warm-up pass comes
    first and pairs with nothing: the process's first pass runs slower."""
    warmup = run_pass(ba, None, 0, argv, outdir, workload.output)
    probe = Probe(ba, full=True)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    measured = 0.0
    try:
        while not traced or measured + traced[-1].wall_s + untraced[-1].wall_s <= seconds:
            for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
                if with_trace:
                    probe.tracer.install()
                    p = run_pass(ba, probe, len(traced), argv, outdir, workload.output)
                    traced.append(p)
                else:
                    probe.close()
                    p = run_pass(ba, None, 0, argv, outdir, workload.output)
                    untraced.append(p)
                measured += p.wall_s
                setup.after_pass(p.wall_s)
    finally:
        probe.close()
    n = len(traced)
    checked = [warmup, *untraced, *traced]
    attempted, failed, identical, rows_passed = check_passes(
        checked, workload.output, reference)
    # traced outputs must equal untraced ones byte for byte
    mismatched = sum(p.output != untraced[0].output for p in traced)
    failed += mismatched

    t = probe.tracer
    self_s = defaultdict(float, {k: v / n for k, v in t.self_times().items()})
    calls = defaultdict(int)
    busy = defaultdict(float)  # inclusive span time
    for _, name, s0, s1, _ in t.spans:
        calls[name] += 1
        busy[name] += s1 - s0
    c = probe.counts
    traced_wall = statistics.fmean(p.wall_s for p in traced)
    setup_m = setup.metrics()

    def rate(work: float, span: str) -> float:
        return work / busy[span] if busy[span] else 0.0

    m = {
        "runlength.chi.calls": calls["runlength.chi"] / n,
        "runlength.chi.points": c["runlength.chi.points"] / n,
        "runlength.chi.self_s": self_s["runlength.chi"],
        "optimizer.optimize_block.calls": calls["optimizer.optimize_block"] / n,
        "optimizer.optimize_block.self_s": self_s["optimizer.optimize_block"],
        "optimizer.run_horizon.self_s": self_s["optimizer.run_horizon"],
        "optimizer.candidates": c["optimizer.candidates"] / n,
        "optimizer.candidates_per_s": rate(c["optimizer.candidates"],
                                           "optimizer.optimize_block"),
        "optimizer.repeat_scan_share": probe.repeat_share(),
        "latency.history_extend.calls": calls["latency.history_extend"] / n,
        "latency.history_extend.self_s": self_s["latency.history_extend"],
        "latency.history_entries": c["latency.history_entries"] / n,
        "latency.peak.self_s": self_s["latency.peak"],
        "latency.gap_weights.self_s": self_s["latency.gap_weights"],
    }
    for tier in TIERS:
        name = f"montecarlo.{tier}"
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.slots"] = c[f"{name}.slots"] / n
        m[f"{name}.slots_per_s"] = rate(c[f"{name}.slots"], name)
    m["montecarlo.spatial.interferers"] = c["montecarlo.spatial.interferers"] / n
    m["montecarlo.spatial.scaling_eff"] = (
        spatial_scaling(ba, probe.spatial_job) if probe.spatial_job else 0.0)
    m["setup.import_s"] = setup_m["setup.import_s"]
    m["setup.config_s"] = setup_m["setup.config_s"]
    m["spatial.import_s"] = spatial_import_s(setup.overrides)
    m["cli.write_s"] = self_s["cli.write"]
    m["cli.bytes_written"] = c["cli.bytes_written"] / n
    m["cli.outputs_identical"] = identical / len(checked)
    m["cli.validation_rows_passed"] = rows_passed / len(checked)
    m["trace.wall_s"] = traced_wall
    # time inside no layer's span: the CLI's own glue and the harness
    m["trace.remainder_s"] = traced_wall - sum(
        v for k, v in self_s.items() if k != "cli.main")
    m["trace.overhead_s"] = statistics.median(
        tp.wall_s - up.wall_s for tp, up in zip(traced, untraced))
    m["trace.spans"] = len(t.spans) / n

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    spans_path.write_text("".join(json.dumps(r) + "\n" for r in t.records()))
    split = sorted(((k, v) for k, v in self_s.items() if v), key=lambda kv: -kv[1])
    notes = {
        "untraced_passes": len(untraced),
        "traced_passes": n,
        "traced_outputs_mismatched": mismatched,
        "self_share": {k: round(v / traced_wall, 4) for k, v in split},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return attempted, failed, m, notes


# -- provenance ---------------------------------------------------------------

def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out)
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(workload: Workload, seed: int, cli_seed, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "commit": _git_commit(),
        "workload": workload.name,
        "cli_argv": list(workload.argv),
        "seed": seed,
        "cli_seed": cli_seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append the result and its provenance as one JSON line")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    ba = import_package()
    workload = WORKLOADS[args.workload]
    cli_seed = cli_seed_for(workload, args.seed)
    reference = read_reference(reference_path(workload, cli_seed))
    overrides = workload.overrides()
    if cli_seed is not None:
        overrides["seed"] = str(cli_seed)
    setup = SetupSampler(overrides, args.seconds)
    outdir = OUT / workload.name
    run_args = (ba, workload, cli_argv(workload, cli_seed, outdir), outdir, reference,
                args.seconds, setup)
    if args.trace:
        attempted, failed, metrics, notes = run_traced(*run_args)
    else:
        attempted, failed, metrics, notes = run_untraced(*run_args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    prov = provenance(workload, args.seed, cli_seed, args.seconds, args.trace)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {units[name]}")
    if args.record is not None:
        record = {"schema": SCHEMA, "provenance": prov, "notes": notes, "result": result}
        with args.record.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: config handling, commands, deterministic emitters.

Commands: ``optimize`` (per-block policy trace), ``validate`` (analytic vs
Monte Carlo comparison suite), ``demo-plant`` (slot-by-slot control loop
replay), ``chi-table`` and ``success-prob`` (formula dumps).  A run is
fully reproducible from its config plus seed; outputs carry no timestamps
and all floats are written with 17 significant digits.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .latency import BlockHistory, HistoryState, pcl_pmf
from .montecarlo import (
    Estimate,
    simulate_bernoulli,
    simulate_policy_chain,
    simulate_renewal_pcl,
    simulate_spatial,
)
from .optimizer import MetricsRecord, OptimizerConfig, _unit_grid, block_recursion, run_horizon
from .plant import default_plant, run_block
from .runlength import BlockShape, chi, chi_bruteforce
from .spatial import (
    AccessPolicy,
    NetworkParams,
    interference_integral,
    interference_tail,
    parse_power_watts,
    slot_success_prob,
)

__all__ = ["ConfigError", "RunConfig", "load_run_config", "main"]


class ConfigError(Exception):
    """Invalid configuration file or option value."""


# Philox keys take 64-bit seeds, and validate keys its tiers seed+1..seed+7.
_MAX_SEED = 2**64 - 8


_DEFAULTS = {
    "lambda": "1e-4",  # controller density (m^-2)
    "alpha": "3",  # path-loss exponent
    "gamma": "0.1",  # SINR threshold (linear)
    "xi": "40dBm",  # transmit power
    "N0": "1e-17",  # noise power (W)
    "r0": "25",  # link distance (m)
    "T": "5",  # slots per block
    "v": "2",  # controllability index
    "K": "400",  # horizon in blocks
    "grid_step": "0.05",
    "rho1": "0.5",
    "rho2": "0.5",
    "eta_curr": "3",  # latency threshold (slots)
    "eta_pcl": "3",  # control-latency threshold (blocks)
    "cdf_mode": "indicator",
    "history_scalar": "posterior",
    "virtual_block": "extend",
    "seed": "1",
    "outdir": "out",
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration: a run is reproducible from this plus nothing else."""

    params: NetworkParams
    shape: BlockShape
    optimizer: OptimizerConfig
    seed: int
    outdir: Path
    raw: dict

    def echo(self) -> dict:
        # outdir is environment, not run configuration: outputs must be
        # byte-identical for the same scientific config + seed
        return {k: v for k, v in self.raw.items() if k != "outdir"}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` document; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = stripped.partition("=")
        values[key.strip()] = val.strip()
    return values


def load_run_config(
    config_path: str | None = None, overrides: dict[str, str] | None = None
) -> RunConfig:
    """Merge defaults, the config file, and CLI overrides (highest priority)."""
    merged = dict(_DEFAULTS)
    if config_path is not None:
        file_values = parse_config_file(config_path)
        unknown = set(file_values) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    for key, val in (overrides or {}).items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = val
    try:
        params = NetworkParams(
            lam=float(merged["lambda"]),
            alpha=float(merged["alpha"]),
            gamma=float(merged["gamma"]),
            xi=parse_power_watts(merged["xi"]),
            N0=parse_power_watts(merged["N0"]),
            r0=float(merged["r0"]),
        )
        shape = BlockShape(T=int(merged["T"]), v=int(merged["v"]))
        optimizer = OptimizerConfig(
            K=int(merged["K"]),
            grid_step=float(merged["grid_step"]),
            rho1=float(merged["rho1"]),
            rho2=float(merged["rho2"]),
            eta_curr=float(merged["eta_curr"]),
            eta_pcl=float(merged["eta_pcl"]),
            cdf_mode=merged["cdf_mode"],
            history_scalar=merged["history_scalar"],
            virtual_block=merged["virtual_block"],
        )
        seed = int(merged["seed"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if not 0 <= seed <= _MAX_SEED:
        raise ConfigError(f"seed must lie in [0, {_MAX_SEED}], got {seed}")
    return RunConfig(
        params=params,
        shape=shape,
        optimizer=optimizer,
        seed=seed,
        outdir=Path(merged["outdir"]),
        raw=merged,
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, comments: list[str], header: list[str], rows) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def write_meta(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit(cfg: RunConfig, command: str, stem: str, comments, header, rows, /, **meta) -> Path:
    """Write ``<stem>.csv`` and its ``<stem>.meta.json`` sidecar into the
    output directory; the sidecar echoes the config, seed and versions plus
    ``meta``.  Returns the CSV path."""
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    path = cfg.outdir / f"{stem}.csv"
    write_csv(path, comments, header, rows)
    versions = {"blockaloha": __version__, "numpy": np.__version__}
    write_meta(
        cfg.outdir / f"{stem}.meta.json",
        {"command": command, "config": cfg.echo(), "seed": cfg.seed, "versions": versions,
         **meta},
    )
    return path


def cmd_optimize(cfg: RunConfig) -> int:
    """Run the horizon optimizer and emit the per-block trace CSV."""
    records = run_horizon(cfg.params, cfg.shape, cfg.optimizer)
    comments = [
        "per-block optimal access policy trace",
        "k: block index (1-based)",
        "delta_B, delta_S, delta_C: chosen access probabilities (dimensionless)",
        "rho: conditional slot success probability of the typical link",
        "pi: first-time controllability probability of block k",
        "P_O: cumulative controllability probability up to block k",
        "P_O_tilde: instantaneous controllability probability of block k",
        "theta_curr: expected current-block latency contribution (slots)",
        "theta_pl: expected peak latency of the first input (slots)",
        "theta_pa: expected peak age of information (slots)",
        "pcl_mean: expected peak control latency (blocks)",
        "block_success_prob: P(Z(k)=1)",
        "cdf_curr, cdf_pcl: joint CDF terms of the cost at the thresholds",
        "cost: J = P_O + rho1 * cdf_curr + rho2 * cdf_pcl",
    ]
    header = [f.name for f in fields(MetricsRecord) if f.name not in ("chi_C", "p_scalar")]
    rows = [[getattr(r, name) for name in header] for r in records]
    path = _emit(cfg, "optimize", "trace", comments, header, rows)
    print(f"wrote {path} ({len(rows)} blocks)")
    return 0


@dataclass
class _Row:
    name: str
    analytic: float
    empirical: float
    z: float
    criterion: str
    passed: bool


def _stat_row(name: str, analytic: float, est: Estimate, z_max: float = 3.0) -> _Row:
    z = est.z_against(analytic)
    return _Row(name, analytic, est.value, z, f"|z| < {z_max}", abs(z) < z_max)


def _exact_row(name: str, target: float, value: float, tol: float) -> _Row:
    return _Row(name, target, value, math.nan, f"|diff| <= {tol}", abs(value - target) <= tol)


# validate's spatial tier: the disk radius (m), whose disk carries 96.8% of
# the interference exponent at the defaults (the rest enters exactly), the
# episodes of its drawn lambda x 1 call and of its fading-integrated lambda
# x 2 call (the smallest multiple of 50 whose standard error at the defaults
# was at most the drawn 20,000 episodes' on each of the 14 seeds under
# benchmarks/reference on a 1500 m disk, lower still at 300 m), and the
# density multiple of each spatial row
_DISK_RADIUS = 300.0
_SPATIAL_EPISODES = 20_000
_INTEGRATED_EPISODES = 6_350
_SPATIAL_ROWS = {"spatial_slot_rate_1": 1.0, "spatial_run_freq_full_access": 1.0,
                 "spatial_vs_bernoulli_run_freq": 1.0, "spatial_slot_rate_2": 2.0}


def _validation_rows(cfg: RunConfig, scale: float, workers: int):
    params, shape, seed = cfg.params, cfg.shape, cfg.seed
    rows: list[_Row] = []

    # -- exact formula cross-checks ------------------------------------
    worst = 0.0
    for T in range(1, 11):
        for v in range(1, T + 1):
            sh = BlockShape(T, v)
            for x in (0.0, 0.31, 0.5, 0.77, 1.0):
                worst = max(worst, abs(chi(sh, x) - chi_bruteforce(sh, x)))
    rows.append(_exact_row("chi_closed_vs_bruteforce_maxdiff", 0.0, worst, 1e-12))

    worst = 0.0
    for alpha in (2.5, 3.0, 3.5, 4.0):
        p = replace(params, alpha=alpha)
        a = slot_success_prob(p, params.lam)
        b = slot_success_prob(p, params.lam, backend="quadrature")
        worst = max(worst, abs(a - b) / a)
    rows.append(_exact_row("slot_success_closed_vs_quadrature_maxrel", 0.0, worst, 1e-9))

    sh22 = BlockShape(2, 2)
    margin = min(
        d * chi(sh22, r) - chi(sh22, d * r)
        for d in np.linspace(0.1, 0.9, 9)
        for r in (0.25, 0.5, 0.9)
    )
    rows.append(
        _Row("block_vs_slot_access_margin_min", 0.0, margin, math.nan, "> 0", margin > 0.0)
    )

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 40))
        h = BlockHistory(
            shape.T,
            tuple(rng.random(k)),
            tuple(rng.random(k)),
            tuple(rng.random(k)),
        )
        worst = max(worst, abs(pcl_pmf(h).sum() - 1.0))
    rows.append(_exact_row("pcl_pmf_normalization_maxdev", 0.0, worst, 1e-9))

    # -- Bernoulli tier -------------------------------------------------
    # peak latency and age of the final block, from the driver's running sums,
    # with block 0 under the configured convention
    episodes = max(1, int(200_000 * scale))
    virtual_block = cfg.optimizer.virtual_block
    sh = BlockShape(5, 3)
    for i, (label, p_seq) in enumerate(
        (("const_p0.5", (0.5, 0.5, 0.5)), ("varying", (0.9, 0.1, 0.8)))
    ):
        rep = simulate_bernoulli(p_seq, sh, episodes, seed + 1 + i, virtual_block=virtual_block,
                                 workers=workers)
        if i == 0:
            rows.append(_stat_row("bern_run_freq_vs_chi", chi(sh, 0.5), rep["run_freq_b3"]))
        state = HistoryState.fold(sh.T, virtual_block, 0.0, p_seq[:-1], (0, 0), (0, 0))
        peak_latency, paoi = state.peak_metrics(p_seq[-1])
        rows.append(_stat_row(f"bern_peak_latency_{label}", peak_latency, rep["peak_latency"]))
        rows.append(_stat_row(f"bern_paoi_{label}", paoi, rep["paoi"]))

    # -- policy-chain tier (controllability recursions + gap distribution) --
    # weak access keeps P_O_final away from 1 so the z-test stays regular
    policies = [AccessPolicy(0.15, 0.3, 0.5)] * 8
    blocks = []
    P_O = 0.0
    for pol in policies:
        one = [np.array([d]) for d in pol.as_tuple()]  # a 1-candidate grid
        blocks.append(block_recursion(P_O, params, shape, *one))
        P_O = float(blocks[-1]["P_O"][0])
    rho_seq = [float(b["rho"][0]) for b in blocks]
    chain_episodes = max(1, int(100_000 * scale))
    rep = simulate_policy_chain(
        shape, policies, rho_seq, chain_episodes, seed + 3, workers=workers
    )
    rows.append(_stat_row("chain_pi_b1", float(blocks[0]["pi"][0]), rep["pi_b1"]))
    rows.append(_stat_row("chain_P_O_final", P_O, rep["P_O_b8"]))
    rows.append(
        _stat_row("chain_P_tilde_final", float(blocks[-1]["P_O_tilde"][0]), rep["P_tilde_b8"])
    )

    # -- renewal tier ----------------------------------------------------
    # with eta_pcl = 1 the gap CDF of the final block is its tau = 1 pmf
    c = 0.35
    k_renew = 12
    past = k_renew - 1
    state = HistoryState.fold(shape.T, "extend", 1.0, (0.5,) * past, (c,) * past, (c,) * past)
    pmf_tau1, pcl_mean = state.pcl_context()
    renew_episodes = max(1, int(200_000 * scale))
    rep = simulate_renewal_pcl((c,) * k_renew, (c,) * k_renew, renew_episodes, seed + 4,
                               workers=workers)
    rows.append(_stat_row("renewal_pcl_mean_const", pcl_mean, rep["pcl_mean"]))
    rows.append(_stat_row("renewal_pcl_pmf_tau1", pmf_tau1, rep["pcl_pmf_1"]))

    # -- spatial tier ----------------------------------------------------
    # The lambda x 1 rows draw every fading, the independent check of the
    # fading model; the lambda x 2 row integrates the fading out.  Both add
    # the field outside the disk in its exact factor exp(-lambda A_out(R)).
    spatial_episodes = max(1, int(_SPATIAL_EPISODES * scale))
    full = AccessPolicy(1.0, 0.0, 0.0)
    for i, (lam_scale, fading, episodes) in enumerate((
        (1.0, "drawn", spatial_episodes),
        (2.0, "integrated", max(1, int(_INTEGRATED_EPISODES * scale))),
    )):
        p = replace(params, lam=params.lam * lam_scale)
        rep = simulate_spatial(
            p, full, shape, episodes, seed + 5 + i, disk_radius=_DISK_RADIUS,
            workers=workers, fading=fading,
        )
        analytic = slot_success_prob(p, p.lam)
        rows.append(_stat_row(f"spatial_slot_rate_{i + 1}", analytic, rep["slot_rate"]))
        if i == 0:
            rows.append(
                _stat_row("spatial_run_freq_full_access", chi(shape, analytic), rep["run_freq"])
            )
            bern = simulate_bernoulli((analytic,), shape, spatial_episodes, seed + 7,
                                      workers=workers)
            spatial, bernoulli = rep["run_freq"], bern["run_freq_b1"]
            paired = Estimate(spatial.value, math.hypot(spatial.stderr, bernoulli.stderr),
                              spatial_episodes)
            rows.append(_stat_row("spatial_vs_bernoulli_run_freq", bernoulli.value, paired,
                                  z_max=3))
    return rows


def cmd_validate(cfg: RunConfig, scale: float = 1.0, workers: int = 1) -> int:
    """Analytic-vs-Monte-Carlo comparison suite; nonzero exit on any failure."""
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"--episodes-scale must be finite and > 0, got {scale}")
    try:
        tail = interference_tail(cfg.params, _DISK_RADIUS)
    except ValueError as exc:
        raise ConfigError(f"validate's spatial disk: {exc}") from exc
    rows = _validation_rows(cfg, scale, workers)
    comments = [
        "analytic vs Monte Carlo validation suite",
        "analytic: reference value; empirical: simulated estimate",
        "z: standardized discrepancy (nan for exact, tolerance-based rows)",
        f"episodes scale factor: {scale}",
    ]
    header = ["name", "analytic", "empirical", "z", "criterion", "pass"]
    n_fail = sum(not r.passed for r in rows)
    _emit(cfg, "validate", "validation", comments, header, [astuple(r) for r in rows],
          rows=len(rows), failures=n_fail, episodes_scale=scale,
          spatial_outside_exponent={name: multiple * cfg.params.lam * tail
                                    for name, multiple in _SPATIAL_ROWS.items()})
    width = max(len(r.name) for r in rows)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        z_txt = "     -" if math.isnan(r.z) else f"{r.z:+6.2f}"
        print(
            f"{status}  {r.name:<{width}}  analytic={r.analytic:.6g}  "
            f"empirical={r.empirical:.6g}  z={z_txt}  ({r.criterion})"
        )
    print(f"{len(rows) - n_fail}/{len(rows)} comparisons passed")
    return 0 if n_fail == 0 else 1


def cmd_demo_plant(cfg: RunConfig, g_pattern: str | None = None) -> int:
    """Replay one block of the demo plant and emit the slot-by-slot trace."""
    shape = cfg.shape
    try:
        plant = default_plant(shape.v)
    except ValueError as exc:
        raise ConfigError(f"demo-plant: {exc} (the demo plant exists for v <= 8)") from exc
    if g_pattern is not None:
        if len(g_pattern) != shape.T or set(g_pattern) - {"0", "1"}:
            raise ConfigError(
                f"--G must be a {shape.T}-character string of 0/1, got {g_pattern!r}"
            )
        flags = [int(ch) for ch in g_pattern]
    else:
        rho = slot_success_prob(cfg.params, cfg.params.lam)
        rng = np.random.default_rng(cfg.seed)
        flags = (rng.random(shape.T) < rho).astype(int).tolist()
    x0 = np.zeros(plant.n)
    trace = run_block(plant, shape, x0, flags)
    comments = [
        "slot-by-slot control-loop replay of one block",
        "slot: 0-based slot index; phase: control (delivering inputs) or dummy",
        "g: transmission success flag",
        "u_*: input applied at the actuator this slot (nan if none)",
        "xhat_*: controller state estimate after the slot",
    ]
    header = (
        ["slot", "phase", "g"]
        + [f"u_{j}" for j in range(plant.m)]
        + [f"xhat_{j}" for j in range(plant.n)]
    )
    rows = []
    for rec in trace.records:
        u = list(rec.u) if rec.u is not None else [math.nan] * plant.m
        rows.append([rec.slot, rec.phase, rec.g] + u + list(rec.x_hat))
    path = _emit(cfg, "demo-plant", "plant_trace", comments, header, rows, flags=flags,
                 controllable=trace.controllable, target_slot=trace.target_slot)
    outcome = (
        f"target reached at slot {trace.target_slot}"
        if trace.controllable
        else "target not reached"
    )
    print(f"wrote {path} ({outcome})")
    return 0


def cmd_chi_table(cfg: RunConfig, x_step: float = 0.05) -> int:
    """Dump the run probability chi over an x grid for every v up to T."""
    T = cfg.shape.T
    try:
        xs = _unit_grid(x_step, "x step")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = ["x"] + [f"chi_v{v}" for v in range(1, T + 1)]
    rows = np.column_stack([xs] + [chi(BlockShape(T, v), xs) for v in range(1, T + 1)]).tolist()
    path = _emit(
        cfg,
        "chi-table",
        "chi_table",
        [f"P(run of >= v successes in a {T}-slot block) vs per-slot success x"],
        header,
        rows,
    )
    print(f"wrote {path}")
    return 0


def cmd_success_prob(cfg: RunConfig, points: int = 41) -> int:
    """Dump the slot success probability vs effective density, both backends."""
    if points < 2:
        raise ConfigError("points must be >= 2")
    lams = np.linspace(0.0, 2.0 * cfg.params.lam, points)
    columns = [lams] + [slot_success_prob(cfg.params, lams, b) for b in ("closed", "quadrature")]
    rows = np.column_stack(columns).tolist()
    path = _emit(
        cfg,
        "success-prob",
        "success_prob",
        [
            "conditional slot success probability vs effective transmitter density (m^-2)",
            f"interference integral (closed form): {interference_integral(cfg.params)!r}",
        ],
        ["lambda_eff", "rho_closed", "rho_quadrature"],
        rows,
    )
    print(f"wrote {path}")
    return 0


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, val = pair.partition("=")
        overrides[key.strip()] = val.strip()
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockaloha",
        description="Block-Aloha wireless control network analytics and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, run) -> argparse.ArgumentParser:
        """A subcommand with the shared options; ``run(cfg, args)`` runs it."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config value (repeatable)")
        p.add_argument("--outdir", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="random seed (overrides config)")
        p.set_defaults(run=run)
        return p

    command("optimize", "per-block access policy optimization", lambda cfg, _: cmd_optimize(cfg))
    p = command("validate", "analytic vs Monte Carlo validation suite",
                lambda cfg, args: cmd_validate(cfg, args.episodes_scale, args.workers))
    p.add_argument("--workers", type=int, default=1, help="worker threads")
    p.add_argument("--episodes-scale", type=float, default=1.0, help="scale all episode counts")
    p = command("demo-plant", "slot-by-slot control loop replay",
                lambda cfg, args: cmd_demo_plant(cfg, args.G))
    p.add_argument("--G", help="success flags as a 0/1 string, e.g. 01110")
    p = command("chi-table", "dump the run probability over a grid",
                lambda cfg, args: cmd_chi_table(cfg, args.x_step))
    p.add_argument("--x-step", type=float, default=0.05)
    p = command("success-prob", "dump slot success probability curves",
                lambda cfg, args: cmd_success_prob(cfg, args.points))
    p.add_argument("--points", type=int, default=41)

    args = parser.parse_args(argv)
    try:
        overrides = _parse_overrides(args.overrides)
        if args.outdir is not None:
            overrides["outdir"] = args.outdir
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        return args.run(load_run_config(args.config, overrides), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

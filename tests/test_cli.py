import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockaloha
from blockaloha import BlockShape, NetworkParams, OptimizerConfig, chi, slot_success_prob
from blockaloha.cli import ConfigError, load_run_config, main, parse_config_file
from blockaloha.spatial import interference_tail


def run_cli(*args):
    return main(list(args))


def test_default_parameters():
    cfg = load_run_config()
    assert cfg.params.lam == 1e-4
    assert cfg.params.alpha == 3.0
    assert cfg.params.gamma == 0.1
    assert cfg.params.xi == pytest.approx(10.0)  # 40 dBm
    assert cfg.params.N0 == 1e-17
    assert cfg.shape.T == 5
    assert cfg.optimizer.eta_curr == 3.0
    assert cfg.optimizer.K == 400


def test_defaults_equal_the_library_defaults():
    # _DEFAULTS keeps raw strings, which the meta sidecar echoes; they must
    # resolve to the library's own defaults
    cfg = load_run_config()
    assert cfg.optimizer == OptimizerConfig()
    assert cfg.params.r0 == inspect.signature(NetworkParams).parameters["r0"].default


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# Validate's CLI seeds that have a stored benchmark reference (not 5 or 11).
_VALIDATE_SEEDS = (1, 2, 3, 4, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16)

# Every pinned run, by output directory, with its full argv; this one test
# checks every pinned output byte.  The file each run writes is pinned by its
# sha256 in tests/trace.sha256, tests/commands.sha256 or
# tests/validate.sha256.  optimize runs at the defaults, at the
# horizon-congested settings and once per convention flag: grid step 0.025
# scans 68,921 candidates in 34 slices, and grid-rank scans its whole grid in
# one; eta_pcl 0 keeps no pcl tail and eta_pcl 10 keeps ten entries, the two
# ends of the scan's one history input.  validate runs at each seed above at
# one worker, at seed 1 also at two workers, at blocks of 11 and 20 slots (2
# and 3 packed bytes per block) and with the boundary virtual block.
# demo-plant is not pinned: its pinv goes through LAPACK, whose last bits may
# differ between machines.
_PINNED_RUNS = {
    "trace-paper": "optimize",
    "trace-congested": "optimize --set lambda=2e-3 --set T=10 --set v=5 --set K=3000"
                       " --set grid_step=0.1",
    "trace-boundary": "optimize --set virtual_block=boundary --set K=60",
    "trace-fine": "optimize --set grid_step=0.025 --set K=20",
    "trace-gridrank": "optimize --set cdf_mode=grid-rank --set K=60",
    "trace-predominant": "optimize --set history_scalar=predominant --set K=60",
    "trace-eta0": "optimize --set eta_pcl=0 --set K=60",
    "trace-eta10": "optimize --set eta_pcl=10 --set K=60",
    "chi-table": "chi-table",
    "success-prob": "success-prob",
    **{f"val-s{seed}-w1": f"validate --seed {seed} --workers 1" for seed in _VALIDATE_SEEDS},
    "val-s1-w2": "validate --seed 1 --workers 2",
    "val-s1-T11-v4": "validate --seed 1 --set T=11 --set v=4",
    "val-s1-T20-v6": "validate --seed 1 --set T=20 --set v=6",
    "val-s1-boundary": "validate --seed 1 --set virtual_block=boundary",
}

# The benchmark's stored reference of each pinned output that has one.  Its
# row check is what decides the benchmark's pass_share: labels exact, the
# compared numbers within 1e-9, every validation row passed.  The references
# differ from today's outputs in last digits of the trace, in the four spatial
# rows' Monte Carlo fields and in the quadrature row's empirical field, so the
# hashes pin the bytes.
_BENCHMARK_REFERENCES = {
    "trace-paper": "horizon-paper.trace.csv.gz",
    "trace-congested": "horizon-congested.trace.csv.gz",
    **{f"val-s{seed}-w1": f"validate.seed{seed}.csv.gz" for seed in _VALIDATE_SEEDS},
    "val-s1-w2": "validate.seed1.csv.gz",
}


def _manifest(name):
    """{output path: sha256} of one tests/<name> manifest."""
    lines = (Path(__file__).parent / name).read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ") for line in lines)}


def test_outputs_match_the_sha256_manifests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import checks

    pinned = {}
    for name in ("trace.sha256", "commands.sha256", "validate.sha256"):
        pinned.update(_manifest(name))
    assert len(pinned) == len(_PINNED_RUNS)
    outputs = {path.split("/")[0]: path for path in pinned}
    assert outputs.keys() == _PINNED_RUNS.keys()
    references = {p.name for p in (BENCHMARKS / "reference").iterdir()}
    assert set(_BENCHMARK_REFERENCES.values()) == references
    for outdir, argv in _PINNED_RUNS.items():
        assert run_cli(*argv.split(), "--outdir", str(tmp_path / outdir)) == 0, outdir
    for path, digest in pinned.items():
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest, path
    for outdir, reference in _BENCHMARK_REFERENCES.items():
        path = outputs[outdir]
        result = checks.check_output(path.split("/")[1], (tmp_path / path).read_bytes(),
                                     checks.read_reference(BENCHMARKS / "reference" / reference))
        assert result.checked > 0 and result.failed == 0, (path, result)


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "lambda = 2e-4\n"
        "xi = 30dBm  # one watt\n"
        "v = 3\n"
    )
    cfg = load_run_config(str(path), {"v": "4", "seed": "9"})
    assert cfg.params.lam == 2e-4
    assert cfg.params.xi == pytest.approx(1.0)
    assert cfg.shape.v == 4  # CLI override beats the file
    assert cfg.seed == 9


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lambdda = 1e-4\n")
    with pytest.raises(ConfigError):
        load_run_config(str(path))
    with pytest.raises(ConfigError):
        load_run_config(None, {"nope": "1"})


def test_config_error_exit_code(tmp_path, capsys):
    assert run_cli("optimize", "--outdir", str(tmp_path), "--set", "alpha=1.5") == 2
    assert run_cli("optimize", "--outdir", str(tmp_path), "--set", "bogus=1") == 2
    assert run_cli("validate", "--outdir", str(tmp_path), "--workers", "0") == 2
    for scale in ("0", "-1", "nan"):
        assert run_cli("validate", "--outdir", str(tmp_path), "--episodes-scale", scale) == 2
    # seeds key 64-bit Philox streams, and validate uses seed+1..seed+7
    for seed in ("-1", str(2**64 - 7), str(2**64 - 1)):
        assert run_cli("validate", "--outdir", str(tmp_path), "--seed", seed) == 2
    assert run_cli("demo-plant", "--outdir", str(tmp_path), "--seed", "-3") == 2
    assert run_cli("optimize", "--outdir", str(tmp_path), "--set", "seed=-1") == 2
    # a grid step must be finite, > 0 and divide 1
    for step in ("0", "nan"):
        assert run_cli("optimize", "--outdir", str(tmp_path), "--set", f"grid_step={step}") == 2
        assert run_cli("chi-table", "--outdir", str(tmp_path), "--x-step", step) == 2
    # thresholds: eta_curr >= 0, eta_pcl finite and >= 0; network constants finite and > 0
    for setting in ("eta_curr=nan", "eta_pcl=nan", "eta_pcl=inf", "alpha=inf", "lambda=inf"):
        assert run_cli("optimize", "--outdir", str(tmp_path), "--set", "K=2",
                       "--set", setting) == 2
        assert "config error:" in capsys.readouterr().err
    # validate's 300 m spatial disk must reach 2^(1/alpha) r0 gamma^(1/alpha)
    assert run_cli("validate", "--outdir", str(tmp_path), "--set", "r0=3000") == 2
    assert "config error:" in capsys.readouterr().err
    assert load_run_config(None, {"seed": str(2**64 - 8)}).seed == 2**64 - 8


def test_overflowing_noise_exponent_gives_zero_success(tmp_path):
    # r0^alpha = 25^300 overflows a float: rho is 0, not an OverflowError
    assert run_cli("optimize", "--outdir", str(tmp_path), "--set", "K=2",
                   "--set", "alpha=300") == 0
    assert run_cli("success-prob", "--outdir", str(tmp_path), "--set", "alpha=300") == 0
    assert run_cli("validate", "--outdir", str(tmp_path), "--set", "alpha=300",
                   "--episodes-scale", "0.01") == 0
    for name, first, last in (("trace.csv", 4, 4), ("success_prob.csv", 1, 2)):
        lines = (tmp_path / name).read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert {float(x) for row in rows for x in row[first : last + 1]} == {0.0}


def test_optimize_where_the_interference_integral_overflows(tmp_path):
    # 2 pi I overflows at r0 = 1.2e154; the candidates with no transmitting
    # interferer used to get inf * 0 = nan for their slot probability
    assert run_cli("optimize", "--outdir", str(tmp_path), "--set", "r0=1.2e154",
                   "--set", "K=2") == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 2 and {float(row[4]) for row in rows} == {0.0}


def test_commands_where_r0_squared_overflows(tmp_path):
    # r0^2 overflows from r0 = 1.341e154, where the interference integral
    # used to raise OverflowError and every command that reads it exited 1
    for command in ("optimize", "success-prob", "demo-plant"):
        assert run_cli(command, "--outdir", str(tmp_path), "--set", "r0=1.4e154",
                       "--set", "K=2") == 0, command
    assert "nan" not in (tmp_path / "success_prob.csv").read_text()
    # at r0 = 1e200 the integral is inf but the noise exponent is 1: the
    # lambda_eff = 0 row is exp(-1), not exp(-1 - 0 * inf) = nan
    assert run_cli("success-prob", "--outdir", str(tmp_path), "--set", "r0=1e200",
                   "--set", "alpha=2.1", "--set", "xi=1e119", "--set", "N0=1e-300") == 0
    lines = (tmp_path / "success_prob.csv").read_text().splitlines()
    rows = [[float(x) for x in l.split(",")] for l in lines if l[0].isdigit()]
    assert rows[0][1:] == [pytest.approx(math.exp(-1.0), rel=1e-12)] * 2
    assert {x for row in rows[1:] for x in row[1:]} == {0.0}


def test_optimize_at_a_block_too_long_for_chi_binomials(tmp_path):
    # comb(1999, l - 1) overflows a float at T=2000, v=1: chi's chain route
    # gives a probability, not an OverflowError
    assert run_cli("optimize", "--outdir", str(tmp_path), "--set", "T=2000", "--set", "v=1",
                   "--set", "K=1") == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    row = [l.split(",") for l in lines if not l.startswith("#")][1]
    assert 0.0 <= float(row[5]) <= 1.0  # pi


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, kind):
    (tmp_path / "latin1.cfg").write_bytes(b"xi = 40dBm  # \xb5W\n")
    config = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
              "not-utf8": tmp_path / "latin1.cfg"}[kind]
    assert run_cli("optimize", "--outdir", str(tmp_path), "--config", str(config)) == 2
    assert "config error:" in capsys.readouterr().err


def test_parse_config_rejects_garbage(tmp_path):
    path = tmp_path / "g.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_chi_table_matches_library(tmp_path, capsys):
    assert run_cli("chi-table", "--outdir", str(tmp_path), "--x-step", "0.25") == 0
    lines = (tmp_path / "chi_table.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0].split(",")
    assert header[0] == "x"
    data = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(data) == 5
    for row in data:
        x = float(row[0])
        for j, v in enumerate(range(1, 6), start=1):
            assert float(row[j]) == pytest.approx(chi(BlockShape(5, v), x), abs=1e-15)


def test_success_prob_output(tmp_path):
    assert run_cli("success-prob", "--outdir", str(tmp_path), "--points", "3") == 0
    lines = (tmp_path / "success_prob.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    cfg = load_run_config()
    for lam, closed, quadr in rows:
        assert float(closed) == slot_success_prob(cfg.params, float(lam))
        assert float(quadr) == pytest.approx(float(closed), rel=1e-9)


def test_success_prob_backends_agree_at_large_alpha(tmp_path):
    # at alpha=50 the mass of u / (1 + u^a) lies below u = 1, where adaptive
    # quadrature once missed it; r0=0.5 keeps the noise term from zeroing rho
    assert run_cli("success-prob", "--outdir", str(tmp_path),
                   "--set", "alpha=50", "--set", "r0=0.5") == 0
    lines = (tmp_path / "success_prob.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 41
    for _, closed, quadr in rows:
        assert float(quadr) == pytest.approx(float(closed), rel=1e-12, abs=0.0)
    assert float(rows[-1][1]) < 0.99990


_WITHOUT_SCIPY = """
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"import of {name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
from blockaloha.cli import main

for argv in (["validate", "--episodes-scale", "0.01"], ["success-prob"],
             ["optimize", "--set", "K=2"], ["chi-table"], ["demo-plant"]):
    code = main([*argv, "--outdir", sys.argv[1]])
    assert code == 0, (argv, code)
"""


def test_cli_commands_run_without_scipy(tmp_path):
    src = str(Path(blockaloha.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "validation.meta.json").read_text())
    assert set(meta["versions"]) == {"blockaloha", "numpy"}


def test_module_entry_point_exit_codes(tmp_path):
    # python -m blockaloha.cli: its __main__ guard passes main's exit code on
    src = str(Path(blockaloha.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def module(*args):
        return subprocess.run([sys.executable, "-m", "blockaloha.cli", *args, "--outdir",
                               str(tmp_path)], env=env, capture_output=True, text=True,
                              timeout=120)

    proc = module("chi-table")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256((tmp_path / "chi_table.csv").read_bytes()).hexdigest()
    assert digest == _manifest("commands.sha256")["chi-table/chi_table.csv"]
    proc = module("chi-table", "--set", "T=0")
    assert proc.returncode == 2
    assert "config error:" in proc.stderr


def test_demo_plant_pattern(tmp_path):
    code = run_cli(
        "demo-plant", "--outdir", str(tmp_path), "--set", "v=3", "--G", "01110"
    )
    assert code == 0
    meta = json.loads((tmp_path / "plant_trace.meta.json").read_text())
    assert meta["controllable"] is True
    assert meta["target_slot"] == 3
    lines = (tmp_path / "plant_trace.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert [r[1] for r in rows] == ["control"] * 4 + ["dummy"]


def test_demo_plant_all_success(tmp_path):
    assert run_cli("demo-plant", "--outdir", str(tmp_path), "--G", "11111") == 0
    meta = json.loads((tmp_path / "plant_trace.meta.json").read_text())
    assert meta["target_slot"] == 1  # v = 2 successes complete at slot index 1


def test_demo_plant_bad_pattern(tmp_path):
    assert run_cli("demo-plant", "--outdir", str(tmp_path), "--G", "01") == 2
    assert run_cli("demo-plant", "--outdir", str(tmp_path), "--G", "01x10") == 2


def test_demo_plant_beyond_v8_is_a_config_error(tmp_path, capsys):
    # the demo plant's controllability matrix falls below the rank cutoff at v = 9
    assert run_cli("demo-plant", "--outdir", str(tmp_path), "--set", "T=9", "--set", "v=8") == 0
    assert run_cli("demo-plant", "--outdir", str(tmp_path), "--set", "T=9", "--set", "v=9") == 2
    assert "v <= 8" in capsys.readouterr().err


def test_demo_plant_seeded_matches_run_detector(tmp_path):
    from oracles import max_run

    for seed in (1, 2, 3, 4):
        assert run_cli(
            "demo-plant", "--outdir", str(tmp_path), "--seed", str(seed)
        ) == 0
        meta = json.loads((tmp_path / "plant_trace.meta.json").read_text())
        assert meta["controllable"] == (max_run(meta["flags"]) >= 2)


def test_optimize_small_run(tmp_path):
    assert run_cli("optimize", "--outdir", str(tmp_path), "--set", "K=3") == 0
    text = (tmp_path / "trace.csv").read_text()
    lines = text.splitlines()
    header_comments = [l for l in lines if l.startswith("#")]
    assert any("P_O" in c for c in header_comments)  # documented columns
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    assert rows[0][0] == "k"
    assert len(rows) == 4  # header + 3 blocks
    meta = json.loads((tmp_path / "trace.meta.json").read_text())
    assert meta["config"]["K"] == "3"
    assert "versions" in meta


def test_optimize_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run_cli("optimize", "--outdir", str(d), "--set", "K=4") == 0
    assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
    assert (d1 / "trace.meta.json").read_text() == (d2 / "trace.meta.json").read_text()


def test_validate_quick_passes_and_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    code1 = run_cli(
        "validate", "--outdir", str(d1), "--episodes-scale", "0.05", "--workers", "1"
    )
    code2 = run_cli(
        "validate", "--outdir", str(d2), "--episodes-scale", "0.05", "--workers", "3"
    )
    assert code1 == 0 and code2 == 0
    assert (d1 / "validation.csv").read_bytes() == (d2 / "validation.csv").read_bytes()
    lines = (d1 / "validation.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) >= 10
    # each spatial row's closed-form outside-disk exponent goes to the sidecar
    cfg = load_run_config()
    lam_tail = cfg.params.lam * interference_tail(cfg.params, 300.0)
    exponent = json.loads((d1 / "validation.meta.json").read_text())["spatial_outside_exponent"]
    assert exponent == {"spatial_slot_rate_1": lam_tail, "spatial_run_freq_full_access": lam_tail,
                        "spatial_vs_bernoulli_run_freq": lam_tail,
                        "spatial_slot_rate_2": 2.0 * lam_tail}
    assert 3.2e-3 < exponent["spatial_slot_rate_1"] < 3.3e-3
    assert all(len(row.split(",")) == 6 for row in rows)


def test_validate_equal_estimates_score_z_zero(tmp_path):
    # one episode per tier: both run-frequency estimates are 1 with zero stderr
    run_cli("validate", "--outdir", str(tmp_path), "--episodes-scale", "1e-9")
    lines = (tmp_path / "validation.csv").read_text().splitlines()
    rows = {r[0]: r for r in (l.split(",") for l in lines if not l.startswith("#"))}
    _, analytic, empirical, z, _, passed = rows["spatial_vs_bernoulli_run_freq"]
    assert float(analytic) == float(empirical) == 1.0
    assert float(z) == 0.0
    assert passed == "True"


@pytest.mark.parametrize("overrides, scale", [
    (("lambda=1e-12",), "0.05"),  # every drawn slot succeeds; rho = 1 - 1.6e-15
    (("alpha=300", "r0=0.5"), "0.01"),  # every slot of a small run succeeds
    (("lambda=1e-13",), "0.05"),  # the integrated slots hold one constant probability
])
def test_validate_passes_where_a_spatial_rate_sample_is_constant(tmp_path, overrides, scale):
    # a sample with no failure has zero stderr; it is scored against the
    # binomial spread of the reference, not failed with z = inf
    sets = [arg for kv in overrides for arg in ("--set", kv)]
    assert run_cli("validate", *sets, "--episodes-scale", scale, "--outdir", str(tmp_path)) == 0


def test_validate_perturbation_fails(tmp_path, monkeypatch):
    # a 5% bias on every z-tested analytic reference must fail the suite
    import blockaloha.cli

    stat_row = blockaloha.cli._stat_row
    monkeypatch.setattr(blockaloha.cli, "_stat_row",
                        lambda name, analytic, est, **kw: stat_row(name, analytic * 1.05, est,
                                                                   **kw))
    code = run_cli("validate", "--outdir", str(tmp_path), "--episodes-scale", "0.05")
    assert code == 1
    lines = (tmp_path / "validation.csv").read_text().splitlines()
    passed = {l.split(",")[0]: l.split(",")[-1] for l in lines if not l.startswith("#")}
    assert passed["spatial_vs_bernoulli_run_freq"] == "False"


def test_validate_reads_latency_references_from_history_state(monkeypatch):
    # the peak latency/age and pcl rows must check the running sums the
    # optimizer uses, and match the array-form oracles on BlockHistory
    import blockaloha.cli
    import blockaloha.latency
    from blockaloha import BlockHistory
    from blockaloha.cli import _validation_rows
    from oracles import array_paoi, array_peak_latency, expected_pcl

    def refuse(*args, **kwargs):
        raise AssertionError("validate called a BlockHistory convenience function")

    for module in (blockaloha.cli, blockaloha.latency):
        for name in ("expected_peak_latency", "expected_paoi", "expected_pcl"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    rows = {r.name: r.analytic for r in _validation_rows(load_run_config(), 1e-3, 1)}
    monkeypatch.undo()
    for label, p in (("const_p0.5", (0.5, 0.5, 0.5)), ("varying", (0.9, 0.1, 0.8))):
        hist = BlockHistory(5, p, (0,) * 3, (0,) * 3)
        assert rows[f"bern_peak_latency_{label}"] == pytest.approx(
            array_peak_latency(hist), rel=1e-12)
        assert rows[f"bern_paoi_{label}"] == pytest.approx(array_paoi(hist), rel=1e-12)
    hist = BlockHistory(5, (0.5,) * 12, (0.35,) * 12, (0.35,) * 12)
    assert rows["renewal_pcl_mean_const"] == pytest.approx(expected_pcl(hist), rel=1e-12)


@pytest.mark.parametrize("mode", ["extend", "boundary"])
def test_validate_bernoulli_rows_follow_virtual_block(monkeypatch, mode):
    # the configured block-0 convention reaches both the simulation and the
    # analytic fold of the latency rows; the spatial companion keeps its default
    import blockaloha.cli
    from blockaloha import BlockHistory
    from blockaloha.cli import _validation_rows
    from oracles import array_paoi, array_peak_latency

    modes = []
    simulate = blockaloha.cli.simulate_bernoulli

    def record(*args, virtual_block="extend", **kwargs):
        modes.append(virtual_block)
        return simulate(*args, virtual_block=virtual_block, **kwargs)

    monkeypatch.setattr(blockaloha.cli, "simulate_bernoulli", record)
    cfg = load_run_config(overrides={"virtual_block": mode})
    rows = {r.name: r.analytic for r in _validation_rows(cfg, 1e-3, 1)}
    assert modes == [mode, mode, "extend"]
    for label, p in (("const_p0.5", (0.5, 0.5, 0.5)), ("varying", (0.9, 0.1, 0.8))):
        hist = BlockHistory(5, p, (0,) * 3, (0,) * 3)
        assert rows[f"bern_peak_latency_{label}"] == pytest.approx(
            array_peak_latency(hist, mode), rel=1e-12)
        assert rows[f"bern_paoi_{label}"] == pytest.approx(array_paoi(hist, mode), rel=1e-12)


def test_validate_spatial_rows_use_their_fading_paths(monkeypatch):
    # lambda x 1: drawn fading, the independent check of the fading model;
    # lambda x 2 (spatial_slot_rate_2 only): the fading-integrated estimator
    import blockaloha.cli
    from blockaloha.cli import _validation_rows

    calls = []
    simulate = blockaloha.cli.simulate_spatial

    def record(params, *args, fading="drawn", **kwargs):
        calls.append((params.lam, fading))
        return simulate(params, *args, fading=fading, **kwargs)

    monkeypatch.setattr(blockaloha.cli, "simulate_spatial", record)
    _validation_rows(load_run_config(), 1e-3, 1)
    assert calls == [(1e-4, "drawn"), (2e-4, "integrated")]


def test_integrated_stderr_at_validate_count_is_at_most_drawn():
    # validate's lambda x 2 row at its full episode count and default seed:
    # no wider than the binomial stderr of the drawn tier's 20,000 episodes
    from blockaloha import AccessPolicy, NetworkParams, simulate_spatial
    from blockaloha.cli import _DISK_RADIUS, _INTEGRATED_EPISODES, _SPATIAL_EPISODES

    cfg = load_run_config()
    p = NetworkParams(2 * cfg.params.lam, cfg.params.alpha, cfg.params.gamma, cfg.params.xi,
                      cfg.params.N0, cfg.params.r0)
    rho = slot_success_prob(p, p.lam)
    rep = simulate_spatial(p, AccessPolicy(1.0, 0.0, 0.0), cfg.shape, _INTEGRATED_EPISODES,
                           cfg.seed + 6, disk_radius=_DISK_RADIUS, fading="integrated")
    drawn = math.sqrt(rho * (1.0 - rho) / (_SPATIAL_EPISODES * cfg.shape.T))
    assert rep["slot_rate"].stderr <= drawn
    assert abs(rep["slot_rate"].z_against(rho)) < 3.0


def test_csv_float_format_round_trips(tmp_path):
    assert run_cli("optimize", "--outdir", str(tmp_path), "--set", "K=2") == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    from blockaloha import run_horizon

    cfg = load_run_config(None, {"K": "2"})
    records = run_horizon(cfg.params, cfg.shape, cfg.optimizer)
    assert float(rows[0][4]) == records[0].rho  # exact round trip
    assert float(rows[1][15]) == records[1].cost

"""The traced benchmark wraps package names from outside; they must exist.

``benchmarks/run.py --trace 1`` replaces module attributes of the package
with timing wrappers and calls ``effective_densities`` to count spatial
interferers.  A removed or renamed name breaks that run, so build the full
probe here and drive one small pass of each command it wraps through it.
"""

from pathlib import Path

import blockaloha
import blockaloha.cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_traced_benchmark_probe_wraps_existing_names(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import run

    originals = {name: getattr(blockaloha.cli, name) for name in run.TIERS.values()}
    probe = run.Probe(blockaloha, full=True)
    try:
        assert blockaloha.cli.main(
            ["validate", "--episodes-scale", "0.01", "--outdir", str(tmp_path / "val")]
        ) == 0
        assert blockaloha.cli.main(
            ["optimize", "--set", "K=2", "--outdir", str(tmp_path / "opt")]
        ) == 0
    finally:
        probe.close()
    for tier in run.TIERS:
        assert probe.counts[f"montecarlo.{tier}.slots"] > 0, tier
    assert probe.counts["montecarlo.spatial.interferers"] > 0
    assert probe.counts["optimizer.candidates"] == 2 * 21**3
    assert probe.counts["runlength.chi.points"] > 0
    assert probe.counts["cli.bytes_written"] > 0
    for name, original in originals.items():
        assert getattr(blockaloha.cli, name) is original, name

"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from source import ROOT, add_source_path

add_source_path()

import run  # noqa: E402
import workloads  # noqa: E402


def _phaselab_attributes():
    return {name: {key: id(value) for key, value in vars(mod).items()}
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "phaselab" or name.startswith("phaselab."))}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_phaselab_source_it_exits_nonzero_and_prints_nothing():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pgd_sparse",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_prints_every_metric(name, trace, capsys):
    before = _phaselab_attributes()
    result, report = run.run(name, seed=3, seconds=0.1, trace=trace, tiny=True)
    assert _phaselab_attributes() == before

    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert report["context"]["numpy"] and "blas_thread_env" in report["context"]

    run.emit(result, report, run.write_report(report))
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    quality = {"fail_frac"} | ({"recovery_frac"} if name == "oracle_exact"
                               else {"median_product_error"} if name.startswith("pgd") else set())
    assert set(report["quality"]) == quality
    units = {**expected, **{q: run.QUALITY_UNITS[q] for q in quality}}
    for metric, unit in units.items():
        pattern = rf"^  {re.escape(metric)} = \S+ {re.escape(unit)}$"
        assert any(re.match(pattern, line) for line in lines), metric

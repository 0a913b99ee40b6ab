"""Self-test of the benchmark: every workload at a tiny run length.

    python3 -m pytest perfbench

Checks that each workload runs correctly in both modes and that the JSON
result carries exactly the metrics BENCHMARK.json declares, with their
units, while the report also names the metrics kept out of the JSON.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "0", "--trace", str(trace), "--trials-per-point", "4",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    report, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    named = {line.split()[0] for line in report}
    extra = run.RAW + [("failed_frac", "fraction")] + (run.REPORT_ONLY if trace else [])
    for name, unit in [(m["name"], m["unit"]) for m in declared] + extra:
        assert name in named, name
        assert any(line.split()[:3:2] == [name, unit] for line in report), (name, unit)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "child.py"):
        (copy / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "fig3-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

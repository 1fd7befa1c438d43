"""Smoke tests for the benchmark harness, so that it cannot rot.

    python3 -m pytest bench

Every workload runs at its tiny smoke size with all checks on, traced and
untraced; the helpers that compute checks and self times are tested on
hand-made inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path[:0] = [str(run.SRC)]

from rpyspect.formats import save_cre  # noqa: E402
from rpyspect.model import CitedReference, CRVariant, Dataset  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_spec_names_the_workloads_of_workloads_json():
    with open(run.BENCH / "workloads.json", encoding="utf-8") as fh:
        assert sorted(WORKLOADS) == sorted(json.load(fh)["workloads"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_every_check(workload, trace):
    # Seed 0 is the digest seed, so the outputs are compared byte for byte.
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "8", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if trace == "0":
        assert f"on corpus {run.CORPORA_PER_SEED - 1}:" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert not list(run.WORK.glob(f"{workload}-smoke-0-*"))


def test_smoke_partition_union_on_another_seed():
    proc = bench("--workload", "partition_union", "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["clustering.dp_calls"]["value"] == 0
    assert metrics["sampling.early_stops"]["value"] == 4


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def small_dataset() -> Dataset:
    variants = {}
    for i, ncr in enumerate((3, 1, 2)):
        key = f"AUTHOR {i}, 1990, J"
        ref = CitedReference(raw=key, author=f"AUTHOR {i}", rpy=1990, source="J")
        variants[key] = CRVariant(key=key, reference=ref, ncr=ncr, n_py_years=1)
    return Dataset(variants=variants, n_citing=1, n_cr_total=6)


def test_check_outputs_reports_each_kind_of_fault(tmp_path):
    save_cre(small_dataset(), tmp_path / "out.cre")
    for name in ("out_CR.csv", "out_GRAPH.csv"):
        (tmp_path / name).write_text("x\n")
    truth = {f"AUTHOR {i}, 1990, J": n for i, n in enumerate((3, 1, 2))}
    digests = run.output_digests(tmp_path)
    assert run.check_outputs(tmp_path, truth, digests) == []

    assert "ground truth" in " ".join(run.check_outputs(tmp_path, {**truth, "X": 1}, None))
    assert "digests" in " ".join(run.check_outputs(tmp_path, None, {**digests, "extra": "0"}))

    blob = bytearray((tmp_path / "out.cre").read_bytes())
    blob[40] ^= 0x20
    (tmp_path / "out.cre").write_bytes(bytes(blob))
    assert "does not reload" in " ".join(run.check_outputs(tmp_path, None, None))


def test_self_time_subtracts_child_spans():
    spans = [["engine.execute", 0.0, 10.0, None], ["wos.import", 1.0, 5.0, 0], ["model.aggregate", 4.0, 5.0, 1]]
    total, own = run.self_times(spans)
    assert total["engine.execute"] == 10.0
    assert own == {"engine.execute": 6.0, "wos.import": 3.0, "model.aggregate": 1.0}


def test_memory_contract_allows_one_record_above_max_cr():
    doc = {"imports": [
        {"mode": "RANDOM", "max_cr": 100, "peak_live_refs": 125},
        {"mode": "NONE", "max_cr": 0, "peak_live_refs": 10_000},
    ]}
    assert run.check_memory_contract(doc, 25) == []
    doc["imports"][0]["peak_live_refs"] = 126
    assert len(run.check_memory_contract(doc, 25)) == 1

"""Smoke test for the benchmark: every workload at a tiny shape, traced and
untraced, prints valid JSON naming every metric in BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402  (after the path it lives on)
# cub-eval runs by hand only; BENCHMARK.json lists the gated workloads
WORKLOADS = ["synth-train", "cub-train", "cub-eval"]


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    """The files a benchmark checkout holds, copied so runs leave nothing here."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for rel in SPEC["paths"] + (["src"] if with_src else []):
        shutil.copytree(ROOT / rel, dest / rel,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return dest


def run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable if c == "python3" else c for c in SPEC["command"]]
                          + list(args), cwd=checkout, capture_output=True, text=True,
                          timeout=180)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return copy_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(checkout, workload, trace):
    proc = run(checkout, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    if workload == "cub-eval":  # trains nothing, so it has no train throughput
        spec = [m for m in spec if m["name"] != "train_samples_per_s"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    provenance = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
    assert provenance["seed"] == 3 and provenance["src_lines"] > 0


def test_sustained_rate_weights_pieces_by_time():
    # nine fast 0.1-s pieces and one slow 1-s piece: the slow one is most of the time
    assert bench.sustained_rate([(10.0, 0.1)] * 9 + [(1.0, 1.0)], 0.1) == 1.0
    assert bench.sustained_rate([(10.0, 0.1)] * 9 + [(1.0, 1.0)], 0.5) == 1.0
    # a slow blip shorter than a tenth of the time does not set the rate
    assert bench.sustained_rate([(5.0, 1.0)] * 9 + [(1.0, 0.1)], 0.1) == 5.0


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_same_seed_reuses_cache_and_repeats_results(checkout):
    runs = [run(checkout, "--workload", "cub-eval", "--seed", "5", "--seconds", "1",
                "--trace", "0", "--tiny") for _ in range(2)]
    infos = [json.loads(p.stdout.strip().splitlines()[-2])["info"] for p in runs]
    assert infos[1]["cache_reused"] is True
    assert infos[0]["seed_scores"] == infos[1]["seed_scores"]
    other = run(checkout, "--workload", "cub-eval", "--seed", "6", "--seconds", "1",
                "--trace", "0", "--tiny")
    assert json.loads(other.stdout.strip().splitlines()[-2])["info"]["cache_reused"] is False


def test_fails_without_the_program(tmp_path):
    proc = run(copy_checkout(tmp_path, with_src=False), "--workload", "synth-train",
               "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

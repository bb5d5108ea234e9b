"""Self-test of the benchmark at smoke size.

Checks what the benchmark's numbers rest on: the same seed gives the same
inputs and the same exact meters, another seed gives other inputs, the
traced run leaves no wrapper behind and does not change what it measures,
and ``BENCHMARK.json`` names exactly the metrics the code reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def smoke(name, seed, tmp_path, tracer=None):
    workroot = tmp_path / f"work-{seed}"
    fsync = os.fsync
    phase = workloads.run_phase(name, workloads.SMOKE, seed, 0.0, 1, tracer, workroot)
    assert os.fsync is fsync
    return phase


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_repeats_exact_meters_and_inputs(name, tmp_path):
    first = smoke(name, 3, tmp_path)
    second = smoke(name, 3, tmp_path)
    assert not first.errors and not second.errors
    assert first.failed == second.failed == 0
    assert first.exact and first.exact == second.exact
    assert first.provenance == second.provenance
    other = smoke(name, 4, tmp_path)
    assert other.provenance["digest"] != first.provenance["digest"]


def _wrappable():
    """Every attribute a tracer may replace, by identity."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro":
            for attr, value in list(vars(module).items()):
                found[(name, attr)] = value
    for layer in tracing.LAYERS:
        if layer.owner is not None:
            owner = getattr(sys.modules[layer.module], layer.owner)
            found[(layer.owner, layer.attribute)] = vars(owner)[layer.attribute]
    return found


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_unwraps(name, tmp_path):
    plain = smoke(name, 5, tmp_path)
    before = _wrappable()
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.installed > len(tracing.layer_names())
    try:
        traced = smoke(name, 5, tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.installed == 0
    after = _wrappable()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not traced.errors
    assert traced.exact == plain.exact
    entry = "core.dispatch.estimate" if name[:3] == "we_" else "service.server.step"
    assert tracer.report()[f"{entry}.calls"] >= len(traced.op_s)
    coverage, _ = tracer.coverage(sum(traced.op_s))
    assert 0.8 <= coverage <= 1.0 + 1e-9


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_without_program_source_fails_without_a_result(tmp_path):
    command = [sys.executable, str(HERE / "run.py"), "--workload", "we_batch"]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""The benchmark's own checks: ``python3 -m pytest perfbench -q``.

Covers the seeded campaign-input generator (determinism, seed
sensitivity with an unchanged size distribution, every input running
natively to completion), the span arithmetic behind the per-layer
numbers, the machine-speed probes behind reference-speed seconds, and
agreement between ``BENCHMARK.json`` and the metrics the
benchmark prints.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import pytest

import exprgen
from common import ROOT, SRC
from spans import layer_metrics
from speed import Monitor, Sampler

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

ROUNDS = 12


def _runs(seed: int) -> list[list[bytes]]:
    return [exprgen.campaign_input(seed, client, r)
            for client in (0, 1) for r in range(ROUNDS)]


def test_same_seed_same_inputs():
    assert _runs(7) == _runs(7)


def test_other_seed_other_inputs_same_size_distribution():
    a, b = _runs(7), _runs(8)
    assert a != b
    assert not set(map(tuple, a)) & set(map(tuple, b))
    for runs in (a, b):
        assert all(len(run) == exprgen.EXPRS_PER_RUN for run in runs)
        assert all(0 < len(line) <= exprgen.MAX_LINE
                   for run in runs for line in run)
    lengths_a = [len(line) for run in a for line in run]
    lengths_b = [len(line) for run in b for line in run]
    qa = statistics.quantiles(lengths_a, n=4)
    qb = statistics.quantiles(lengths_b, n=4)
    for x, y in zip(qa, qb, strict=True):
        assert abs(x - y) <= 0.35 * max(x, y)


def test_only_the_advertised_alphabet():
    allowed = set(b"0123456789+-*/%() ")
    for run in _runs(3):
        for line in run:
            assert set(line) <= allowed


@pytest.mark.parametrize("compiler", ["gcc12", "gcc44"])
def test_generated_inputs_run_natively_to_completion(compiler):
    from repro.emu.machine import run_binary
    from repro.workloads import WORKLOADS
    image = WORKLOADS["gcc"].compile(compiler, "3")
    for seed in (1, 2, 3):
        for run in _runs(seed)[::3]:
            result = run_binary(image, run)
            assert result.exit_code == 0
            out = result.stdout.decode()
            assert "[errors]" not in out
            assert f"compiled {len(run)} expressions" in out


def test_self_time_subtracts_children():
    spans = [
        ["recover_vararg_calls", 0.0, 10.0, None, 2],
        ["Interpreter.run", 1.0, 4.0, 0, None],
        ["Interpreter.run", 5.0, 9.0, 0, None],
        ["ReplayEngine.validate", 10.0, 16.0, None, "ok"],
        ["Interpreter.run", 11.0, 15.0, 3, None],
        ["ReplayEngine.validate", 16.0, 16.5, None, "skipped"],
    ]
    m = layer_metrics(spans)
    assert m["varargs.self_s"] == pytest.approx(3.0)
    assert m["varargs.sites"] == 2
    assert m["interp.runs.varargs"] == 2
    assert m["interp.runs.validate"] == 1
    assert m["interp.run_s"] == pytest.approx(11.0)
    assert m["replay.validate_s"] == pytest.approx(6.5)
    assert m["replay.validate_calls"] == 2
    assert m["replay.validate_skipped"] == 1


def test_sampler_reports_reference_seconds():
    with Sampler() as sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.probes) >= 3
    assert 0.15 < sampler.wall < 0.25
    assert sampler.seconds == pytest.approx(sampler.wall * sampler.speed)


def test_monitor_probes_until_closed(tmp_path):
    monitor = Monitor(tmp_path / "speed.txt")
    start = time.perf_counter()
    time.sleep(0.3)
    end = time.perf_counter()
    monitor.close()
    assert len(monitor.samples) >= 3
    assert monitor.speed(start, end) > 0
    assert monitor.seconds(start, end) == pytest.approx(
        (end - start) * monitor.speed(start, end))


def test_benchmark_json_matches_printed_metrics():
    from run import END_TO_END, PER_LAYER, WORKLOADS
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER

"""Replay-engine benches: refinement wall time with the replay
optimizations (dedup + fingerprint-skipped validation) against the
pre-engine baseline sweep behaviour.

Runs as the third ``tools/bench.sh`` pass and lands in
``BENCH_replay.json``: each bench's ``extra_info`` records the baseline
and optimized refinement wall times, the speedup, the validation-skip
hit rate, and the dedup count, so a CI job can diff a run against a
saved baseline.

``REPRO_REPLAY_BASELINE=1`` restores the old behaviour (every input
replayed at every stage, every validation sweep executed); the headline
speedup is the optimized serial engine vs that baseline.  The dedup and
skip wins carry the ratio, which is why the workload carries duplicated
inputs (as real trace sets do: the same seed input is typically traced
under several configurations).
"""

import os
import time

import pytest

from repro import obs
from repro.cc import compile_source
from repro.core.driver import wytiwyg_recompile
from repro.emu import trace_binary

pytestmark = pytest.mark.bench

#: Exit-code workload: no printf, so the varargs refinement is a no-op
#: and its validation sweep is fingerprint-skipped.
SOURCE = r"""
int mix(int seed, int rounds) {
    int acc = seed;
    for (int i = 0; i < rounds; i++) {
        acc = acc * 31 + i;
        if (acc > 1000000) acc = acc % 1000003;
    }
    return acc;
}
int main() {
    int n = read_int();
    int seed = read_int();
    return mix(seed, n * 40) % 97;
}
"""

#: >= 4 distinct inputs, each traced twice (8 runs total).
DISTINCT = [[40, 1], [50, 2], [60, 3], [70, 4]]
INPUTS = DISTINCT + DISTINCT


@pytest.fixture(scope="module")
def workload():
    image = compile_source(SOURCE, "gcc12", "3", "replay_bench")
    traces = trace_binary(image, INPUTS)
    return image, traces


def _timed_recompile(image, traces, baseline=False):
    old = os.environ.get("REPRO_REPLAY_BASELINE")
    if baseline:
        os.environ["REPRO_REPLAY_BASELINE"] = "1"
    else:
        os.environ.pop("REPRO_REPLAY_BASELINE", None)
    try:
        start = time.perf_counter()
        result = wytiwyg_recompile(image, INPUTS, traces=traces,
                                   allow_fallback=False)
        return time.perf_counter() - start, result
    finally:
        if old is None:
            os.environ.pop("REPRO_REPLAY_BASELINE", None)
        else:
            os.environ["REPRO_REPLAY_BASELINE"] = old


def test_bench_replay_speedup(benchmark, workload):
    """Optimized refinement vs the pre-engine baseline; the outputs
    must be byte-identical and the win >= 1.5x."""
    image, traces = workload

    baseline_s, baseline_result = _timed_recompile(
        image, traces, baseline=True)

    obs.enable(reset=True)
    try:
        serial_s, serial_result = benchmark.pedantic(
            lambda: _timed_recompile(image, traces),
            rounds=1, iterations=1)
        counters = dict(obs.recorder().registry.counters)
    finally:
        obs.disable()

    # Functional equivalence: the optimized engine recompiles the same
    # binary as the baseline sweep (the replay engine's determinism
    # contract).
    assert serial_result.recovered.to_json() == \
        baseline_result.recovered.to_json()
    assert not serial_result.fallback

    skipped = counters.get("replay.validations_skipped", 0)
    deduped = counters.get("replay.deduped", 0)
    assert skipped >= 1, "no-op varargs stage must skip its validation"
    assert deduped == len(INPUTS) - len(DISTINCT)

    speedup = baseline_s / serial_s
    benchmark.extra_info["baseline_seconds"] = baseline_s
    benchmark.extra_info["serial_seconds"] = serial_s
    benchmark.extra_info["speedup_vs_baseline"] = speedup
    benchmark.extra_info["validations_skipped"] = skipped
    # Three refinement validation sweeps per pipeline run.
    benchmark.extra_info["validation_skip_rate"] = skipped / 3
    benchmark.extra_info["inputs_deduped"] = deduped
    benchmark.extra_info["replay_runs"] = counters.get("replay.runs", 0)
    assert speedup >= 1.5, (
        f"replay engine speedup {speedup:.2f}x < 1.5x "
        f"(baseline {baseline_s:.2f}s, serial {serial_s:.2f}s)")

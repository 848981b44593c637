"""End-to-end observability of a full recompile, and the observer-effect
guard: enabling repro.obs must never change what the pipeline produces."""

import copy

import pytest

from repro import obs
from repro.core.driver import wytiwyg_recompile

STAGES = ("trace", "lift", "varargs", "regsave", "canonicalize",
          "bounds", "optimize", "recompile")
IR_STAGES = STAGES[1:]


@pytest.fixture(scope="module")
def report(kernel_image):
    obs.enable(reset=True)
    try:
        result = wytiwyg_recompile(kernel_image, [[]])
        doc = obs.export(obs.recorder())
    finally:
        obs.disable()
    assert not result.fallback
    return doc


def test_all_eight_stage_spans_present(report):
    spans = {s["name"]: s for s in obs.iter_spans(report)}
    assert "pipeline.wytiwyg" in spans
    for stage in STAGES:
        assert f"stage.{stage}" in spans, stage
        assert spans[f"stage.{stage}"]["seconds"] >= 0.0


def test_stage_spans_carry_ir_deltas(report):
    spans = {s["name"]: s for s in obs.iter_spans(report)}
    for stage in IR_STAGES:
        attrs = spans[f"stage.{stage}"]["attrs"]
        if stage not in ("canonicalize", "recompile"):
            assert attrs["verified"], stage
        assert attrs["ir_after"]["instrs"] > 0, stage
        assert attrs["ir_before"]["instrs"] >= 0, stage
    # Symbolization and optimization shrink the module.
    bounds = spans["stage.bounds"]["attrs"]
    assert bounds["ir_after"]["instrs"] < bounds["ir_before"]["instrs"]
    assert bounds["stack_variables"] > 0


def test_pipeline_span_reports_accuracy(report):
    (pipeline,) = [s for s in obs.iter_spans(report)
                   if s["name"] == "pipeline.wytiwyg"]
    attrs = pipeline["attrs"]
    assert attrs["fallback"] is False
    assert 0.0 < attrs["accuracy_precision"] <= 1.0
    assert 0.0 < attrs["accuracy_recall"] <= 1.0
    assert sum(attrs["accuracy_counts"].values()) > 0


def test_emulator_and_interpreter_metrics(report):
    counters = report["metrics"]["counters"]
    assert counters["emu.block_cache.hit"] > 0
    assert counters["emu.instructions_retired"] > 0
    assert counters["emu.mem.fast_path"] > 0
    hot = report["metrics"]["profiles"]["emu.hot_blocks"]
    assert hot["total"] > 0 and hot["unique"] > 0
    assert len(hot["top"]) <= 10 and hot["top"]
    # The refinement stages execute the lifted IR on every input.
    assert report["metrics"]["profiles"]["ir.func_calls"]["total"] > 0
    assert counters["ir.runs"] > 0


def test_optimizer_pass_deltas(report):
    timers = report["metrics"]["timers"]
    passes = [n for n in timers if n.startswith("opt.pass.")]
    assert passes and all(timers[n]["count"] > 0 for n in passes)
    counters = report["metrics"]["counters"]
    removed = [n for n in counters
               if n.startswith("opt.pass.") and
               n.endswith(".instrs_removed")]
    assert removed  # at least one pass actually deleted instructions


def test_summary_renders(report):
    text = obs.summary(report)
    for stage in STAGES:
        assert stage in text
    assert "block cache hit rate" in text
    assert "hot blocks" in text
    # stage.sanalysis / stage.sanitize carry integer finding counts
    # under ``error``; only an exception message marks a stage failed.
    spans = {s["name"]: s for s in obs.iter_spans(report)}
    assert spans["stage.sanalysis"]["attrs"]["error"] == 0
    assert "ERROR" not in text
    failed = copy.deepcopy(report)
    for span in obs.iter_spans(failed):
        if span["name"] == "stage.optimize":
            span["attrs"]["error"] = "VerifyError: bad phi"
    rows = [line for line in obs.summary(failed).splitlines()
            if "ERROR" in line]
    assert len(rows) == 1 and rows[0].startswith("optimize")


def test_observability_does_not_change_output(kernel_image):
    """Observer-effect guard: recompiled binaries are byte-identical
    with observability off, on, and on with the event ledger."""
    obs.disable()
    obs.disable_ledger()
    baseline = wytiwyg_recompile(kernel_image, [[]]).recovered.to_json()
    repeat = wytiwyg_recompile(kernel_image, [[]]).recovered.to_json()
    assert baseline == repeat  # the pipeline itself is deterministic
    obs.enable(reset=True)
    try:
        observed = wytiwyg_recompile(kernel_image,
                                     [[]]).recovered.to_json()
    finally:
        obs.disable()
    assert observed == baseline
    # The ledger is the second observer: recording every frame-variable
    # construction step must not perturb the construction.
    obs.enable(reset=True)
    led = obs.enable_ledger()
    try:
        recorded = wytiwyg_recompile(kernel_image,
                                     [[]]).recovered.to_json()
    finally:
        obs.disable_ledger()
        obs.disable()
    assert recorded == baseline
    assert any(e["kind"] == "frame.var.seed" for e in led.events)

"""Golden static-analysis reports.

The companion of ``test_golden_digests.py`` for the static leg: the
full :class:`~repro.sanalysis.CheckReport` of ``repro check`` — every
finding's severity, kind, function, offset and width, plus the widening
rows — recorded from the analyses as they stood.  A change to the
abstract domain, corroboration, the interprocedural summaries or the
sanitizer that moves a single finding fails here.

Each case runs twice: as ``repro check`` does by default, and with
``--widen`` (the coverage-gap and escaped-split suggestions applied
before symbolization).

If a change is *meant* to alter findings, regenerate the expectations
and say so in the change description.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cc import compile_source
from repro.core.driver import wytiwyg_lift
from repro.emu import trace_binary
from repro.workloads import WORKLOADS

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

_EFP = "escaped-frame-pointer"

#: case -> {widen: (findings, widening rows)}.  A finding is
#: ``(severity, kind, func, offset, width)``; a widening row is
#: ``(func, start, end, applied)``.
EXPECTED = {
    "quickstart": {
        False: ([], []),
        True: ([], []),
    },
    "escape": {
        False: ([("error", "escaped-split", "fn_08048160", -52, 32),
                 ("info", _EFP, "fn_08048160", None, None)],
                []),
        True: ([("info", _EFP, "fn_08048160", None, None)],
               [("fn_08048160", -52, -20, True)]),
    },
    "undertrace": {
        False: ([("warning", "coverage-gap", "fn_08048000", -72, 52),
                 ("warning", "uninit-read", "fn_08048000", None, 4)],
                []),
        True: ([("warning", "uninit-read", "fn_08048000", None, 4)],
               [("fn_08048000", -84, -20, True)]),
    },
    "xalancbmk-gcc44-O3": {
        False: ([("warning", "coverage-gap", "fn_08048215", -282, 10)]
                + [("info", _EFP, "fn_08048215", None, None)] * 5,
                []),
        True: ([("info", _EFP, "fn_08048215", None, None)] * 5,
               [("fn_08048215", -288, -272, True)]),
    },
    "xalancbmk-gcc12-O0": {
        False: ([("warning", "coverage-gap", "fn_0804846f", -174, 10)]
                + [("info", _EFP, "fn_0804846f", None, None)] * 5,
                []),
        True: ([("info", _EFP, "fn_0804846f", None, None)] * 5,
               [("fn_0804846f", -180, -164, True)]),
    },
}

#: Example programs on the inputs of their static-check smoke
#: (compiled with the CLI's default gcc12 -O3).
EXAMPLE_INPUTS = {"quickstart": [[5]], "escape": [[3]],
                  "undertrace": [[3]]}


def _traces(case: str):
    if case in EXAMPLE_INPUTS:
        source = (EXAMPLES / f"{case}.c").read_text()
        image = compile_source(source, "gcc12", "3", case)
        return trace_binary(image, EXAMPLE_INPUTS[case])
    _name, compiler, opt = case.split("-")
    workload = WORKLOADS["xalancbmk"]
    image = compile_source(workload.source, compiler, opt[1:],
                           "xalancbmk")
    return trace_binary(image, workload.inputs())


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_check_report(case):
    for widen in (False, True):
        *_, report = wytiwyg_lift(_traces(case), static_widen=widen)
        findings = [(f.severity, f.kind, f.func, f.offset, f.width)
                    for f in report.findings]
        widenings = [(w["func"], w["start"], w["end"], w["applied"])
                     for w in report.widenings]
        assert (findings, widenings) == EXPECTED[case][widen], widen

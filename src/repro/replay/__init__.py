"""repro.replay — the dynamic re-execution subsystem.

Owns every replay of lifted IR over the traced inputs: deduplicated
sweeps, fingerprint-gated (skippable) validation, parallel fan-out of
validation and instrumented bounds runs, and deterministic merging of
per-input tracing runtimes.  See :mod:`repro.replay.engine`.
"""

from .engine import ReplayEngine
from .fingerprint import module_fingerprint

__all__ = ["ReplayEngine", "module_fingerprint"]

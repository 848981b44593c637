"""repro.replay — the dynamic re-execution subsystem.

Owns every replay of lifted IR over the traced inputs: deduplicated
serial runs, validation folded into the next stage's run, and the
instrumented bounds runs.  See :mod:`repro.replay.engine`.
"""

from .engine import ReplayEngine
from .fingerprint import module_fingerprint

__all__ = ["ReplayEngine", "module_fingerprint"]

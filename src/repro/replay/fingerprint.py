"""Content fingerprinting for IR modules.

The replay engine needs one question answered cheaply: *did this stage
change the module since the last point it was known to reproduce the
traces?*  Mutation counters (:attr:`repro.ir.module.Function.version`)
answer "was it touched", but a refinement that finds nothing to do may
still bump versions, and counters do not survive process boundaries.  A
content hash answers the real question: two modules with equal
fingerprints have equal textual IR, equal global data, and equal entry
metadata, so a validation sweep that passed for one passes for the
other.

The hash is built from the canonical printer rendering (which renumbers
value names, so it is insensitive to stale printing hints) plus the
parts the printer elides: global initializers, the address table, and
the entry name.  :class:`~repro.evaluation.cache.EvalCache` reuses the
same digest for module-derived artifact keys.
"""

from __future__ import annotations

import hashlib

from ..ir.module import Module
from ..ir.printer import module_to_text


def module_fingerprint(module: Module) -> str:
    """Hex digest of everything that determines a module's behaviour."""
    h = hashlib.sha256()
    h.update(module_to_text(module).encode())
    for name, g in module.globals.items():
        h.update(name.encode())
        h.update(repr(g.init).encode())
        h.update(f"{g.size}:{g.align}:{g.fixed_addr}:{g.writable}"
                 .encode())
    for addr in sorted(module.address_table):
        h.update(f"{addr}={module.address_table[addr]}".encode())
    h.update(module.entry_name.encode())
    return h.hexdigest()[:32]

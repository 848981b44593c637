"""Content-addressed on-disk cache for expensive evaluation artifacts.

The sweep re-derives the same intermediate products again and again: the
same binary is traced for the native/binrec/wytiwyg measurements, and a
re-run after an unrelated change repeats every lift.  :class:`EvalCache`
stores pickled :class:`~repro.emu.tracer.TraceSet`s and recompiled
results keyed by a digest of the *content* that determines them — the
image's serialized form, the traced inputs, and an options tag — so a
hit is valid by construction and the cache never needs manual
invalidation when binaries change.

Since the artifact store landed (:mod:`repro.store`), this is a thin
subclass of :class:`~repro.store.ArtifactStore`: same atomic-write
discipline (temp file in the same directory + ``os.replace``, so
concurrent sweep workers can never observe a torn entry), same
corrupt-entry warn-and-recompute path, but the historical
``evalcache.*`` counter names, log channel, and ``$REPRO_EVAL_CACHE``
root are preserved.
"""

from __future__ import annotations

import hashlib
import logging

from ..binary.image import BinaryImage
from ..store import STORE_FORMAT, ArtifactStore

log = logging.getLogger("repro.evaluation.cache")

#: Kept for compatibility with existing keys; tracks the store format.
_FORMAT = STORE_FORMAT


class EvalCache(ArtifactStore):
    """Pickle store addressed by (image content, inputs, options)."""

    NAMESPACE = "evalcache"
    DESCRIBE = "eval-cache"
    #: The eval cache predates the ``store.put`` counter; its metric
    #: surface (hit/miss/corrupt) stays as documented in README.
    PUT_COUNTER = False
    ENV_VAR = "REPRO_EVAL_CACHE"
    DEFAULT_ROOT = ".eval_cache"

    @classmethod
    def _log(cls) -> logging.Logger:
        return log

    @staticmethod
    def key(image: BinaryImage, inputs, options: str = "") -> str:
        """Digest of everything that determines a derived artifact."""
        h = hashlib.sha256()
        h.update(image.to_json().encode())
        h.update(repr(inputs).encode())
        h.update(options.encode())
        h.update(_FORMAT.encode())
        return h.hexdigest()[:32]

    @staticmethod
    def module_key(module, inputs=None, options: str = "") -> str:
        """Digest for artifacts derived from an IR module.

        Reuses the module content fingerprint
        (:func:`~repro.replay.module_fingerprint`), so a module the
        pipeline produced and one reloaded from disk with identical
        content share cache entries.
        """
        from ..replay import module_fingerprint
        h = hashlib.sha256()
        h.update(module_fingerprint(module).encode())
        h.update(repr(inputs).encode())
        h.update(options.encode())
        h.update(_FORMAT.encode())
        return h.hexdigest()[:32]

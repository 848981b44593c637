"""Compiler personalities: toolchain-flavoured pipeline configurations.

The paper evaluates input binaries produced by GCC 12.2 (-O0/-O3),
Clang 16 (-O3) and the legacy GCC 4.4 (-O3).  Our stand-ins differ the
way those toolchains differ in ways that matter to the experiments:

* **gcc44** — legacy code generation: always keeps a frame pointer, has a
  small register pool (more spills, more stack traffic), inlines little
  and runs a weaker optimization pipeline.  Recompiling its output should
  yield the paper's ~1.2x legacy speedup.
* **gcc12** — modern: frame-pointer omission at -O2+, full register pool,
  aggressive inlining, GVN, jump tables.
* **clang16** — modern with slightly different heuristics (even larger
  inline budget, keeps jump tables at smaller densities).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CompileError
from ..opt.pipeline import OptOptions
from ..recompile.lower import LowerOptions


@dataclass(frozen=True)
class Personality:
    """A (compiler, optimization level) configuration."""

    compiler: str
    opt_level: str
    opt: OptOptions
    lower: LowerOptions

    @property
    def label(self) -> str:
        return f"{self.compiler} -{self.opt_level}"


_MODERN_POOL = ("ecx", "ebx", "esi", "edi")
_LEGACY_POOL = ("ecx", "ebx")


def personality(compiler: str, opt_level: str) -> Personality:
    """Look up a personality by toolchain name and -O level."""
    key = (compiler.lower(), opt_level.upper().lstrip("-O") or "0")
    builders = {
        ("gcc44", "0"): lambda: Personality(
            "gcc44", "O0", OptOptions.o0(),
            LowerOptions(frame_pointer=True, pool=_LEGACY_POOL,
                         jump_tables=False, fold_chains=False,
                         peephole=False)),
        ("gcc44", "3"): lambda: Personality(
            # Legacy pipeline: no GVN, no redundant-load or dead-store
            # removal, tiny inline budget, one pass -- plus a two-register
            # allocation pool and mandatory frame pointer.  Recompiling
            # its output with a modern pipeline should recover real
            # performance (the paper's 1.22x legacy speedup).
            "gcc44", "O3",
            OptOptions(level=1, inline=True, inline_threshold=12,
                       gvn=False, load_elim=False, dse=False, rounds=1),
            LowerOptions(frame_pointer=True, pool=_LEGACY_POOL,
                         jump_tables=True, fold_chains=False,
                         peephole=False)),
        ("gcc12", "0"): lambda: Personality(
            "gcc12", "O0", OptOptions.o0(),
            LowerOptions(frame_pointer=True, pool=_MODERN_POOL,
                         jump_tables=False)),
        ("gcc12", "3"): lambda: Personality(
            "gcc12", "O3", OptOptions.o3(),
            LowerOptions(frame_pointer=False, pool=_MODERN_POOL,
                         jump_tables=True)),
        ("clang16", "0"): lambda: Personality(
            "clang16", "O0", OptOptions.o0(),
            LowerOptions(frame_pointer=True, pool=_MODERN_POOL,
                         jump_tables=False)),
        ("clang16", "3"): lambda: Personality(
            "clang16", "O3",
            OptOptions(level=3, inline=True, inline_threshold=100,
                       gvn=True, load_elim=True, dse=True, rounds=3),
            LowerOptions(frame_pointer=False, pool=_MODERN_POOL,
                         jump_tables=True)),
    }
    try:
        return builders[key]()
    except KeyError:
        raise CompileError(
            f"unknown personality {compiler} -O{opt_level}") from None


#: The input-binary configurations evaluated by the paper (Table 1).
PAPER_CONFIGS = (
    ("gcc12", "3"),
    ("gcc12", "0"),
    ("clang16", "3"),
    ("gcc44", "3"),
)

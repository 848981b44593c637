"""IR optimizer (the LLVM pass-pipeline analogue)."""

from .alias import AliasAnalysis
from .analysis import (
    Dominators,
    analysis_cache_enabled,
    cached_analysis,
    dominators,
    postorder,
    predecessors,
    reachable,
    reachable_blocks,
    use_counts,
)
from .constfold import fold_constants
from .dce import eliminate_dead_code
from .deadargelim import (
    eliminate_dead_params,
    eliminate_dead_results,
    shrink_signatures,
)
from .dse import eliminate_dead_stores
from .flagfuse import fuse_flags
from .gvn import eliminate_redundant_loads, global_value_numbering
from .inline import inline_call, inline_functions
from .manager import (
    canonicalize_module,
    clear_memo,
    drop_unused_private_functions,
)
from .mem2reg import promotable_allocas, promote_allocas
from .pipeline import (
    OptOptions,
    optimize_function,
    optimize_module,
)
from .simplifycfg import remove_unreachable, simplify_cfg

__all__ = [
    "AliasAnalysis", "Dominators", "OptOptions",
    "analysis_cache_enabled", "cached_analysis", "canonicalize_module",
    "clear_memo", "dominators",
    "drop_unused_private_functions", "eliminate_dead_code",
    "eliminate_dead_params", "eliminate_dead_results",
    "eliminate_dead_stores", "eliminate_redundant_loads",
    "fold_constants", "fuse_flags", "global_value_numbering", "inline_call",
    "inline_functions", "optimize_function", "optimize_module",
    "postorder", "predecessors", "promotable_allocas", "promote_allocas",
    "reachable", "reachable_blocks", "remove_unreachable",
    "shrink_signatures", "simplify_cfg",
    "use_counts",
]

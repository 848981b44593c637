"""Seeded input generator for the ``gcc`` workload (an expression compiler).

An input run is a list of expression lines; the program reads each one
with ``read_buf(source, 511)``, parses it, folds constants and executes
the bytecode.  The generator only emits integers, ``+ - * / %`` and
parentheses.

Every expression has the same shape, in seeded order: the term kinds of
:data:`TERM_KINDS` (one of them a parenthesized group of
:data:`GROUP_KINDS`), joined by seeded ``+``/``-``, with seeded numbers
of fixed digit counts.  So every run costs the program about the same
work, whatever the seed, and a benchmark's figures do not move with the
seed's luck.  Right operands of ``/`` and ``%`` are positive literals,
so no run divides by zero or overflows ``idiv`` (only ``INT_MIN / -1``
can); one level of nesting keeps the program's 64-slot evaluation stack
far from full.

The same ``(seed, client, round)`` always gives the same bytes; the
generator uses its own ``random.Random`` and touches no global state.
"""

from __future__ import annotations

import random

#: Expression lines per generated input run (the ref run has seven).
EXPRS_PER_RUN = 4
#: The terms of every expression, shuffled per expression.
TERM_KINDS = ("num", "num", "mul", "div", "mod", "group")
#: The terms inside the parenthesized group, shuffled per group.
GROUP_KINDS = ("num", "num", "mul")
#: Largest line the program reads (``read_buf(source, 511)``).
MAX_LINE = 511


def _term(rng: random.Random, kind: str) -> str:
    if kind == "group":
        return "(" + _expr(rng, GROUP_KINDS) + ")"
    number = str(rng.randint(100, 999))
    if kind == "mul":
        return f"{number} * {rng.randint(100, 999)}"
    if kind == "div":
        return f"{number} / {rng.randint(10, 99)}"
    if kind == "mod":
        return f"{number} % {rng.randint(10, 99)}"
    return number


def _expr(rng: random.Random, kinds) -> str:
    kinds = list(kinds)
    rng.shuffle(kinds)
    parts = [_term(rng, kinds[0])]
    for kind in kinds[1:]:
        parts += [rng.choice("+-"), _term(rng, kind)]
    return " ".join(parts)


def campaign_input(seed: int, client: int, round_no: int) -> list[bytes]:
    """The input run client ``client`` adds in round ``round_no``."""
    rng = random.Random(f"perfbench/{seed}/{client}/{round_no}")
    return [_expr(rng, TERM_KINDS).encode() for _ in range(EXPRS_PER_RUN)]

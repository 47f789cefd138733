"""Wrong q-weighted rule tables, for tests that a checker catches them."""

import rightq.rewrite
from rightq import SYSTEM_SQ
from rightq.laurent import ONE, Q

# Each drops the power of q from one weighted rule, or inverts it.
WRONG_RULES = {
    "swap-q-as-1": {True: ((1, 0, ONE),)},
    "split-q-inverse-as-q": {False: ((1, 1, ONE), (1, 0, Q), (0, 1, -Q))},
}


def use_wrong_rules(monkeypatch, change):
    """Put the sq table with change applied in place of SYSTEM_SQ's; return it."""
    rules = {**rightq.rewrite._RULES, **change}
    monkeypatch.setattr(rightq.rewrite, "_RULES", rules)
    wrong = rightq.rewrite.ReductionSystem("sq")
    monkeypatch.setattr(SYSTEM_SQ, "stencil", wrong.stencil)
    return wrong

"""What is left of operator fusion: one name the end-to-end harness
imports.  Every plan runs one node per operator."""

from __future__ import annotations


# kept only because `benchmarks/e2e/tracing.py` names it; ROADMAP item 1 deletes it
def fuse_plan(plan):
    """``(plan, [])``: the plan unchanged, with no fusion decisions."""
    return plan, []

"""Logical datamerge programs.

The output of the View Expander & Algebraic Optimizer: "a set of MSL
rules specifying the result" (Section 3.2), where every pattern condition
refers to an actual *source* rather than to the mediator's virtual
objects.  Each rule also remembers its provenance — which specification
rules and which unifier produced it — so plans can be explained, which
is how the benchmarks print the paper's R2/Q2 and Q3/Q4 artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mediator.unify import Unifier
from repro.msl.ast import Rule
from repro.msl.substitute import substitute_params
from repro.msl.unparse import format_rule

__all__ = ["LogicalRule", "LogicalDatamergeProgram"]


@dataclass(frozen=True)
class LogicalRule:
    """One rule of a logical datamerge program, with provenance."""

    rule: Rule
    unifier: Unifier | None = None
    spec_rule_indexes: tuple[int, ...] = ()

    def __str__(self) -> str:
        return str(self.rule)


@dataclass(frozen=True)
class LogicalDatamergeProgram:
    """The full logical program for one query: a union of rules.

    "If more than one head matches, then more than one rule will be
    considered; resulting objects will be added to the result."
    """

    rules: tuple[LogicalRule, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def is_empty(self) -> bool:
        """An empty program means the query matches no rule head: the
        answer is trivially empty (no source contact needed)."""
        return not self.rules

    def bound(self, params) -> "LogicalDatamergeProgram":
        """The program a template's program stands for under ``params``
        (the constants of one call, by placeholder name)."""
        if not params:
            return self
        return LogicalDatamergeProgram(
            tuple(
                LogicalRule(
                    substitute_params(lr.rule, params, partial=True),
                    lr.unifier,
                    lr.spec_rule_indexes,
                )
                for lr in self.rules
            )
        )

    def __str__(self) -> str:
        return "\n\n".join(format_rule(lr.rule) for lr in self.rules)

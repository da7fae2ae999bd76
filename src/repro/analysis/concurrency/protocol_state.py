"""``protocol-state``: the engine's lifecycle vs. the declared table.

:mod:`repro.service.protocol` declares the session state machine
(:data:`~repro.service.protocol.PHASE_TRANSITIONS`,
:data:`~repro.service.protocol.INITIAL_PHASE`); the engine and registry
*encode* it as guards plus ``session.phase = SessionPhase.X`` assignments.
This rule extracts the encoded machine and diffs the two in both directions,
exactly as the trace/metric schema cross-checks do for events and metrics:

* an assignment performing a transition the table does not permit is a
  finding at the assignment site;
* a declared transition no site ever performs is a finding at the table
  (dead declarations rot — remove the entry or implement the transition);
* a ``LiveSession`` phase default different from ``INITIAL_PHASE`` is a
  finding.

**How "from" states are inferred.**  A tiny abstract walk runs over each
function body tracking the set of phases a session may be in: ``if
session.phase is SessionPhase.X: <body ending in return/raise>`` removes
``X``; ``is not`` guards narrow to ``{X}``; entering an ``is`` body narrows
to ``{X}``; an assignment re-points the set.  Loops reset to unknown.  A
site whose phase set was never narrowed witnesses an *unknown-from*
transition, which must merely match some declared entry with that target —
enumerating every source there would invent transitions the code never
performs.  The completeness direction accepts an unknown-from witness for
any declared entry with the same target, so the granularity is honest in
both directions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import dotted_name
from repro.analysis.base import Finding, LintContext, ModuleInfo, register_rule

__all__ = ["ProtocolStateRule", "observed_transitions", "PhaseWitness"]

#: Module declaring the transition table (anchor for completeness findings).
_PROTOCOL_MODULE = "repro.service.protocol"
#: Module whose presence makes the tree a complete witness of transitions.
_WITNESS_MODULE = "repro.service.engine"
#: The enum class encoding phases.
_PHASE_ENUM = "SessionPhase"


@dataclass(frozen=True)
class PhaseWitness:
    """One statically observed phase assignment."""

    relpath: str
    line: int
    col: int
    function: str
    #: Inferred source phases; ``None`` when the walk never narrowed.
    from_phases: Optional[Tuple[str, ...]]
    to_phase: str


def _phase_test(test: ast.expr) -> List[Tuple[str, bool]]:
    """``(member, positive)`` pairs asserted by a guard expression.

    Handles ``x.phase is SessionPhase.X``, ``is not``, ``==``/``!=`` and
    conjunctions; anything else narrows nothing.
    """
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        found: List[Tuple[str, bool]] = []
        for value in test.values:
            found.extend(_phase_test(value))
        return found
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return []
    left = dotted_name(test.left)
    if left is None or not left.endswith(".phase"):
        return []
    comparator = dotted_name(test.comparators[0])
    if comparator is None or not comparator.startswith(f"{_PHASE_ENUM}."):
        return []
    member = comparator.split(".", 1)[1]
    op = test.ops[0]
    if isinstance(op, (ast.Is, ast.Eq)):
        return [(member, True)]
    if isinstance(op, (ast.IsNot, ast.NotEq)):
        return [(member, False)]
    return []


def _terminates(body: List[ast.stmt]) -> bool:
    """Does a branch end control flow (return/raise/continue/break)?"""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _phase_assignment(stmt: ast.stmt) -> Optional[Tuple[str, ast.AST]]:
    """``member`` when ``stmt`` is ``<chain>.phase = SessionPhase.X``."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    target = dotted_name(stmt.targets[0])
    if target is None or not target.endswith(".phase"):
        return None
    value = dotted_name(stmt.value)
    if value is None or not value.startswith(f"{_PHASE_ENUM}."):
        return None
    return value.split(".", 1)[1], stmt


class _PhaseWalker:
    """Sequential walk of one function tracking the possible phase set."""

    def __init__(self, all_members: Set[str], function: str, module: ModuleInfo):
        self.all_members = all_members
        self.function = function
        self.module = module
        self.witnesses: List[PhaseWitness] = []

    def walk(self, body: List[ast.stmt]) -> None:
        self._walk(body, set(self.all_members), narrowed=False)

    def _record(
        self, member: str, stmt: ast.AST, possible: Set[str], narrowed: bool
    ) -> None:
        self.witnesses.append(
            PhaseWitness(
                relpath=self.module.relpath,
                line=stmt.lineno,
                col=stmt.col_offset,
                function=self.function,
                from_phases=tuple(sorted(possible)) if narrowed else None,
                to_phase=member,
            )
        )

    def _walk(
        self, body: List[ast.stmt], possible: Set[str], narrowed: bool
    ) -> Tuple[Set[str], bool]:
        """Returns the (possible, narrowed) state at the end of ``body``."""
        for stmt in body:
            assignment = _phase_assignment(stmt)
            if assignment is not None:
                member, node = assignment
                self._record(member, node, possible, narrowed)
                possible, narrowed = {member}, True
                continue
            if isinstance(stmt, ast.If):
                tests = _phase_test(stmt.test)
                body_possible, body_narrowed = set(possible), narrowed
                else_possible, else_narrowed = set(possible), narrowed
                for member, positive in tests:
                    if member not in self.all_members:
                        continue
                    if positive:
                        body_possible, body_narrowed = {member}, True
                        # A failed `is` only removes one member when it was
                        # the sole test; conjunction failure tells us less.
                        if len(tests) == 1:
                            else_possible = else_possible - {member}
                            else_narrowed = True
                    else:
                        body_possible = body_possible - {member}
                        body_narrowed = True
                        if len(tests) == 1:
                            else_possible, else_narrowed = {member}, True
                body_exit = self._walk(stmt.body, body_possible, body_narrowed)
                else_exit = self._walk(stmt.orelse, else_possible, else_narrowed)
                if _terminates(stmt.body) and not _terminates(stmt.orelse):
                    possible, narrowed = else_exit
                elif _terminates(stmt.orelse) and not _terminates(stmt.body):
                    possible, narrowed = body_exit
                elif _terminates(stmt.body) and _terminates(stmt.orelse):
                    # Both branches leave; nothing follows in practice.
                    possible, narrowed = set(self.all_members), False
                else:
                    possible = body_exit[0] | else_exit[0]
                    narrowed = body_exit[1] and else_exit[1]
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                # Loop bodies may re-enter with a different phase: walk them
                # with unknown state and forget narrowing afterwards.
                self._walk(stmt.body, set(self.all_members), False)
                self._walk(stmt.orelse, set(self.all_members), False)
                possible, narrowed = set(self.all_members), False
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                possible, narrowed = self._walk(stmt.body, possible, narrowed)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, set(possible), narrowed)
                for handler in stmt.handlers:
                    self._walk(handler.body, set(self.all_members), False)
                self._walk(stmt.orelse, set(self.all_members), False)
                self._walk(stmt.finalbody, set(self.all_members), False)
                possible, narrowed = set(self.all_members), False
        return possible, narrowed


def _enum_value_map(context: LintContext) -> Dict[str, str]:
    """``SessionPhase`` member -> string value, from the scanned tree.

    Falls back to ``member.lower()`` when the enum class is not in the tree
    (rule-fixture directories).  The scan walks every module, so it runs
    once per context and every module's check shares the result.
    """
    return context.memo("protocol-state-enum-values", lambda: _scan_enum_values(context))


def _scan_enum_values(context: LintContext) -> Dict[str, str]:
    for module in context.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == _PHASE_ENUM:
                values: Dict[str, str] = {}
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)
                    ):
                        values[stmt.targets[0].id] = stmt.value.value
                if values:
                    return values
    return {}


def observed_transitions(
    context: LintContext, phases: Tuple[str, ...] | None = None
) -> List[PhaseWitness]:
    """Every phase-assignment witness in the tree, in deterministic order.

    Exposed for the self-check test, which pins the live engine's exact
    transition set so lifecycle edits are deliberate.
    """
    if phases is None:
        from repro.service.protocol import SESSION_PHASES

        phases = SESSION_PHASES
    value_map = _enum_value_map(context)

    def to_value(member: str) -> str:
        return value_map.get(member, member.lower())

    witnesses: List[PhaseWitness] = []
    member_names = {member for member in value_map} or {
        phase.upper() for phase in phases
    }
    for module in context.modules:

        def walk_defs(body, scope: List[str]) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walker = _PhaseWalker(member_names, node.name, module)
                    walker.walk(node.body)
                    witnesses.extend(walker.witnesses)
                    walk_defs(node.body, scope + [node.name])
                elif isinstance(node, ast.ClassDef):
                    walk_defs(node.body, scope + [node.name])

        walk_defs(module.tree.body, [])
    normalised = [
        PhaseWitness(
            relpath=w.relpath,
            line=w.line,
            col=w.col,
            function=w.function,
            from_phases=(
                tuple(sorted(to_value(m) for m in w.from_phases))
                if w.from_phases is not None
                else None
            ),
            to_phase=to_value(w.to_phase),
        )
        for w in witnesses
    ]
    normalised.sort(key=lambda w: (w.relpath, w.line, w.col))
    return normalised


@register_rule
class ProtocolStateRule:
    """Diff the encoded session lifecycle against the declared table."""

    rule_id = "protocol-state"
    description = (
        "session phase assignments in the service layer must match the "
        "declared PHASE_TRANSITIONS table in repro.service.protocol, and "
        "every declared transition must be performed somewhere"
    )

    def __init__(
        self,
        transitions: frozenset[Tuple[str, str]] | None = None,
        phases: Tuple[str, ...] | None = None,
        initial: str | None = None,
    ) -> None:
        if transitions is None or phases is None or initial is None:
            from repro.service.protocol import (
                INITIAL_PHASE,
                PHASE_TRANSITIONS,
                SESSION_PHASES,
            )

            transitions = PHASE_TRANSITIONS if transitions is None else transitions
            phases = SESSION_PHASES if phases is None else phases
            initial = INITIAL_PHASE if initial is None else initial
        self.transitions = transitions
        self.phases = phases
        self.initial = initial

    def check(self, module: ModuleInfo, context: LintContext) -> Iterable[Finding]:
        """Per-module: the ``LiveSession`` default must match INITIAL_PHASE."""
        value_map = _enum_value_map(context)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name != "LiveSession":
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "phase"
                    and stmt.value is not None
                ):
                    value = dotted_name(stmt.value)
                    if value is None or not value.startswith(f"{_PHASE_ENUM}."):
                        continue
                    member = value.split(".", 1)[1]
                    declared = value_map.get(member, member.lower())
                    if declared != self.initial:
                        yield Finding(
                            rule=self.rule_id,
                            path=module.relpath,
                            line=stmt.lineno,
                            col=stmt.col_offset,
                            message=(
                                f"LiveSession starts in phase {declared!r} but "
                                f"the protocol declares INITIAL_PHASE "
                                f"{self.initial!r}"
                            ),
                        )

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        """Whole-tree: diff observed witnesses against the declared table."""
        witnesses = observed_transitions(context, phases=self.phases)
        declared_targets = {to for _, to in self.transitions}
        for witness in witnesses:
            if witness.to_phase not in declared_targets:
                yield Finding(
                    rule=self.rule_id,
                    path=witness.relpath,
                    line=witness.line,
                    col=witness.col,
                    message=(
                        f"{witness.function} moves a session to phase "
                        f"{witness.to_phase!r}, which no declared transition "
                        f"targets (PHASE_TRANSITIONS in repro.service.protocol)"
                    ),
                )
                continue
            if witness.from_phases is None:
                continue  # unknown-from: target membership checked above
            for source in witness.from_phases:
                if source == witness.to_phase:
                    # Re-asserting the current phase is not a transition.
                    continue
                if (source, witness.to_phase) not in self.transitions:
                    yield Finding(
                        rule=self.rule_id,
                        path=witness.relpath,
                        line=witness.line,
                        col=witness.col,
                        message=(
                            f"{witness.function} performs undeclared "
                            f"transition {source!r} -> {witness.to_phase!r}; "
                            f"declare it in PHASE_TRANSITIONS or fix the guard"
                        ),
                    )
        # Completeness: only when the engine module is part of the tree.
        anchor = context.module_named(_PROTOCOL_MODULE)
        if anchor is None or context.module_named(_WITNESS_MODULE) is None:
            return
        exact = set()
        unknown_targets = set()
        for witness in witnesses:
            if witness.from_phases is None:
                unknown_targets.add(witness.to_phase)
            else:
                for source in witness.from_phases:
                    exact.add((source, witness.to_phase))
        for source, target in sorted(self.transitions):
            if (source, target) in exact or target in unknown_targets:
                continue
            yield Finding(
                rule=self.rule_id,
                path=anchor.relpath,
                line=1,
                col=0,
                message=(
                    f"PHASE_TRANSITIONS declares {source!r} -> {target!r} but "
                    f"no engine/state site performs it; remove the entry or "
                    f"implement the transition"
                ),
            )

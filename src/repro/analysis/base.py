"""Core types of the static-analysis pass: findings, modules, rules.

A :class:`Rule` inspects one parsed module at a time through ``check`` and
may run a whole-tree pass in ``finalize`` (used by the schema cross-checks,
which must see every emission site before deciding that a declared event is
orphaned).  Rules register a zero-argument factory under their id — the
registry mirrors ``repro.experiments.registry`` — so every lint run gets
fresh, stateless-by-construction rule instances.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Protocol, Set, TypeVar

from repro.exceptions import ConfigurationError

_T = TypeVar("_T")

__all__ = [
    "Finding",
    "ModuleInfo",
    "LintContext",
    "Rule",
    "RULE_FACTORIES",
    "register_rule",
    "available_rules",
    "create_rules",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line.

    The :attr:`fingerprint` deliberately excludes the line number so a
    baseline entry survives unrelated edits that shift code up or down; it
    changes only when the offending construct itself (rule, file, message)
    changes.
    """

    rule: str
    path: str  # repo-relative POSIX path
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable identity used by the baseline file (line-independent)."""
        digest = hashlib.sha256(
            f"{self.rule}|{self.path}|{self.message}".encode("utf-8")
        ).hexdigest()
        return digest[:16]

    def render(self) -> str:
        """One ``path:line:col: rule: message`` diagnostic line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> dict:
        """JSON-serialisable form (``--format json`` and CI artifacts)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ModuleInfo:
    """One parsed source module plus its inline suppression pragmas."""

    path: Path  # absolute path on disk
    relpath: str  # POSIX path relative to the scanned root
    module: str  # dotted module name, e.g. "repro.sim.rng"
    source: str
    tree: ast.Module
    #: line number -> rule ids allowed on that line ("*" allows every rule).
    allow: Dict[int, Set[str]] = field(default_factory=dict)

    def allows(self, rule_id: str, line: int) -> bool:
        """True when ``# lint: allow(rule_id)`` sits on ``line``."""
        allowed = self.allow.get(line)
        return allowed is not None and (rule_id in allowed or "*" in allowed)


@dataclass
class LintContext:
    """Everything a rule may see: the scanned root and every module in it."""

    root: Path
    modules: List[ModuleInfo]
    #: Whole-tree facts shared by every rule of one pass (see :meth:`memo`).
    _memo: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    def memo(self, key: str, build: Callable[[], _T]) -> _T:
        """``build()``, computed once per context under ``key``.

        Rules that derive a fact from the whole tree (the call graph, the
        session-phase enum) read it from here, so a pass stays linear in
        the tree size however many modules ask for it.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def module_named(self, dotted: str) -> ModuleInfo | None:
        """The scanned module with dotted name ``dotted``, if present."""
        for info in self.modules:
            if info.module == dotted:
                return info
        return None


class Rule(Protocol):
    """The pluggable rule interface.

    ``check`` yields findings for one module; ``finalize`` runs after every
    module was checked and yields whole-tree findings (rules without a
    cross-module pass return nothing from it).
    """

    rule_id: str
    description: str

    def check(self, module: ModuleInfo, context: LintContext) -> Iterable[Finding]:
        """Findings local to ``module``."""
        ...  # pragma: no cover - protocol

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        """Whole-tree findings, after every module was checked."""
        ...  # pragma: no cover - protocol


#: Rule id -> zero-argument factory producing a fresh rule instance.
RULE_FACTORIES: Dict[str, Callable[[], Rule]] = {}


def register_rule(factory: Callable[[], Rule]) -> Callable[[], Rule]:
    """Register a rule factory under its instance's ``rule_id``.

    Usable as a class decorator (a class is its own zero-arg factory).
    """
    rule_id = factory().rule_id
    if rule_id in RULE_FACTORIES:
        raise ConfigurationError(f"rule {rule_id!r} registered twice")
    RULE_FACTORIES[rule_id] = factory
    return factory


def available_rules() -> list[tuple[str, str]]:
    """``(rule_id, description)`` pairs in presentation order."""
    return [
        (rule_id, RULE_FACTORIES[rule_id]().description)
        for rule_id in sorted(RULE_FACTORIES)
    ]


def create_rules(rule_ids: Iterable[str] | None = None) -> list[Rule]:
    """Fresh instances of the requested rules (default: all registered)."""
    if rule_ids is None:
        selected = sorted(RULE_FACTORIES)
    else:
        selected = list(rule_ids)
        unknown = [rule_id for rule_id in selected if rule_id not in RULE_FACTORIES]
        if unknown:
            raise ConfigurationError(
                f"unknown rule(s) {unknown}; available: {sorted(RULE_FACTORIES)}"
            )
    return [RULE_FACTORIES[rule_id]() for rule_id in selected]

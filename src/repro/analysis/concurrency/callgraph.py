"""Project call graph with async-reachability, built from one parsed tree.

The graph is deliberately *module-level and name-based* — no type inference,
no runtime imports.  Precision comes from three resolution strategies, tried
in order for every call site:

1. **Lexical** — bare names resolve to sibling nested functions, then
   module-level functions of the same module, then imports
   (:class:`~repro.analysis.astutil.ImportMap` folds aliases);
   ``ClassName(...)`` resolves to ``ClassName.__init__``.
2. **Self dispatch** — ``self.meth(...)``/``cls.meth(...)`` resolve inside
   the enclosing class, then through its project-local base classes.
3. **Unique-name CHA** — ``obj.meth(...)`` on an arbitrary receiver
   resolves only when *exactly one* project class defines ``meth``; an
   ambiguous method name produces no edge.  This is the documented
   imprecision trade: a unique name is almost certainly that method, while
   guessing among several would invent reachability (and findings) out of
   thin air.

Async-reachability is a breadth-first fixpoint seeded at every ``async
def``: any function a reachable function calls is reachable.  Two documented
exceptions keep the analysis honest:

* calls nested inside the argument list of ``loop.run_in_executor(...)`` or
  ``asyncio.to_thread(...)`` contribute no edges — that argument runs on a
  worker thread, which is exactly the sanctioned way to hop blocking work
  off the loop;
* a function *referenced* but not called (``to_thread(func)``,
  ``partial(func, x)``) contributes no edge either, for the same reason.

The fixpoint records a parent pointer per function, so a rule can render
the full chain from the async entry point to the offending site.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import ImportMap, dotted_name
from repro.analysis.base import LintContext, ModuleInfo

__all__ = ["FunctionInfo", "ProjectCallGraph", "EXECUTOR_HOPS", "graph_for"]

#: Call targets whose arguments run off the event loop: edges collected
#: inside their argument lists would invent on-loop reachability.
EXECUTOR_HOPS = frozenset(
    {"asyncio.to_thread", "run_in_executor", "asyncio.get_event_loop"}
)


@dataclass(eq=False)
class FunctionInfo:
    """One function or method definition in the scanned tree."""

    qname: str  # e.g. "repro.service.engine.AdmissionEngine.handle"
    module: str  # dotted module name
    relpath: str  # repo-relative POSIX path of the module
    name: str  # bare function name
    cls: Optional[str]  # enclosing class name, or None for module level
    is_async: bool
    lineno: int
    node: ast.AST = field(repr=False)


def _is_executor_hop(call: ast.Call) -> bool:
    """Does this call ship its arguments off the event loop?"""
    target = dotted_name(call.func)
    if target is None:
        return False
    return target in EXECUTOR_HOPS or target.endswith(".run_in_executor") or (
        target.endswith(".to_thread")
    )


class _CallCollector(ast.NodeVisitor):
    """Collect the Call nodes of one function body, skipping nested defs
    and the argument lists of executor hops."""

    def __init__(self) -> None:
        self.calls: List[ast.Call] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested definitions own their calls

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # a lambda body runs when called, not here

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        # Always look inside the callee expression; the arguments only when
        # they stay on the loop.
        self.visit(node.func)
        if not _is_executor_hop(node):
            for arg in node.args:
                self.visit(arg)
            for keyword in node.keywords:
                self.visit(keyword.value)


class ProjectCallGraph:
    """The whole-tree call graph plus its async-reachability closure."""

    def __init__(self) -> None:
        #: qname -> FunctionInfo for every def in the tree.
        self.functions: Dict[str, FunctionInfo] = {}
        #: caller qname -> callee qnames (deterministically sorted on read).
        self.edges: Dict[str, Set[str]] = {}
        #: method bare name -> sorted qnames of every class method using it.
        self._methods_by_name: Dict[str, List[str]] = {}
        #: (module, class) -> qualified base-class names.
        self._class_bases: Dict[Tuple[str, str], List[str]] = {}
        #: qualified class name -> (module, class name).
        self._classes: Dict[str, Tuple[str, str]] = {}
        #: qname -> qname of the caller that first reached it (async BFS).
        self._reached_via: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, context: LintContext) -> "ProjectCallGraph":
        """Two passes over the parsed tree: collect defs, then resolve calls."""
        graph = cls()
        for module in context.modules:
            graph._collect_definitions(module)
        for name in graph._methods_by_name:
            graph._methods_by_name[name].sort()
        for module in context.modules:
            graph._collect_edges(module)
        graph._close_async_reachability()
        return graph

    def _collect_definitions(self, module: ModuleInfo) -> None:
        imports = ImportMap(module.tree)

        def walk(body, scope: List[str], cls_name: Optional[str]) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qname = ".".join([module.module, *scope, node.name])
                    info = FunctionInfo(
                        qname=qname,
                        module=module.module,
                        relpath=module.relpath,
                        name=node.name,
                        cls=cls_name,
                        is_async=isinstance(node, ast.AsyncFunctionDef),
                        lineno=node.lineno,
                        node=node,
                    )
                    self.functions[qname] = info
                    if cls_name is not None:
                        self._methods_by_name.setdefault(node.name, []).append(qname)
                    walk(node.body, scope + [node.name], None)
                elif isinstance(node, ast.ClassDef):
                    self._classes[f"{module.module}.{node.name}"] = (
                        module.module,
                        node.name,
                    )
                    bases = []
                    for base in node.bases:
                        base_name = dotted_name(base)
                        if base_name is not None:
                            qualified = imports.qualify(base_name)
                            if "." not in base_name:
                                # A bare base name is a sibling class unless
                                # an import rebinds it.
                                local = f"{module.module}.{base_name}"
                                if qualified == base_name:
                                    qualified = local
                            bases.append(qualified)
                    self._class_bases[(module.module, node.name)] = bases
                    walk(node.body, scope + [node.name], node.name)

        walk(module.tree.body, [], None)

    def _method_in_class(
        self, module: str, cls_name: str, method: str, _depth: int = 0
    ) -> Optional[str]:
        """Resolve ``method`` in ``cls_name`` or its project-local bases."""
        qname = f"{module}.{cls_name}.{method}"
        if qname in self.functions:
            return qname
        if _depth >= 8:  # cyclic or pathological hierarchies stop here
            return None
        for base in self._class_bases.get((module, cls_name), []):
            resolved = self._classes.get(base)
            if resolved is None:
                continue
            found = self._method_in_class(
                resolved[0], resolved[1], method, _depth + 1
            )
            if found is not None:
                return found
        return None

    def _resolve_call(
        self,
        call: ast.Call,
        module: ModuleInfo,
        imports: ImportMap,
        scope: List[str],
        cls_name: Optional[str],
    ) -> Optional[str]:
        target = dotted_name(call.func)
        if target is None:
            return None
        head, _, rest = target.partition(".")
        if not rest:
            # Bare name: sibling nested def, module-level def, import.
            for depth in range(len(scope), -1, -1):
                candidate = ".".join([module.module, *scope[:depth], target])
                if candidate in self.functions:
                    return candidate
            qualified = imports.qualify(target)
            if qualified in self.functions:
                return qualified
            if qualified in self._classes:
                mod, klass = self._classes[qualified]
                return self._method_in_class(mod, klass, "__init__")
            local_class = f"{module.module}.{target}"
            if local_class in self._classes:
                return self._method_in_class(module.module, target, "__init__")
            return None
        if head in ("self", "cls") and cls_name is not None:
            parts = rest.split(".")
            if len(parts) == 1:
                return self._method_in_class(module.module, cls_name, parts[0])
            # self.attr.meth(...): fall through to unique-name CHA below.
        qualified = imports.qualify(target)
        if qualified in self.functions:
            return qualified
        if qualified in self._classes:
            mod, klass = self._classes[qualified]
            return self._method_in_class(mod, klass, "__init__")
        # Unique-name CHA: obj.meth(...) resolves only when one class
        # anywhere in the project defines meth.
        method = target.rsplit(".", 1)[1]
        candidates = self._methods_by_name.get(method, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _collect_edges(self, module: ModuleInfo) -> None:
        imports = ImportMap(module.tree)

        def walk(body, scope: List[str], cls_name: Optional[str]) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qname = ".".join([module.module, *scope, node.name])
                    collector = _CallCollector()
                    for stmt in node.body:
                        collector.visit(stmt)
                    inner_scope = scope + [node.name]
                    for call in collector.calls:
                        callee = self._resolve_call(
                            call, module, imports, inner_scope, cls_name
                        )
                        if callee is not None and callee != qname:
                            self.edges.setdefault(qname, set()).add(callee)
                    walk(node.body, inner_scope, None)
                elif isinstance(node, ast.ClassDef):
                    walk(node.body, scope + [node.name], node.name)

        walk(module.tree.body, [], None)

    def _close_async_reachability(self) -> None:
        """BFS fixpoint from every ``async def``, recording parent pointers."""
        queue: deque[str] = deque()
        for qname in sorted(self.functions):
            if self.functions[qname].is_async:
                self._reached_via[qname] = None
                queue.append(qname)
        while queue:
            caller = queue.popleft()
            for callee in sorted(self.edges.get(caller, ())):
                if callee not in self._reached_via:
                    self._reached_via[callee] = caller
                    queue.append(callee)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def callees(self, qname: str) -> List[str]:
        """Sorted resolved callees of ``qname``."""
        return sorted(self.edges.get(qname, ()))

    def is_async_reachable(self, qname: str) -> bool:
        """Is ``qname`` an ``async def`` or transitively called from one?"""
        return qname in self._reached_via

    def async_reachable(self) -> List[str]:
        """Sorted qnames of every async-reachable function."""
        return sorted(self._reached_via)

    def chain_to(self, qname: str) -> List[str]:
        """The call chain from an async entry point down to ``qname``."""
        chain: List[str] = []
        current: Optional[str] = qname
        while current is not None:
            chain.append(current)
            current = self._reached_via.get(current)
        chain.reverse()
        return chain

    def functions_in(self, module: str) -> Iterator[FunctionInfo]:
        """The functions defined in ``module``, in source order."""
        infos = [
            info for info in self.functions.values() if info.module == module
        ]
        infos.sort(key=lambda info: info.lineno)
        return iter(infos)


def graph_for(context: LintContext) -> ProjectCallGraph:
    """The call graph of ``context``, built once and shared by every rule.

    Four rules run over the same tree in one lint pass; the graph is cached
    on the context so the interprocedural work happens exactly once.
    """
    return context.memo("concurrency-call-graph", lambda: ProjectCallGraph.build(context))

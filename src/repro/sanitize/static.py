"""Pass 3: true static analysis of workload source (no execution).

Workload bodies are Python generators that *build* events with a
:class:`~repro.workloads.memapi.ThreadCtx` and ``yield`` them to the
scheduler.  That API has sharp edges the type system cannot catch:

* ``t.fence()`` as a bare statement builds an Event and throws it away —
  the fence silently never executes (``static.dropped-event``);
* the same for a dropped ``t.prestore(...)`` — the optimisation the
  whole paper is about quietly never happens;
* ``t.write_block(...)`` without ``yield from`` discards a *generator*,
  so entire store sequences vanish;
* ``with t.function(...)`` forgotten around stores leaves DirtBuster
  attributing them to ``<unlabelled>`` (``static.unlabelled-write``);
* ``region.base + offset`` arithmetic bypasses the bounds check
  :meth:`Region.addr` performs (``static.raw-address``).

The pass walks the AST of workload modules: any generator function using
a ThreadCtx-like receiver is analysed.  It never imports or runs the
target code.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence, Set, Union

from repro.errors import Diagnostic
from repro.sim.event import CodeSite

__all__ = [
    "EVENT_METHODS",
    "BLOCK_METHODS",
    "WRITE_METHODS",
    "StaticSanitizer",
    "static_check",
]

#: ThreadCtx methods returning a single Event (must be ``yield``-ed).
EVENT_METHODS = frozenset(
    {"read", "write", "compute", "fence", "atomic", "prestore", "post", "wait"}
)
#: ThreadCtx methods returning an event iterator (need ``yield from``).
BLOCK_METHODS = frozenset({"write_block", "read_block", "read_strided", "memcpy", "memset"})
#: The store-producing subset (what provenance labelling is for).
WRITE_METHODS = frozenset({"write", "atomic", "prestore", "write_block", "memset", "memcpy"})

_CTX_METHODS = EVENT_METHODS | BLOCK_METHODS | {"function", "alloc"}


def _receiver_name(call: ast.Call) -> Optional[str]:
    """``t`` for a ``t.method(...)`` call, else None."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id
    return None


def _method_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


class _FunctionScan:
    """Everything the checks need to know about one function body."""

    def __init__(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        self.node = node
        self.ctx_names: Set[str] = set()
        self.region_names: Set[str] = set()
        self.is_generator = False
        self.has_provenance_block = False
        self.allocates = False
        self._discover()

    def _own_nodes(self) -> Iterable[ast.AST]:
        """Walk the function body without descending into nested defs."""
        stack: List[ast.AST] = list(self.node.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _discover(self) -> None:
        # Parameters annotated ThreadCtx are ctx names even if unused.
        args = self.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotation = arg.annotation
            text = ast.unparse(annotation) if annotation is not None else ""
            if "ThreadCtx" in text:
                self.ctx_names.add(arg.arg)
        for node in self._own_nodes():
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.is_generator = True
            if isinstance(node, ast.Call):
                name = _receiver_name(node)
                method = _method_name(node)
                # Usage-based detection: whatever receives event-API calls
                # is a ThreadCtx for this pass's purposes.  A bare
                # ``x.alloc(...)`` is not evidence by itself (allocators
                # have an ``alloc`` too).
                if name is not None and method in _CTX_METHODS and method != "alloc":
                    self.ctx_names.add(name)
        # Second sweep now that ctx names are known: allocations + regions.
        for node in self._own_nodes():
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if self._is_ctx_alloc(node.value):
                    self.allocates = True
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.region_names.add(target.id)
            if isinstance(node, ast.With):
                if any(self._is_provenance_item(item) for item in node.items):
                    self.has_provenance_block = True

    def _is_ctx_call(self, call: ast.Call, method: str) -> bool:
        return _receiver_name(call) in self.ctx_names and _method_name(call) == method

    def _is_ctx_alloc(self, call: ast.Call) -> bool:
        if self._is_ctx_call(call, "alloc"):
            return True
        # ``t.allocator.alloc(...)`` — the long-hand spelling.
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "alloc"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "allocator"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in self.ctx_names
        )

    def _is_provenance_item(self, item: ast.withitem) -> bool:
        expr = item.context_expr
        return isinstance(expr, ast.Call) and self._is_ctx_call(expr, "function")


class StaticSanitizer:
    """AST lint over memapi workload source files."""

    def check_source(self, source: str, filename: str = "<string>") -> List[Diagnostic]:
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            return [
                Diagnostic(
                    rule="static.syntax-error",
                    severity="error",
                    message=f"cannot parse: {exc.msg}",
                    site=CodeSite(function="<module>", file=filename, line=exc.lineno or 0),
                )
            ]
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                diagnostics.extend(self._check_function(node, filename))
        diagnostics.sort(key=lambda d: (d.site.line if d.site else 0, d.rule))
        return diagnostics

    def check_file(self, path: Union[str, os.PathLike]) -> List[Diagnostic]:
        with open(path, "r", encoding="utf-8") as handle:
            return self.check_source(handle.read(), filename=str(path))

    def check_paths(self, paths: Sequence[Union[str, os.PathLike]]) -> List[Diagnostic]:
        """Lint files and (recursively) directories of ``.py`` files."""
        diagnostics: List[Diagnostic] = []
        for path in paths:
            path = str(path)
            if os.path.isdir(path):
                for root, _dirs, files in os.walk(path):
                    for name in sorted(files):
                        if name.endswith(".py"):
                            diagnostics.extend(self.check_file(os.path.join(root, name)))
            else:
                diagnostics.extend(self.check_file(path))
        return diagnostics

    # -- per-function checks -----------------------------------------------------

    def _check_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef], filename: str
    ) -> List[Diagnostic]:
        scan = _FunctionScan(node)
        if not scan.ctx_names:
            return []
        diagnostics: List[Diagnostic] = []
        unlabelled: List[int] = []
        self._walk_statements(node.body, scan, 0, diagnostics, unlabelled, filename)
        if unlabelled and (scan.has_provenance_block or scan.allocates):
            # Only functions that look like thread bodies (they open a
            # provenance block somewhere, or allocate their own regions)
            # are expected to label their stores; bare helper generators
            # inherit the caller's dynamic ``t.function`` scope.
            diagnostics.append(
                Diagnostic(
                    rule="static.unlabelled-write",
                    severity="warning" if scan.has_provenance_block else "info",
                    message=(
                        f"{len(unlabelled)} store-producing event(s) outside any "
                        f"`with t.function(...)` block (first at line "
                        f"{unlabelled[0]}): DirtBuster will attribute them to "
                        f"<unlabelled>"
                    ),
                    site=CodeSite(function=node.name, file=filename, line=unlabelled[0]),
                    count=len(unlabelled),
                )
            )
        return diagnostics

    def _walk_statements(
        self,
        body: Sequence[ast.stmt],
        scan: _FunctionScan,
        prov_depth: int,
        diagnostics: List[Diagnostic],
        unlabelled: List[int],
        filename: str,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are scanned as their own functions
            if isinstance(stmt, ast.Expr):
                self._check_expr_statement(stmt, scan, diagnostics, unlabelled, prov_depth, filename)
            else:
                # Yields / ctx calls buried in other statement shapes
                # (assignments, returns, comprehensions) still get the
                # address and provenance checks.
                for expr in self._own_expressions(stmt):
                    self._check_expression(expr, scan, diagnostics, unlabelled, prov_depth, filename)
            depth = prov_depth
            if isinstance(stmt, ast.With) and any(
                scan._is_provenance_item(item) for item in stmt.items
            ):
                depth += 1
            for child_body in self._child_bodies(stmt):
                self._walk_statements(child_body, scan, depth, diagnostics, unlabelled, filename)

    @staticmethod
    def _child_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
        bodies = []
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(stmt, attr, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                bodies.append(block)
        for handler in getattr(stmt, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies

    @staticmethod
    def _own_expressions(stmt: ast.stmt) -> Iterable[ast.expr]:
        """The statement's direct expression roots (not child statements)."""
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                yield child
            elif isinstance(child, ast.withitem):
                yield child.context_expr

    def _check_expression(
        self,
        root: ast.expr,
        scan: _FunctionScan,
        diagnostics: List[Diagnostic],
        unlabelled: List[int],
        prov_depth: int,
        filename: str,
    ) -> None:
        handled: set = set()
        for node in ast.walk(root):
            if isinstance(node, (ast.Yield, ast.YieldFrom)) and isinstance(
                node.value, ast.Call
            ):
                inner = node.value
                handled.add(id(inner))
                self._check_raw_addresses(inner, scan, diagnostics, filename)
                name = _receiver_name(inner)
                method = _method_name(inner)
                if name in scan.ctx_names and method in WRITE_METHODS and prov_depth == 0:
                    unlabelled.append(inner.lineno)
            elif isinstance(node, ast.Call) and id(node) not in handled:
                self._check_raw_addresses(node, scan, diagnostics, filename)

    def _check_expr_statement(
        self,
        stmt: ast.Expr,
        scan: _FunctionScan,
        diagnostics: List[Diagnostic],
        unlabelled: List[int],
        prov_depth: int,
        filename: str,
    ) -> None:
        value = stmt.value
        if isinstance(value, ast.Call):
            self._check_dropped(value, scan, diagnostics, filename)
            self._check_raw_addresses(value, scan, diagnostics, filename)
            return
        if isinstance(value, (ast.Yield, ast.YieldFrom)) and value.value is not None:
            inner = value.value
            if isinstance(inner, ast.Call):
                self._check_raw_addresses(inner, scan, diagnostics, filename)
                name = _receiver_name(inner)
                method = _method_name(inner)
                if name in scan.ctx_names and method in WRITE_METHODS and prov_depth == 0:
                    unlabelled.append(inner.lineno)
                if (
                    name in scan.ctx_names
                    and method in BLOCK_METHODS
                    and isinstance(value, ast.Yield)
                ):
                    diagnostics.append(
                        Diagnostic(
                            rule="static.yield-iterator",
                            severity="error",
                            message=(
                                f"`yield t.{method}(...)` yields the event *iterator* "
                                f"as if it were one event; use `yield from`"
                            ),
                            site=CodeSite(
                                function=scan.node.name, file=filename, line=inner.lineno
                            ),
                        )
                    )

    def _check_dropped(
        self,
        call: ast.Call,
        scan: _FunctionScan,
        diagnostics: List[Diagnostic],
        filename: str,
    ) -> None:
        name = _receiver_name(call)
        method = _method_name(call)
        if name not in scan.ctx_names or method is None:
            return
        if method in EVENT_METHODS:
            hint = (
                "the pre-store never executes; `yield` it"
                if method == "prestore"
                else "a silent no-op; `yield` it"
            )
            message = f"`t.{method}(...)` builds an Event that is discarded — {hint}"
        elif method in BLOCK_METHODS:
            message = (
                f"`t.{method}(...)` returns an iterator of events that is "
                f"discarded — use `yield from t.{method}(...)`"
            )
        elif method == "function":
            message = (
                "`t.function(...)` outside a `with` statement discards the "
                "provenance scope — use `with t.function(...):`"
            )
        else:
            return
        diagnostics.append(
            Diagnostic(
                rule="static.dropped-event",
                severity="error",
                message=message,
                site=CodeSite(function=scan.node.name, file=filename, line=call.lineno),
            )
        )

    def _check_raw_addresses(
        self,
        call: ast.Call,
        scan: _FunctionScan,
        diagnostics: List[Diagnostic],
        filename: str,
    ) -> None:
        if _receiver_name(call) not in scan.ctx_names:
            return
        if _method_name(call) not in EVENT_METHODS | BLOCK_METHODS:
            return
        for arg in call.args:
            if not isinstance(arg, ast.BinOp):
                continue
            region = self._region_base_operand(arg, scan)
            if region is not None:
                diagnostics.append(
                    Diagnostic(
                        rule="static.raw-address",
                        severity="warning",
                        message=(
                            f"address computed as arithmetic on `{region}.base` "
                            f"bypasses the bounds check — use `{region}.addr(offset)`"
                        ),
                        site=CodeSite(function=scan.node.name, file=filename, line=arg.lineno),
                    )
                )

    @staticmethod
    def _region_base_operand(expr: ast.BinOp, scan: _FunctionScan) -> Optional[str]:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "base"
                and isinstance(node.value, ast.Name)
                and node.value.id in scan.region_names
            ):
                return node.value.id
        return None


def static_check(paths: Sequence[Union[str, os.PathLike]]) -> List[Diagnostic]:
    """Lint the given files/directories; the module-level convenience."""
    return StaticSanitizer().check_paths(paths)

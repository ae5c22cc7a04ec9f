"""Static SPMD linter: AST analysis of communicator call sites.

The analyzer knows the communicator protocol's call surface (collective
method names, nonblocking request factories, tag argument positions) and
flags the violation patterns in :data:`repro.verify.rules.RULES` without
running any code.  It is deliberately *syntactic*: a condition that hides
rank-dependence behind a variable (``leader = comm.rank == 0; if
leader:``) is not detected, and a request completed through a helper the
analyzer cannot see is treated as escaped (not flagged).  False
negatives are acceptable; false positives on the shipped tree are not —
``repro verify src examples benchmarks`` must report zero findings.

Suppression: append ``# spmd: ignore[SPMD001]`` (comma-separated codes,
or bare ``# spmd: ignore`` for all) to the flagged line.

Rule sketches
-------------
``SPMD001``
    A collective issued under an ``if`` whose test mentions ``.rank`` /
    ``.Get_rank()``, without a matching call (same method) in the other
    arm.  The root/receiver split — both arms issue the collective — is
    the sanctioned shape and is not flagged; when the branch body ends
    in ``return``/``break``/``continue``, the statements after the
    ``if`` are treated as the other arm (the early-return split).
``SPMD002``
    A nonblocking call (``isend``/``irecv``) whose result is discarded
    (bare expression statement) or bound to a name that is never read
    again in the enclosing scope.  Any read — a ``wait()``, an append,
    a return — counts as an escape.
``SPMD003``
    A point-to-point call whose tag argument folds to a constant at or
    above :data:`~repro.smpi.communicator.NB_TAG_BASE` (``1 << 24``).
``SPMD004``
    An ``allreduce`` whose ``out=`` buffer is syntactically the same
    expression as its input.
``SPMD005``
    A name bound from a ``bcast`` result (or an alias of one) mutated
    in place: subscript store, augmented assignment, or an in-place
    ndarray mutator (``fill``/``sort``/…).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.smpi.communicator import NB_TAG_BASE
from repro.smpi.intercept import OPS
from repro.smpi.tracer import COLLECTIVE_OPS

from .rules import RULES

__all__ = [
    "COLLECTIVES",
    "NONBLOCKING_METHODS",
    "Finding",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: Every collective method name SPMD001 considers schedule-relevant,
#: taken from the interception op table so the linter knows every op the
#: communicator proxies know.
COLLECTIVES = frozenset(
    name for name, op in OPS.items() if op.record in COLLECTIVE_OPS
)

#: Every method returning a request SPMD002 tracks.
NONBLOCKING_METHODS = frozenset(name for name, op in OPS.items() if op.nonblocking)

#: Positional index of the ``tag`` argument per point-to-point method.
_TAG_POSITION = {
    "send": 2,
    "isend": 2,
    "recv": 1,
    "irecv": 1,
}

#: In-place ndarray mutators SPMD005 treats as writes.
_MUTATORS = frozenset({"fill", "sort", "put", "partition", "itemset", "resize"})

_SUPPRESS_RE = re.compile(
    r"#\s*spmd:\s*ignore(?:\[\s*([A-Za-z0-9_\s,]+?)\s*\])?"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def fixit(self) -> str:
        """The rule's fix-it guidance."""
        return RULES[self.code].fixit

    def format(self) -> str:
        """``path:line:col: CODE message`` plus the fix-it."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"{self.message}\n    fix: {self.fixit}"
        )

    def to_dict(self) -> Dict[str, Union[str, int]]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "fixit": self.fixit,
        }


# -- AST helpers -------------------------------------------------------------

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_PRUNE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _walk_pruned(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function bodies
    (they execute later, in their own scope)."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _PRUNE_NODES):
            continue
        yield from _walk_pruned(child)


def _child_blocks(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    """Every statement list nested directly inside ``stmt``."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if block:
            yield block
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body
    for case in getattr(stmt, "cases", ()):
        yield case.body


def _scope_statements(body: Sequence[ast.stmt]) -> List[ast.stmt]:
    """Flatten a scope's statements in source order, excluding nested
    function bodies (separate scopes)."""
    out: List[ast.stmt] = []

    def visit(stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            out.append(stmt)
            if isinstance(stmt, _SCOPE_NODES):
                continue
            for block in _child_blocks(stmt):
                visit(block)

    visit(body)
    return out


def _mentions_rank(node: ast.AST) -> bool:
    """Does the expression read this process's rank?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "rank":
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "Get_rank"
        ):
            return True
    return False


def _method_call(node: ast.AST, names: frozenset) -> Optional[str]:
    """The method name when ``node`` is an ``obj.<name>(...)`` call with
    ``name`` in ``names``; ``None`` otherwise."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    ):
        return node.func.attr
    return None


def _collectives_in(stmts: Sequence[ast.stmt]) -> List[Tuple[str, ast.Call]]:
    found: List[Tuple[str, ast.Call]] = []
    for stmt in stmts:
        for node in _walk_pruned(stmt):
            name = _method_call(node, COLLECTIVES)
            if name is not None:
                found.append((name, node))  # type: ignore[arg-type]
    return found


def _terminates(body: Sequence[ast.stmt]) -> bool:
    """Does the branch body end by leaving the enclosing block on every
    path through its last statement?  (``raise`` is excluded: an error
    path diverging from the schedule is the expected shape of a guard.)"""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Break, ast.Continue)
    )


def _const_int(node: ast.AST) -> Optional[int]:
    """Fold a pure-literal integer expression (``1 << 24``, ``3 + 4``)."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            return None
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _const_int(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.BinOp):
        left = _const_int(node.left)
        right = _const_int(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.LShift):
                return left << right
            if isinstance(node.op, ast.RShift):
                return left >> right
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.Mod):
                return left % right
            if isinstance(node.op, ast.BitOr):
                return left | right
            if isinstance(node.op, ast.BitAnd):
                return left & right
            if isinstance(node.op, ast.BitXor):
                return left ^ right
            if isinstance(node.op, ast.Pow):
                return left**right
        except (ValueError, ZeroDivisionError, OverflowError):
            return None
    return None


# -- rule checks -------------------------------------------------------------


class _Analyzer:
    """One file's analysis pass; collects findings across all rules."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self._tree = tree
        self._path = path
        self.findings: List[Finding] = []
        self._flagged: Set[Tuple[int, str]] = set()

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        key = (id(node), code)
        if key in self._flagged:
            return
        self._flagged.add(key)
        self.findings.append(
            Finding(
                path=self._path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    def run(self) -> List[Finding]:
        self._check_rank_branches(self._tree.body)
        for scope in self._scopes():
            body = scope.body  # Module and FunctionDef both carry one
            self._check_unawaited(scope, body)
            self._check_snapshot_writes(body)
        self._check_tags()
        self._check_aliasing()
        self.findings.sort(key=lambda f: (f.line, f.col, f.code))
        return self.findings

    def _scopes(self) -> Iterator[ast.AST]:
        yield self._tree
        for node in ast.walk(self._tree):
            if isinstance(node, _SCOPE_NODES):
                yield node

    # SPMD001 ----------------------------------------------------------------
    def _check_rank_branches(self, stmts: Sequence[ast.stmt]) -> None:
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, ast.If) and _mentions_rank(stmt.test):
                body_calls = _collectives_in(stmt.body)
                explicit_else = bool(stmt.orelse)
                if explicit_else:
                    else_calls = _collectives_in(stmt.orelse)
                elif _terminates(stmt.body):
                    # Early-return split: the code after the `if` is the
                    # other ranks' arm.
                    else_calls = _collectives_in(stmts[index + 1 :])
                else:
                    else_calls = []
                body_names = {name for name, _ in body_calls}
                else_names = {name for name, _ in else_calls}
                for name, call in body_calls:
                    if name not in else_names:
                        self._flag(
                            call,
                            "SPMD001",
                            f"collective '{name}' is issued only on ranks "
                            f"satisfying a rank-dependent condition; the "
                            f"other arm never issues it",
                        )
                if explicit_else or _terminates(stmt.body):
                    for name, call in else_calls:
                        if name not in body_names:
                            self._flag(
                                call,
                                "SPMD001",
                                f"collective '{name}' is issued only on "
                                f"ranks *not* satisfying a rank-dependent "
                                f"condition; the branch arm never issues it",
                            )
            for block in _child_blocks(stmt):
                self._check_rank_branches(block)

    # SPMD002 ----------------------------------------------------------------
    def _check_unawaited(self, scope: ast.AST, body: Sequence[ast.stmt]) -> None:
        loads: Set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
        for stmt in _scope_statements(body):
            if isinstance(stmt, ast.Expr):
                name = _method_call(stmt.value, NONBLOCKING_METHODS)
                if name is not None:
                    self._flag(
                        stmt.value,
                        "SPMD002",
                        f"the request returned by '{name}' is discarded; "
                        f"it never reaches wait()/test()",
                    )
                continue
            targets: List[Tuple[ast.expr, ast.expr]] = []
            if isinstance(stmt, ast.Assign) and len(stmt.targets) >= 1:
                for target in stmt.targets:
                    if isinstance(target, ast.Tuple) and isinstance(
                        stmt.value, ast.Tuple
                    ):
                        if len(target.elts) == len(stmt.value.elts):
                            targets.extend(zip(target.elts, stmt.value.elts))
                    else:
                        targets.append((target, stmt.value))
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets.append((stmt.target, stmt.value))
            for target, value in targets:
                name = _method_call(value, NONBLOCKING_METHODS)
                if name is None or not isinstance(target, ast.Name):
                    # Attribute / subscript targets escape the scope's
                    # view — assume something completes them later.
                    continue
                if target.id not in loads:
                    self._flag(
                        value,
                        "SPMD002",
                        f"request '{target.id}' from '{name}' is never "
                        f"read again in this scope; it never reaches "
                        f"wait()/test()",
                    )

    # SPMD003 ----------------------------------------------------------------
    def _check_tags(self) -> None:
        for node in ast.walk(self._tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            method = node.func.attr
            if method not in _TAG_POSITION:
                continue
            tag_expr: Optional[ast.expr] = None
            for keyword in node.keywords:
                if keyword.arg == "tag":
                    tag_expr = keyword.value
            if tag_expr is None:
                position = _TAG_POSITION[method]
                if len(node.args) > position:
                    tag_expr = node.args[position]
            if tag_expr is None:
                continue
            value = _const_int(tag_expr)
            if value is not None and value >= NB_TAG_BASE:
                self._flag(
                    tag_expr,
                    "SPMD003",
                    f"tag {value} in '{method}' lies inside the reserved "
                    f"band (NB_TAG_BASE = 1 << 24 = {NB_TAG_BASE})",
                )

    # SPMD004 ----------------------------------------------------------------
    def _check_aliasing(self) -> None:
        out_taking = frozenset({"allreduce"})
        for node in ast.walk(self._tree):
            name = _method_call(node, out_taking)
            if name is None:
                continue
            call = node  # type: ignore[assignment]
            assert isinstance(call, ast.Call)
            if not call.args:
                continue
            for keyword in call.keywords:
                if keyword.arg == "out" and ast.dump(keyword.value) == ast.dump(
                    call.args[0]
                ):
                    self._flag(
                        keyword.value,
                        "SPMD004",
                        f"out= buffer of '{name}' aliases its input "
                        f"'{ast.unparse(call.args[0])}'",
                    )

    # SPMD005 ----------------------------------------------------------------
    def _check_snapshot_writes(self, body: Sequence[ast.stmt]) -> None:
        frozen: Set[str] = set()
        for stmt in _scope_statements(body):
            if isinstance(stmt, ast.Assign):
                from_bcast = _method_call(stmt.value, frozenset({"bcast"}))
                aliases = (
                    isinstance(stmt.value, ast.Name)
                    and stmt.value.id in frozen
                )
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if from_bcast or aliases:
                            frozen.add(target.id)
                        else:
                            frozen.discard(target.id)
                    elif isinstance(target, ast.Tuple):
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                frozen.discard(element.id)
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in frozen
                    ):
                        self._flag(
                            target,
                            "SPMD005",
                            f"subscript write to '{target.value.id}', an "
                            f"array received from bcast (possibly a "
                            f"shared read-only snapshot)",
                        )
            elif isinstance(stmt, ast.AugAssign):
                base: Optional[str] = None
                if isinstance(stmt.target, ast.Name):
                    base = stmt.target.id
                elif isinstance(stmt.target, ast.Subscript) and isinstance(
                    stmt.target.value, ast.Name
                ):
                    base = stmt.target.value.id
                if base is not None and base in frozen:
                    self._flag(
                        stmt,
                        "SPMD005",
                        f"augmented assignment to '{base}', an array "
                        f"received from bcast (possibly a shared "
                        f"read-only snapshot)",
                    )
            elif isinstance(stmt, ast.Expr):
                call = stmt.value
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _MUTATORS
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id in frozen
                ):
                    self._flag(
                        call,
                        "SPMD005",
                        f"in-place '{call.func.attr}()' on "
                        f"'{call.func.value.id}', an array received from "
                        f"bcast (possibly a shared read-only snapshot)",
                    )


# -- suppression and entry points -------------------------------------------


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppression map: line -> set of codes, or ``None`` for
    "suppress everything on this line"."""
    table: Dict[int, Optional[Set[str]]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        if match.group(1) is None:
            table[number] = None
        else:
            codes = {
                code.strip().upper()
                for code in match.group(1).split(",")
                if code.strip()
            }
            table[number] = codes
    return table


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Analyze one module's source; returns unsuppressed findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1),
                code="SPMD000",
                message=f"could not parse: {exc.msg}",
            )
        ]
    findings = _Analyzer(tree, path).run()
    table = _suppressions(source)
    kept = []
    for finding in findings:
        codes = table.get(finding.line, ...)
        if codes is None:
            continue
        if codes is not ... and finding.code in codes:
            continue
        kept.append(finding)
    return kept


def lint_file(path: Union[str, pathlib.Path]) -> List[Finding]:
    """Analyze one file."""
    file_path = pathlib.Path(path)
    return lint_source(file_path.read_text(encoding="utf-8"), str(file_path))


def lint_paths(paths: Iterable[Union[str, pathlib.Path]]) -> List[Finding]:
    """Analyze files and directory trees (``**/*.py``); findings are
    ordered by path, then location."""
    files: List[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: List[Finding] = []
    for file_path in files:
        findings.extend(lint_file(file_path))
    return findings

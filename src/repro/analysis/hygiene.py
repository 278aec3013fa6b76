"""API-hygiene rules (REP020–REP023).

Convention violations that do not corrupt determinism by themselves but
reliably hide the bugs that do: shared mutable defaults, exception
handlers that swallow :class:`~repro.errors.ReproError` subclasses
indiscriminately, public modules without an explicit ``__all__``, and
imports nothing uses.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .findings import Severity
from .rules import ModuleContext, Rule, register

__all__ = [
    "MutableDefaultRule",
    "OverBroadExceptRule",
    "MissingAllRule",
    "UnusedImportRule",
]

_MUTABLE_CALLS = frozenset({"list", "dict", "set"})
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


@register
class MutableDefaultRule(Rule):
    """REP020: mutable default arguments.

    ``def f(x, seen=[])`` shares one list across every call — state leaks
    between simulated worlds that should be independent.  Default to
    ``None`` and construct inside the function.
    """

    rule_id = "REP020"
    title = "mutable default argument"
    severity = Severity.ERROR

    def check(self, module: ModuleContext) -> Iterator:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in '{node.name}()'; "
                        "default to None and build inside the function",
                    )


@register
class OverBroadExceptRule(Rule):
    """REP021: bare or over-broad ``except``.

    ``except:`` and ``except Exception:`` swallow every ``ReproError``
    (including :class:`SimulationError`, which exists to fail loudly on
    impossible states).  Catch the narrowest class that the protected
    block can actually raise.
    """

    rule_id = "REP021"
    title = "over-broad except"
    severity = Severity.WARNING

    def check(self, module: ModuleContext) -> Iterator:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare 'except:' swallows every error; catch a "
                    "specific exception class",
                )
                continue
            for name_node in self._exception_names(node.type):
                if name_node.id in _BROAD_EXCEPTIONS:
                    yield self.finding(
                        module, node,
                        f"'except {name_node.id}' is over-broad; catch "
                        "the narrowest ReproError subclass instead",
                    )

    @staticmethod
    def _exception_names(node: ast.AST):
        if isinstance(node, ast.Name):
            yield node
        elif isinstance(node, ast.Tuple):
            for element in node.elts:
                if isinstance(element, ast.Name):
                    yield element


@register
class MissingAllRule(Rule):
    """REP022: public module without ``__all__``.

    Every importable module declares its public surface explicitly so
    the API docs and star-import behaviour cannot drift from intent.
    Entry-point scripts (``__main__.py``) and private modules
    (``_name.py``) are exempt, as are modules that define nothing.
    """

    rule_id = "REP022"
    title = "missing __all__"
    severity = Severity.WARNING
    exempt_basenames = frozenset({"__main__.py", "conftest.py", "setup.py"})

    def applies_to(self, module: ModuleContext) -> bool:
        if not super().applies_to(module):
            return False
        stem = module.basename[: -len(".py")]
        return not (stem.startswith("_") and stem != "__init__")

    def check(self, module: ModuleContext) -> Iterator:
        defines_public = False
        for node in module.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            return
                        if not target.id.startswith("_"):
                            defines_public = True
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not node.name.startswith("_"):
                    defines_public = True
        if defines_public:
            yield self.finding(
                module,
                module.tree,
                "public module defines names but no __all__; declare "
                "the public surface explicitly",
            )


@register
class UnusedImportRule(Rule):
    """REP023: unused import.

    An import nothing reads is dead weight that outlives the code it
    once served, and it hides real dependencies among stale ones.  A
    name counts as used when the module reads it, when it appears in a
    string annotation (``"StudyRuntime"``), or when ``__all__``
    re-exports it.  Package ``__init__.py`` modules are exempt: their
    imports are the package's re-exported surface.
    """

    rule_id = "REP023"
    title = "unused import"
    severity = Severity.WARNING
    exempt_basenames = frozenset({"__init__.py"})

    def check(self, module: ModuleContext) -> Iterator:
        used = self._used_names(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                bindings = [
                    (alias, alias.asname or alias.name.split(".")[0])
                    for alias in node.names
                ]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bindings = [
                    (alias, alias.asname or alias.name)
                    for alias in node.names
                    if alias.name != "*"
                ]
            else:
                continue
            for alias, bound in bindings:
                if bound not in used:
                    # Aliases carry their own line from Python 3.10 on.
                    yield self.finding(
                        module,
                        alias if hasattr(alias, "lineno") else node,
                        f"'{bound}' is imported but never used; delete "
                        "the import",
                    )

    @classmethod
    def _used_names(cls, tree: ast.Module) -> Set[str]:
        used: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                used |= cls._string_annotation_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None:
                    used |= cls._string_annotation_names(node.returns)
            elif isinstance(node, ast.AnnAssign):
                used |= cls._string_annotation_names(node.annotation)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                if any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in targets
                ):
                    used |= {
                        element.value
                        for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    }
        return used

    @staticmethod
    def _string_annotation_names(annotation: ast.AST) -> Set[str]:
        """Names read inside the string parts of one annotation."""
        names: Set[str] = set()
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value.strip(), mode="eval")
                except SyntaxError:
                    continue
                names |= {
                    inner.id
                    for inner in ast.walk(parsed)
                    if isinstance(inner, ast.Name)
                }
        return names

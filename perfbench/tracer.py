"""Layer-boundary tracing by wrapping callables from outside the program.

A :class:`Tracer` replaces a class attribute or a module-level function
with a wrapper that counts calls and times them, and puts the original
back on :meth:`Tracer.remove`.  Nothing in the traced program changes:
the wrappers live only between :meth:`Tracer.wrap` and
:meth:`Tracer.remove`.

Per boundary the tracer keeps:

* ``calls`` -- every entry, recursive ones included;
* ``incl_s`` -- wall time of the outermost activations (a recursive
  re-entry is not counted twice);
* ``self_s`` -- inclusive time minus the time covered by the traced
  spans nested directly inside it;
* ``hits`` -- how many results the boundary's classifier accepted, for
  the useful-outcome ratios (``ok``, cache hit, delivered, refused ...).

This module imports nothing from the program, so its arithmetic can be
tested on its own (``test_tracer.py``).
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Boundary", "Patch", "Tracer", "merge_snapshots"]


class Boundary:
    """Counters of one traced boundary."""

    __slots__ = ("name", "calls", "incl_s", "self_s", "hits", "depth")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.depth = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "incl_s": self.incl_s,
            "self_s": self.self_s,
            "hits": self.hits,
        }


class Patch:
    """One replaced attribute, remembered so it can be put back.

    ``owner`` is a class or a module.  A module-level function is often
    bound under the same name in other modules that imported it
    (``from .serde import serialize_runtime``); with ``module_prefix``
    every such binding in ``sys.modules`` under that prefix is replaced
    too, so callers holding their own reference see the replacement.
    """

    def __init__(self, owner: object, attr: str, module_prefix: str = "") -> None:
        self.owner = owner
        self.attr = attr
        self.module_prefix = module_prefix
        self.original = owner.__dict__[attr]
        self._bound: List[object] = []

    def apply(self, replacement: object) -> None:
        targets = [self.owner]
        if self.module_prefix and not isinstance(self.owner, type):
            targets += [
                module
                for name, module in list(sys.modules.items())
                if module is not None
                and module is not self.owner
                and name.startswith(self.module_prefix)
                and module.__dict__.get(self.attr) is self.original
            ]
        for target in targets:
            setattr(target, self.attr, replacement)
        self._bound = targets

    def restore(self) -> None:
        for target in self._bound:
            setattr(target, self.attr, self.original)
        self._bound = []


class Tracer:
    """Counts and times calls at named boundaries while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.boundaries: Dict[str, Boundary] = {}
        # One [child_seconds] cell per open span; the innermost is last.
        self._stack: List[List[float]] = []
        self._patches: List[Patch] = []

    # -- installing -------------------------------------------------------

    def replace(
        self,
        owner: object,
        attr: str,
        make: Callable[[Callable], Callable],
        module_prefix: str = "",
    ) -> None:
        """Bind ``make(original)`` in place of ``owner.attr`` until removal."""
        patch = Patch(owner, attr, module_prefix)
        replacement = make(patch.original)
        replacement.__wrapped__ = patch.original
        patch.apply(replacement)
        self._patches.append(patch)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: "str | Callable[..., str]",
        classify: Optional[Callable[[object], bool]] = None,
        module_prefix: str = "",
    ) -> None:
        """Trace ``owner.attr`` under ``name``.

        ``name`` may be a function of the call's arguments, which lets
        one wrapped callable feed several boundaries (one per lockstep
        operation, say).  ``classify`` sees each result and counts the
        ones it accepts into ``hits``.
        """
        fixed = self.boundary(name) if isinstance(name, str) else None
        clock, stack = self._clock, self._stack

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                boundary = fixed or self.boundary(name(*args, **kwargs))
                boundary.calls += 1
                boundary.depth += 1
                cell = [0.0]
                stack.append(cell)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    boundary.depth -= 1
                    if boundary.depth == 0:
                        boundary.incl_s += elapsed
                    boundary.self_s += elapsed - cell[0]
                    if stack:
                        stack[-1][0] += elapsed
                if classify is not None and classify(result):
                    boundary.hits += 1
                return result

            return traced

        self.replace(owner, attr, make, module_prefix)

    def boundary(self, name: str) -> Boundary:
        """The counters for ``name``, created at zero on first use."""
        found = self.boundaries.get(name)
        if found is None:
            found = self.boundaries[name] = Boundary(name)
        return found

    def remove(self) -> None:
        """Put every original back, newest replacement first."""
        while self._patches:
            self._patches.pop().restore()

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and forget open spans.

        A forked child calls this first: it inherits the parent's counts
        and the parent's open spans, neither of which is its own work.
        """
        self._stack.clear()
        for boundary in self.boundaries.values():
            boundary.calls = boundary.hits = boundary.depth = 0
            boundary.incl_s = boundary.self_s = 0.0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {name: b.as_dict() for name, b in sorted(self.boundaries.items())}


def merge_snapshots(
    snapshots: List[Dict[str, Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    """Sum per-boundary counters across processes."""
    total: Dict[str, Dict[str, float]] = {}
    for snapshot in snapshots:
        for name, values in snapshot.items():
            into = total.setdefault(name, dict.fromkeys(values, 0))
            for key, value in values.items():
                into[key] += value
    return {name: total[name] for name in sorted(total)}

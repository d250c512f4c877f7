"""Span tracer for fibgrid's module boundaries, installed from outside the package.

Nothing in fibgrid is edited.  ``Tracer.install`` finds its spans by
introspection, so a later change that renames or reroutes internals stays
traced without editing this file:

* every function that one fibgrid module imports from another is replaced,
  in the importing module's namespace, by a wrapper labelled with the
  callee's module (``nullity``'s binding of ``fib_hmp`` becomes a
  ``fibpoly`` span, and so on);
* ``fibgrid.cli.main``, the benchmark's own entry into the package, is a
  ``cli`` span;
* every method of ``GridSystem`` is wrapped.  ``_eliminate`` is labelled
  ``grid.eliminate`` and ``solve`` is labelled ``grid.solve``; any other
  method inherits the label of an enclosing ``grid.*`` span, or is
  ``grid.other`` when called from outside the grid layer, as are the grid
  module's own functions.

Classes imported across modules (``PolyGF2``, ``LightState``, the exception
types) are not replaced, because a wrapper would break ``isinstance`` checks
and ``except`` clauses; work done by their operators counts toward the
caller's layer.  So do calls through references that a module stored in a
container at import time (the CLI's table of `fib` methods), since
only module-level bindings are replaced.

A layer's self time is the wall time of its spans minus the part covered by
nested spans.  Its calls are the spans that enter it from
another layer, cached returns included (``solve`` calls ``_eliminate`` every
time, and only the first call eliminates).  Only aggregates are kept: calls
and self time per label, the operand sizes of ``polygf2`` calls (every int
or ``PolyGF2`` argument counts as a coefficient mask) and the result sizes
of ``fibpoly`` calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

# polygf2 self time is also split by operand degree, the largest degree among
# the polynomial arguments of the call.
DEGREE_BUCKETS = ((1 << 10, "deg_lt_1k"), (1 << 14, "deg_1k_16k"), (1 << 18, "deg_16k_256k"))
DEGREE_TOP = "deg_ge_256k"

_METHOD_LABELS = {"_eliminate": "grid.eliminate", "solve": "grid.solve"}


def _bits_of(value) -> int | None:
    """Coefficient-bit count of a raw mask or a PolyGF2-like value, else None."""
    if type(value) is int:
        return value.bit_length()
    bits = getattr(value, "bits", None)
    if type(bits) is int:
        return bits.bit_length()
    return None


def _degree_bucket(degree: int) -> str:
    for limit, name in DEGREE_BUCKETS:
        if degree < limit:
            return name
    return DEGREE_TOP


class Tracer:
    """Aggregated spans over any number of install/uninstall cycles."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [label, seconds covered by child spans]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("fibgrid")
        modules = [package] + [
            importlib.import_module(f"fibgrid.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module in modules:
            for name, value in list(vars(module).items()):
                home = getattr(value, "__module__", "") or ""
                if (
                    inspect.isfunction(value)
                    and home.startswith("fibgrid.")
                    and home != module.__name__
                ):
                    layer = home.rsplit(".", 1)[1]
                    if layer == "grid":
                        layer = "grid.other"
                    self._patch(module, name, self._wrap(value, layer))
        cli = importlib.import_module("fibgrid.cli")
        self._patch(cli, "main", self._wrap(cli.main, "cli"))
        system = importlib.import_module("fibgrid.grid").GridSystem
        for name, value in list(vars(system).items()):
            if inspect.isfunction(value):
                self._patch(system, name, self._wrap(value, None, method=name))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fn, label: str | None, method: str | None = None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            if method is None:
                name = label
            else:
                name = _METHOD_LABELS.get(method) or (
                    parent if parent.startswith("grid.") else "grid.other"
                )
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self._record(name, name != parent, elapsed - frame[1], args, result)

        return span

    def _record(self, name: str, entered: bool, self_time: float, args: tuple, result) -> None:
        # a call counts when it enters the layer; a helper method running inside
        # a span of its own label adds self time but no call
        self.calls[name] += entered
        self.self_s[name] += self_time
        if name == "polygf2":
            sizes = [b for b in map(_bits_of, args) if b is not None]
            if sizes:
                self.counters["polygf2.bits_in"] += sum(sizes)
                bucket = _degree_bucket(max(sizes) - 1)
                self.self_s[f"polygf2.{bucket}"] += self_time
        elif name == "fibpoly":
            bits = getattr(result, "bits", None)
            if type(bits) is int:
                self.counters["fibpoly.bits_out"] += bits.bit_length()

"""Per-layer tracing from outside the program.

:class:`Tracer` replaces each public layer function below with a wrapper at
every ``liouvillian`` module that looks it up by name (``gcd`` is looked up in
``algebra`` itself, by ``RatFunc`` normalisation, and in ``reduction`` and
``decision``).  A wrapper records one span per call: function, start, end and
the span that was open when it started.  Spans stay in memory until the run
ends; self time is a span's duration minus that of its child spans.  Nothing
in ``src/`` changes.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import sys
import time
from dataclasses import dataclass

LAYERS = {
    "parser": ("parse_expression", "parse_polynomial", "parse_poly_over_coeff_field",
               "render", "render_poly"),
    "reduction": ("hermite_reduce", "rational_antiderivative", "residue_resultant",
                  "ratio_resultant", "scaled_log_witness",
                  "log_derivative_up_to_constant"),
    "algebra": ("gcd", "resultant", "rational_roots", "squarefree_decompose",
                "is_squarefree"),
    "decision": ("decide_autonomous", "decide_square", "decide_abel",
                 "degree_bound_check", "log_derivative_of_algebraic"),
    "verify": ("verify_autonomous_witness", "verify_square_witness"),
}
PACKAGE = "liouvillian"
NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
PARSES = ("parser.parse_expression", "parser.parse_polynomial",
          "parser.parse_poly_over_coeff_field")
CHECKS = ("verify.verify_autonomous_witness", "verify.verify_square_witness")


@dataclass(slots=True)
class Span:
    name: int        # index into NAMES
    start: float
    end: float
    parent: int      # index of the enclosing span, or -1
    line: int = -1   # input line, filled in by Tracer.assign_lines


def _package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.sites: dict[str, list[str]] = {name: [] for name in NAMES}
        self.sylvester_size_max = 0
        self.w_degree_max = 0
        self.roots_split = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- observers of argument and result sizes --------------------------------

    def _observe_resultant(self, args, result):
        a, b = args
        self.sylvester_size_max = max(self.sylvester_size_max,
                                      len(a.coeffs) + len(b.coeffs) - 2)

    def _observe_ratio(self, args, result):
        self.w_degree_max = max(self.w_degree_max, result.degree() or 0)

    def _observe_roots(self, args, result):
        self.roots_split += result[1].is_constant()

    def _wrap(self, index: int, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            span = Span(index, clock(), 0.0, parent)
            spans.append(span)
            stack.append(slot)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def __enter__(self) -> Tracer:
        importlib.import_module(f"{PACKAGE}.cli")
        self.sites = {name: [] for name in NAMES}
        modules = _package_modules()
        observers = {"algebra.resultant": self._observe_resultant,
                     "reduction.ratio_resultant": self._observe_ratio,
                     "algebra.rational_roots": self._observe_roots}
        for index, name in enumerate(NAMES):
            home, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), fn_name)
            wrapper = self._wrap(index, original, observers.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
                        self.sites[name].append(f"{module.__name__}.{attr}")
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------------

    def assign_lines(self, first_span: int, stamps: list[float]) -> None:
        """Tag spans from ``first_span`` on with the input line they served:
        the number of output lines written before the span started."""
        for span in self.spans[first_span:]:
            span.line = bisect.bisect_right(stamps, span.start)


def summarize(spans: list[Span], wall_s: float) -> dict:
    """Calls and self time per function over ``spans`` (a whole span list,
    since parents are list indices), and the part of ``wall_s`` that no span
    covers."""
    calls = [0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    top = 0.0
    parses = 0
    for span in spans:
        duration = span.end - span.start
        calls[span.name] += 1
        self_s[span.name] += duration
        if span.parent >= 0:
            self_s[spans[span.parent].name] -= duration
        else:
            top += duration
        if NAMES[span.name] in PARSES and (
                span.parent < 0 or NAMES[spans[span.parent].name] not in PARSES):
            parses += 1
    return {"calls": dict(zip(NAMES, calls)), "self_s": dict(zip(NAMES, self_s)),
            "cli_self_s": wall_s - top, "outer_parses": parses}

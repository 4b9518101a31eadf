"""Spans recorded from outside the package, and per-layer totals computed from them.

Every wrapper records one span ``(name, start, end, parent)`` around one
call into a layer; spans stay in memory until the run ends.  A layer's
self time is its spans' durations minus the time their direct child
spans cover.  Work the tracer itself does after a call (measuring operand
sizes, remembering generator inputs) is recorded as a ``trace.measure``
child of the caller's span, so it is charged to no layer.

Nothing under ``src/`` is edited: :func:`install` shadows hook and
calculus methods on instance objects (``core`` dispatches through
``self.``), replaces module attributes that callers look up at call time,
and :meth:`Tracer.presentation` wraps the generator callables of a
``Presentation``.  :func:`uninstall` restores every replaced attribute.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from fractions import Fraction

from kits import KITS

HOOKS = ("compose", "apply", "ore_complete", "canonical_value")
CALCULUS = ("pq_equivalent", "extend_apply", "frac_compose", "frac_equal", "frac_apply")
INSTANCE_KEYS = {kit.name: kit.key for kit in KITS}
VERIFIER_PHASES = {
    "verify_injectivity": "verifier.injectivity",
    "search_ore_witness": "verifier.ore_search",
    "verify_right_cancellation": "verifier.cancellation",
}
GRAMMAR_NAMES = {
    "parse_pq": "grammar.parse",
    "parse_frac": "grammar.parse",
    "parse_element": "grammar.parse",
    "pq_text": "grammar.print",
    "element_text": "grammar.print",
    "canonical_json": "grammar.print",
}


def bit_size(value) -> int:
    """Largest ``bit_length`` of any integer inside a value of the package."""
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max((bit_size(v) for v in value), default=0)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max(
            (bit_size(getattr(value, f.name)) for f in dataclasses.fields(value)), default=0
        )
    return 0


class Tracer:
    """In-memory spans plus exact counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.max_bits: dict[str, int] = {}
        self.generator_inputs: set = set()
        self._restore: list = []

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so that each call records a span; ``after(args, result)`` runs untimed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result)
                spans.append(("trace.measure", end, clock(), parent))
            return result

        return wrapper

    # --- what gets wrapped -----------------------------------------------

    def shadow_instance(self, instance):
        """Shadow the hooks and the derived calculus on one instance object."""
        key = INSTANCE_KEYS[instance.name]

        def record_bits(args, result, key=key):
            bits = bit_size(result)
            if bits > self.max_bits.get(key, 0):
                self.max_bits[key] = bits

        for hook in HOOKS:
            method = getattr(instance, hook)
            setattr(instance, hook, self.span(f"instances.{key}.{hook}", method, record_bits))
        for name in CALCULUS:
            setattr(instance, name, self.span(f"core.{name}", getattr(instance, name)))
        return instance

    def presentation(self, presentation):
        """A copy of ``presentation`` whose generator callables record spans."""

        def remember(name):
            def after(args, result):
                self.generator_inputs.add((name, args[0]))

            return after

        generators = tuple(
            (name, self.span("verifier.generator", fn, remember(name)))
            for name, fn in presentation.generators
        )
        return dataclasses.replace(presentation, generators=generators)

    def _patch(self, module, attribute, replacement):
        self._restore.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, replacement)

    def install(self, verifier_module, cli_module):
        """Replace the module attributes that ``verify`` and ``cli.main`` look up."""
        for attribute, name in VERIFIER_PHASES.items():
            self._patch(verifier_module, attribute, self.span(name, getattr(verifier_module, attribute)))

        def count_chars(args, result):
            self.counters["grammar.input_chars"] += len(args[1])

        for attribute, name in GRAMMAR_NAMES.items():
            after = count_chars if name == "grammar.parse" else None
            self._patch(cli_module, attribute, self.span(name, getattr(cli_module, attribute), after))
        self._patch(cli_module, "build_parser", self.span("cli.build_parser", cli_module.build_parser))
        create = cli_module.create_instance
        self._patch(
            cli_module, "create_instance", lambda *a, **k: self.shadow_instance(create(*a, **k))
        )

    def uninstall(self):
        while self._restore:
            module, attribute, original = self._restore.pop()
            setattr(module, attribute, original)

    # --- totals ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """``{span name: [calls, self seconds]}`` over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - covered
        return out

"""Per-layer tracing of the checker from outside its source.

`Tracer.install()` replaces each layer's entry points with counting,
timing wrappers. A function is replaced in every loaded module namespace
that binds it, because `subst`, `free_vars`, `alpha_eq` and the other
syntax helpers are imported by name into the kernel, elaborator, printer
and signature modules; a wrapper on `lttw.syntax` alone would miss those
calls. Methods are replaced on their class. `uninstall()` puts every
original back.

A span opens when control enters a layer from a different layer and
closes when that call returns; calls that stay inside the current layer
are counted but open no span. Spans live in flat in-memory arrays and are
reduced to per-layer self time (each span's duration minus the time its
child spans cover) only after the traced work is done.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import lttw.checker
import lttw.elaborator
import lttw.kernel
import lttw.parser
import lttw.printer
import lttw.signature
import lttw.syntax

LAYERS = ("bench", "checker", "parser", "elaborator", "signature", "kernel",
          "syntax", "printer")
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

# (layer, module or class, attribute, counter key or None)
_ENTRY_POINTS = [
    ("parser", lttw.parser, "parse_script", "parser.calls"),
    ("parser", lttw.parser, "parse_term", "parser.calls"),
    ("parser", lttw.parser, "parse_kind", "parser.calls"),
    ("checker", lttw.checker.Checker, "run_command", None),
    ("checker", lttw.checker, "replay", None),
    ("elaborator", lttw.elaborator.Elaborator, "term", None),
    ("elaborator", lttw.elaborator.Elaborator, "kind", None),
    ("elaborator", lttw.elaborator.Elaborator, "unify", None),
    ("elaborator", lttw.elaborator.Elaborator, "unify_kinds", None),
    ("elaborator", lttw.elaborator.Elaborator, "finish_term", None),
    ("elaborator", lttw.elaborator.Elaborator, "finish_kind", None),
    ("elaborator", lttw.elaborator, "elaborate", None),
    ("elaborator", lttw.elaborator, "elaborate_kind", None),
    ("elaborator", lttw.elaborator, "unify", None),
    ("elaborator", lttw.elaborator.MetaState, "fresh", "elaborator.metas"),
    ("signature", lttw.signature, "declare_constant", None),
    ("signature", lttw.signature, "define", None),
    ("signature", lttw.signature, "declare_rewrite", None),
    ("signature", lttw.signature, "lookup", None),
    ("kernel", lttw.kernel, "whnf", "kernel.whnf.calls"),
    ("kernel", lttw.kernel, "normalize", "kernel.normalize.calls"),
    ("kernel", lttw.kernel, "normalize_kind", None),
    ("kernel", lttw.kernel, "infer_kind", "kernel.infer_kind.calls"),
    ("kernel", lttw.kernel, "equal_kinds", "kernel.equal_kinds.calls"),
    ("kernel", lttw.kernel, "convertible", "kernel.convertible.calls"),
    # nothing calls `convertible` itself: conversion runs in its worker
    ("kernel", lttw.kernel, "_conv", "kernel.convertible.calls"),
    ("kernel", lttw.kernel, "check_term", "kernel.check_term.calls"),
    ("kernel", lttw.kernel, "check_kind_valid", None),
    ("kernel", lttw.kernel, "check_context", None),
    ("syntax", lttw.syntax, "subst", "syntax.subst.calls"),
    ("syntax", lttw.syntax, "subst_parallel", "syntax.subst_parallel.calls"),
    ("syntax", lttw.syntax, "alpha_eq", "syntax.alpha_eq.calls"),
    ("syntax", lttw.syntax, "fresh_name", "syntax.fresh_name.calls"),
    ("syntax", lttw.syntax, "spine", None),
    ("syntax", lttw.syntax, "app", None),
    ("syntax", lttw.syntax, "metas_of", None),
    ("syntax", lttw.syntax, "contains_meta", None),
    ("printer", lttw.printer, "print_term", "printer.calls"),
    ("printer", lttw.printer, "print_kind", "printer.calls"),
    ("printer", lttw.printer, "show", None),
]

# Checker command classes, timed inclusively (outermost call only).
_COMMANDS = {"_declare": "checker.declare.ms", "_define": "checker.define.ms",
             "_rule": "checker.rule.ms", "_directive": "checker.directive.ms"}

COUNTERS = (
    "parser.calls", "parser.tokens", "elaborator.metas",
    "elaborator.metas_solved", "elaborator.unify_calls",
    "elaborator.drain_rounds", "signature.entries", "signature.rules",
    "kernel.whnf.calls", "kernel.normalize.calls", "kernel.infer_kind.calls",
    "kernel.equal_kinds.calls", "kernel.convertible.calls",
    "kernel.check_term.calls", "kernel.fuel_spent", "syntax.subst.calls",
    "syntax.subst_parallel.calls", "syntax.free_vars.calls",
    "syntax.free_vars.hits", "syntax.alpha_eq.calls",
    "syntax.fresh_name.calls", "printer.calls", "printer.chars",
)


class Tracer:
    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.inclusive = dict.fromkeys(_COMMANDS.values(), 0.0)
        self.span_layer = array("b")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans and their layers, innermost last; -1 is the benchmark
        self._stack = [-1]
        self._layers = [_LAYER_ID["bench"]]
        self._meta_states = []
        # the last drain round's batch, held so its identity stays unique
        self._last_round = [None]
        self._saved = []

    # ------------------------------------------------------------ spans

    def _spanned(self, fn, layer: int, key, after=None):
        """Wrap fn: count it, and open a span when it enters a new layer.
        `after(result, args)` sees each return value."""
        counts, stack, layers = self.counts, self._stack, self._layers
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if key is not None:
                counts[key] += 1
            if layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(span_start)
                span_layer.append(layer)
                span_parent.append(stack[-1])
                span_end.append(0.0)
                stack.append(idx)
                layers.append(layer)
                span_start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_end[idx] = perf_counter()
                    stack.pop()
                    layers.pop()
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------ installing

    def _replace(self, original, wrapper) -> None:
        """Swap `original` for `wrapper` in every loaded module that binds
        it under any name, the benchmark's own included."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        counts = self.counts
        for layer, owner, attr, key in _ENTRY_POINTS:
            original = owner.__dict__[attr]
            wrapper = self._spanned(original, _LAYER_ID[layer], key,
                                    self._after_hook(owner, attr))
            if isinstance(owner, type):
                self._replace_method(owner, attr, wrapper)
            else:
                self._replace(original, wrapper)

        free_vars = lttw.syntax.free_vars

        def free_vars_hit(e):
            counts["syntax.free_vars.calls"] += 1
            if getattr(e, "_fv", None) is not None:
                counts["syntax.free_vars.hits"] += 1
            return free_vars(e)

        self._replace(free_vars, self._spanned(free_vars_hit,
                                               _LAYER_ID["syntax"], None))

        tokenize = lttw.parser.tokenize

        def tokenize_counted(text, file):
            tokens = tokenize(text, file)
            counts["parser.tokens"] += len(tokens)
            return tokens

        self._replace(tokenize, tokenize_counted)

        spend = lttw.kernel.Fuel.spend

        def spend_counted(fuel):
            counts["kernel.fuel_spent"] += 1
            return spend(fuel)

        self._replace_method(lttw.kernel.Fuel, "spend", spend_counted)

        meta_init = lttw.elaborator.MetaState.__init__
        states = self._meta_states

        def meta_init_registered(state):
            meta_init(state)
            states.append(state)

        self._replace_method(lttw.elaborator.MetaState, "__init__",
                             meta_init_registered)

        unify_ = lttw.elaborator.Elaborator._unify
        drain = lttw.elaborator.Elaborator._drain
        last_round = self._last_round

        def unify_counted(el, *args):
            counts["elaborator.unify_calls"] += 1
            caller = sys._getframe(1)
            if caller.f_code is drain.__code__:
                # a new `pending` batch in the caller is a new drain round
                pending = caller.f_locals.get("pending")
                if last_round[0] is not pending:
                    counts["elaborator.drain_rounds"] += 1
                    last_round[0] = pending
            return unify_(el, *args)

        self._replace_method(lttw.elaborator.Elaborator, "_unify",
                             unify_counted)
        self._replace_method(
            lttw.elaborator.Elaborator, "_drain",
            self._spanned(drain, _LAYER_ID["elaborator"], None))

        for attr, key in _COMMANDS.items():
            self._replace_method(
                lttw.checker.Checker, attr,
                self._inclusive(lttw.checker.Checker.__dict__[attr], key))

    def _after_hook(self, owner, attr):
        """What to count from a return value: entries and rules a
        signature gained, characters a printer produced."""
        counts = self.counts
        if owner is lttw.signature and attr in ("declare_constant", "define",
                                                "declare_rewrite"):
            key = ("signature.rules" if attr == "declare_rewrite"
                   else "signature.entries")

            def added(result, args):
                counts[key] += 1
            return added
        if owner is lttw.printer and attr in ("print_term", "print_kind"):
            def printed(result, args):
                counts["printer.chars"] += len(result)
            return printed
        return None

    def _inclusive(self, method, key):
        layer = _LAYER_ID["checker"]
        spanned = self._spanned(method, layer, None)
        inclusive = self.inclusive
        depth = [0]

        def wrapper(ck, cmd):
            depth[0] += 1
            start = perf_counter()
            try:
                return spanned(ck, cmd)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    inclusive[key] += perf_counter() - start

        return wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        self.counts["elaborator.metas_solved"] += sum(
            len(s.solutions) for s in self._meta_states)
        self._meta_states.clear()
        self._last_round[0] = None

    # ----------------------------------------------------------- result

    def self_seconds(self) -> dict[str, float]:
        """Seconds each layer spent in its own code: every span's duration
        minus the durations of the spans it directly caused."""
        out = [0.0] * len(LAYERS)
        layer, parent = self.span_layer, self.span_parent
        start, end = self.span_start, self.span_end
        for i in range(len(start)):
            d = end[i] - start[i]
            out[layer[i]] += d
            p = parent[i]
            if p >= 0:
                out[layer[p]] -= d
        return dict(zip(LAYERS, out))

    def write_spans(self, path) -> None:
        """Spans as four native arrays, in the order of `span_fields`."""
        with open(path, "wb") as f:
            for a in (self.span_layer, self.span_parent, self.span_start,
                      self.span_end):
                a.tofile(f)

    span_fields = ("layer:int8", "parent:int64", "start:float64",
                   "end:float64")

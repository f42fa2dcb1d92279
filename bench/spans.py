"""Span tracing of the calls into each ``gwn`` module, from outside it.

While an op is traced, every public function named in ``LAYERS`` is
replaced, at every ``gwn.*`` module attribute that binds it, by a wrapper
that records one span: (id, name, start, end, parent, op id, counts).
Spans live in memory until the run ends.  Each thread keeps its own span
stack, because ``run_verify_all`` runs suites on a thread pool; a span
opened on a thread with an empty stack is a child of the op's root span.

A span's self time is its duration minus the part of it that its child
spans cover.  Spans of suites that run concurrently overlap, so wall-clock
self times on those threads include waiting for the interpreter lock.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# (layer, defining module, function names, counts recorded per call)
LAYERS = (
    ("symtensor.sym_product", "symtensor", ("sym_product",), None),
    ("extfock.ext_inner_n", "extfock", ("ext_inner_n",), None),
    ("extfock.fock_inner_n", "extfock", ("fock_inner_n",), None),
    ("fieldops.field_ops", "fieldops",
     ("create", "neutral", "annihilate1", "annihilate2", "gamma_field"), None),
    ("wickcalc.wick_kernels", "wickcalc", ("wick_kernels",), None),
    ("wickcalc.convert", "wickcalc",
     ("wick_to_monomial", "monomial_to_wick"), None),
    ("wickcalc.evaluate_batch", "wickcalc", ("evaluate_batch",),
     lambda a, k: {"rows": len(a[1] if len(a) > 1 else k["masses"])}),
    ("wickcalc.rank_one_batch", "wickcalc", ("wick_pair_rank_one_batch",),
     lambda a, k: {"rows": len(a[0] if a else k["masses"])}),
    ("gammasample.mc", "gammasample",
     ("mc_laplace", "mc_chaos_gram", "chaos_projection_check"), None),
    ("funcalc.quadrature", "funcalc",
     ("del_integral", "annihilate1_integral"), None),
    ("funcalc.adjointness", "funcalc", ("a1_plus_mc_adjointness_check",), None),
)

# sampler generators: each next() is one span, counted by what it yields
GENERATORS = (
    ("gammasample.gamma_draw", "iter_sample_batches",
     lambda item: {"samples": len(item[1])}),
    ("gammasample.cp_draw", "iter_jump_batches",
     lambda item: {"samples": len(item[0]), "jumps": len(item[1])}),
)

SUITE_RUNNERS = ("run_verify_suite", "run_mc_suite")
ROOT_SPAN = "op"
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "counts")


def _check_functions(funcalc) -> tuple[str, ...]:
    """The public ``*_check`` functions of funcalc other than the MC
    adjointness check, which is its own layer."""
    return tuple(sorted(
        name for name, fn in vars(funcalc).items()
        if name.endswith("_check") and not name.startswith("_")
        and getattr(fn, "__module__", None) == funcalc.__name__
        and name != "a1_plus_mc_adjointness_check"))


class Tracer:
    """Records spans around the calls into gwn while an op is traced."""

    def __init__(self, gwn_modules: dict):
        self.modules = gwn_modules          # short name -> module
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._root = 0
        self._op = None
        self._patches = self._plan()

    # -- patch plan ---------------------------------------------------
    def _binders(self, fn):
        """Every (module, attribute) of gwn that binds fn."""
        return [(mod, attr) for mod in self.modules.values()
                for attr, val in list(vars(mod).items()) if val is fn]

    def _plan(self) -> list[tuple]:
        """(object, attribute, original, wrapper) for every patch."""
        mods = self.modules
        plan = []

        def patch(home, name, make_wrapper):
            fn = getattr(home, name, None)
            if fn is not None:
                wrapped = make_wrapper(fn)
                plan.extend((mod, attr, fn, wrapped)
                            for mod, attr in self._binders(fn))

        layers = LAYERS + (("funcalc.checks", "funcalc",
                            _check_functions(mods["funcalc"]), None),)
        for layer, home, names, counts in layers:
            for name in names:
                patch(mods[home], name, lambda fn, _l=layer, _c=counts:
                      self._wrap(fn, lambda a, k: _l, _c))
        for layer, name, counts in GENERATORS:
            patch(mods["gammasample"], name, lambda fn, _l=layer, _c=counts:
                  self._wrap_generator(fn, _l, _c))
        for name in SUITE_RUNNERS:
            patch(mods["verify"], name, lambda fn:
                  self._wrap(fn, lambda a, k: f"verify.{a[0]}", None))
        poly = mods["wickcalc"].PolyFunctional
        fn = poly.evaluate
        plan.append((poly, "evaluate", fn,
                     self._wrap(fn, lambda a, k: "wickcalc.evaluate", None)))
        return plan

    # -- span recording -----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _record(self, sid, name, t0, t1, parent, counts) -> None:
        self.spans.append((sid, name, t0, t1, parent, self._op, counts))

    def _wrap(self, fn, namer, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._record(sid, namer(args, kwargs), t0, t1, parent,
                             counts(args, kwargs) if counts else None)
        return traced

    def _wrap_generator(self, fn, layer, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack = self._stack()
                parent = stack[-1] if stack else self._root
                sid = next(self._ids)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                self._record(sid, layer, t0, time.perf_counter(), parent,
                             counts(item))
                yield item
        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op: patch gwn, open the root span, restore on exit."""
        for obj, attr, _, wrapped in self._patches:
            setattr(obj, attr, wrapped)
        self._op = op_id
        self._root = next(self._ids)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            for obj, attr, fn, _ in self._patches:
                setattr(obj, attr, fn)
            self._record(self._root, ROOT_SPAN, t0, t1, 0, None)
            self._root = 0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)
            fh.write("\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> list[float]:
    """Self time of every span, in the order given."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _, _ in spans:
        children[parent].append((t0, t1))
    return [(t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            for sid, _, t0, t1, _, _, _ in spans]


def layer_metrics(spans, n_ops: int, cli_op: bool,
                  suite_names) -> dict[str, float]:
    """Per-op means of the per-layer metrics over n_ops traced ops."""
    calls = defaultdict(int)
    selfs = defaultdict(float)
    counts = defaultdict(float)
    spans_s = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        _, name, t0, t1, _, _, cnt = span
        calls[name] += 1
        selfs[name] += own
        spans_s[name] += t1 - t0
        for key, val in (cnt or {}).items():
            counts[f"{name}.{key}"] += val
    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for layer in ("symtensor.sym_product", "extfock.ext_inner_n",
                  "extfock.fock_inner_n", "fieldops.field_ops",
                  "wickcalc.wick_kernels", "wickcalc.convert",
                  "wickcalc.evaluate", "wickcalc.evaluate_batch",
                  "wickcalc.rank_one_batch", "funcalc.quadrature"):
        out[f"{layer}.calls"] = calls[layer] * per_op
        out[f"{layer}.self_s"] = selfs[layer] * per_op
    for layer in ("gammasample.gamma_draw", "gammasample.cp_draw",
                  "gammasample.mc", "funcalc.adjointness", "funcalc.checks"):
        out[f"{layer}.self_s"] = selfs[layer] * per_op
    for key in ("wickcalc.evaluate_batch.rows", "wickcalc.rank_one_batch.rows",
                "gammasample.gamma_draw.samples", "gammasample.cp_draw.samples",
                "gammasample.cp_draw.jumps"):
        out[key] = counts[key] * per_op
    for suite in suite_names:
        out[f"verify.{suite}.s"] = spans_s[f"verify.{suite}"] * per_op
    out["cli.self_s"] = selfs[ROOT_SPAN] * per_op if cli_op else 0.0
    return out

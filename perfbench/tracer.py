"""Per-layer tracing from outside the package.

The traced run wraps the package's public entry points (and the two
private enumerators `_finite_elements` and `_ball`, for their counts
only) by rebinding them in every `shallow_chars` module that holds them.
Nothing in the package changes.

Spans are kept as a call tree: a span's node is keyed by its parent and
its name, and repeated calls add to the node's call count and total
time.  That keeps parent links and self time (total minus the children's
totals) at a memory cost bounded by the number of distinct call paths.
Each op is one root span, keyed by its input class.

Entry points that run once per coset, per field operation or per
collection step (`Context.expansion_terms`, `FiniteField.*`, `_collect`)
get no wrapper; their work is counted by formula at the layer above.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Node:
    __slots__ = ("name", "children", "calls", "total")

    def __init__(self, name: str):
        self.name = name
        self.children: Dict[str, "Node"] = {}
        self.calls = 0
        self.total = 0.0

    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def walk(self, parent: Optional[int], out: List[Dict]) -> None:
        me = len(out)
        out.append(
            {
                "id": me,
                "parent": parent,
                "name": self.name,
                "calls": self.calls,
                "total_s": self.total,
                "self_s": self.self_time(),
            }
        )
        for child in self.children.values():
            child.walk(me, out)


# span name -> per-layer metric name, for the time metrics
LAYER_TIMES = {
    "cli": "cli.overhead_s",
    "chevalley.pinning": "chevalley.pinning_s",
    "chevalley.expansion": "chevalley.expansion_s",
    "chevalley.reflection_sign": "chevalley.reflection_sign_s",
    "chevalley.hash": "chevalley.hash_s",
    "context.build": "context.build_s",
    "characters.rows": "characters.rows_s",
    "characters.solve": "characters.solve_s",
    "characters.oracle": "characters.oracle_s",
    "characters.validate": "characters.validate_s",
    "group_model.tables": "group_model.tables_s",
    "group_model.sweep": "group_model.sweep_s",
    "weyl.star": "weyl.star_s",
    "weyl.scan": "weyl.scan_s",
    "weyl.reduction": "weyl.reduction_s",
}

COUNTERS = (
    "chevalley.expansions",
    "chevalley.reflection_signs",
    "context.shallow_roots",
    "context.pairs",
    "characters.rows",
    "characters.rank",
    "characters.oracle_vectors",
    "characters.validate_calls",
    "group_model.collections",
    "group_model.checked",
    "weyl.finite_elements",
    "weyl.ball_elements",
)


class Tracer:
    def __init__(self):
        self.root = Node("run")
        self.stack: List[Node] = [self.root]
        self.counts: Counter = Counter()
        self.events = 0  # spans opened, for the overhead estimate
        self.active = False  # only calls made inside an op are traced

    def enter(self, name: str) -> Node:
        parent = self.stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name)
        node.calls += 1
        self.stack.append(node)
        self.events += 1
        return node

    def op(self, label: str, call: Callable[[], int]) -> int:
        """Run one op as a root span keyed by its input class."""
        node = self.root.children.get(label)
        if node is None:
            node = self.root.children[label] = Node("cli")
        node.calls += 1
        self.stack.append(node)
        self.active = True
        t0 = perf_counter()
        try:
            return call()
        finally:
            node.total += perf_counter() - t0
            self.active = False
            self.stack.pop()

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn inside a span; after(counts, args, result) records counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            node = tracer.enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.total += perf_counter() - t0
                tracer.stack.pop()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def span_generator(self, name: str, fn: Callable, before: Callable) -> Callable:
        """A generator function whose every resumption is a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            before(tracer.counts, args)
            gen = fn(*args, **kwargs)
            while True:
                node = tracer.enter(name)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    node.total += perf_counter() - t0
                    tracer.stack.pop()
                yield item

        return wrapper

    def counted(self, fn: Callable, after: Callable) -> Callable:
        """fn with counts but no span: its time stays with the caller."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                after(tracer.counts, args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------

    def self_times(self) -> Counter:
        out: Counter = Counter()
        todo = list(self.root.children.values())
        while todo:
            node = todo.pop()
            out[node.name] += node.self_time()
            todo.extend(node.children.values())
        return out

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds, measured on a no-op."""
        probe = Tracer()
        probe.active = True
        noop = probe.span("probe", lambda: None)
        bare = lambda: None  # noqa: E731
        t0 = perf_counter()
        for _ in range(calls):
            bare()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def layer_metrics(self, ops: int) -> Dict[str, Dict]:
        """Per-op means: self seconds per layer, counts per layer."""
        times = self.self_times()
        metrics = {
            metric: {"value": times.get(span, 0.0) / ops, "unit": "s"}
            for span, metric in LAYER_TIMES.items()
        }
        for name in COUNTERS:
            metrics[name] = {"value": self.counts.get(name, 0) / ops, "unit": "count"}
        metrics["trace.overhead_s"] = {
            "value": self.span_cost() * self.events / ops,
            "unit": "s",
        }
        return metrics

    def tree(self) -> List[Dict]:
        out: List[Dict] = []
        for label, node in self.root.children.items():
            start = len(out)
            node.walk(None, out)
            out[start]["op"] = label
        return out


def _rebind(original, replacement) -> None:
    """Replace `original` wherever a shallow_chars module binds it."""
    for name, module in list(sys.modules.items()):
        if name == "shallow_chars" or name.startswith("shallow_chars."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the package's entry points so that they report to the tracer."""
    from shallow_chars import characters, group_model, weyl
    from shallow_chars.chevalley import Pinning
    from shallow_chars.context import Context

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), after))

    def function(module, attr, name, after=None):
        original = getattr(module, attr)
        _rebind(original, tracer.span(name, original, after))

    # chevalley: pinning construction, peeling, reflection signs, hash
    method(Pinning, "__init__", "chevalley.pinning")
    peel = Pinning.gradient_expansion

    def gradient_expansion(self, a, b):
        if tracer.active and (a, b) not in self._expansions:
            tracer.counts["chevalley.expansions"] += 1
        return peel(self, a, b)

    Pinning.gradient_expansion = tracer.span("chevalley.expansion", gradient_expansion)
    method(Pinning, "reflection_sign", "chevalley.reflection_sign",
           lambda c, a, r: c.update({"chevalley.reflection_signs": 1}))
    method(Pinning, "pinning_hash", "chevalley.hash")

    # context: the shallow census and the pair count it implies
    def context_counts(c, args, _):
        n = args[0].n_roots
        c["context.shallow_roots"] += n
        c["context.pairs"] += n * (n - 1) // 2

    method(Context, "__init__", "context.build", context_counts)

    # characters: rows, solve, oracle, validate
    function(characters, "relation_rows", "characters.rows",
             lambda c, a, rows: c.update({"characters.rows": len(rows)}))

    def solve_counts(c, args, space):
        ctx = args[0]
        c["characters.rank"] += ctx.n_roots * ctx.field.m - space.dimension

    function(characters, "solve_space", "characters.solve", solve_counts)
    _rebind(
        characters.enumerate_valid,
        tracer.span_generator(
            "characters.oracle",
            characters.enumerate_valid,
            lambda c, args: c.update({"characters.oracle_vectors": args[0].q ** args[0].n_roots}),
        ),
    )
    function(characters, "validate", "characters.validate",
             lambda c, a, r: c.update({"characters.validate_calls": 1}))

    # group_model: tables (collections by formula) and the sweep
    tables = group_model.cayley_tables

    def cayley_tables(ctx):
        if tracer.active and ctx._cayley is None:
            tracer.counts["group_model.collections"] += (
                ctx.n_roots * (ctx.q - 1) * ctx.coset_count()
            )
        return tables(ctx)

    _rebind(tables, tracer.span("group_model.tables", cayley_tables))
    function(group_model, "verify_homomorphism", "group_model.sweep",
             lambda c, a, r: c.update({"group_model.checked": r.checked}))

    # weyl: condition (*), the scan and its reductions
    function(weyl, "condition_star", "weyl.star")
    function(weyl, "intertwining_scan", "weyl.scan")
    function(weyl, "intertwining_reduction", "weyl.reduction")
    _rebind(weyl._finite_elements, tracer.counted(
        weyl._finite_elements, lambda c, a, r: c.update({"weyl.finite_elements": len(r)})))
    _rebind(weyl._ball, tracer.counted(
        weyl._ball, lambda c, a, r: c.update({"weyl.ball_elements": len(r)})))


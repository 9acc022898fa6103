"""Spans around the package's public functions, installed from outside.

`Tracer.install()` wraps each function listed in `TARGETS` and rebinds
the wrapper under every name that held the original, in every loaded
`absorbing_ideals` module: `is_n_absorbing`, for one, is bound
separately in `absorbing`, `corpus`, `machinery`, `cli` and the package
itself.  Methods are wrapped on every class of the hierarchy that
defines them.  Nothing inside the package is edited.

A span is `[name, start, end, parent index, outermost]`, where
`outermost` is false when a span of the same name is already open (so
`ideal_power` calling `ideal_product` is not counted twice).  Spans stay
in memory and are written out by `dump()` when the process ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

PACKAGE = "absorbing_ideals"

# (module, attribute, span name); "Class.method" names a method
TARGETS = (
    ("rings", "build_ring", "rings.build"),
    ("rings", "quotient_ring", "rings.build"),
    ("rings", "Ring.unit_values", "rings.units"),
    ("ideals", "enumerate_ideals", "ideals.enumerate"),
    ("ideals", "radical", "ideals.radical"),
    ("ideals", "colon", "ideals.colon"),
    ("ideals", "ideal_power", "ideals.power"),
    ("ideals", "ideal_product", "ideals.power"),
    ("ideals", "Ideal.from_generators", "ideals.closure"),
    ("ideals", "Ideal.from_elements", "ideals.closure"),
    ("absorbing", "is_n_absorbing", "absorbing.decide"),
    ("absorbing", "check_radical_power", "absorbing.check"),
    ("absorbing", "check_element_power", "absorbing.check"),
    ("absorbing", "check_quotient_reduction", "absorbing.check"),
    ("absorbing", "check_colons_two_absorbing", "absorbing.check"),
    ("absorbing", "check_colon_chain", "absorbing.check"),
    ("monomials", "induction_multidegrees", "monomials.schedule"),
    ("monomials", "monomials_with_multidegree", "monomials.schedule"),
    ("machinery", "prove_radical_power_zero", "machinery.prove"),
    ("machinery", "verify_trace", "machinery.verify"),
    ("machinery", "eval_monomial", "machinery.eval_monomial"),
    ("machinery", "build_shift_matrix", "machinery.shift_matrix"),
    ("machinery", "is_projectively_zero", "machinery.projective_zero"),
    ("machinery", "find_zero_diagonal", "machinery.walk"),
    ("corpus", "audit_ideal", "corpus.audit"),
    ("cli", "_emit", "cli.render"),
)


class Tracer:
    """Records spans and the counts read from wrapped calls' results."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._decided: set = set()

    # recording -----------------------------------------------------------

    def _wrap(self, name, func, observe=None):
        spans, stack, is_open = self.spans, self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, is_open[name] == 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            is_open[name] += 1
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                is_open[name] -= 1
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, parent)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def _observe_decide(self, args, kwargs, report, parent):
        ideal = args[0] if args else kwargs["ideal"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        key = (ideal, n)
        if key in self._decided:
            self.counts["absorbing.repeats"] += 1
        else:
            self._decided.add(key)
            self.counts["absorbing.multisets"] += report.tuples_scanned
        if parent >= 0 and self.spans[parent][0] == "corpus.audit":
            self.counts["check.audit_level_calls"] += 1
            self.counts["check.audit_level_tuples"] += report.tuples_scanned
        self.counts["check.decide_tuples"] += report.tuples_scanned

    def _observe_enumerate(self, args, kwargs, ideals, parent):
        self.counts["ideals.count"] += len(ideals)

    def _observe_projective(self, args, kwargs, result, parent):
        self.counts["machinery.vectors_checked"] += result.vectors_checked

    def _count_ring_init(self, init):
        counts = self.counts

        def counted(ring, *args, **kwargs):
            counts["rings.builds"] += 1
            return init(ring, *args, **kwargs)

        counted.__wrapped__ = init
        return counted

    # installation --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target; returns the targets missing from the package."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        observers = {
            "is_n_absorbing": self._observe_decide,
            "enumerate_ideals": self._observe_enumerate,
            "is_projectively_zero": self._observe_projective,
        }
        missing = []
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                missing.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                class_name, method = attr.split(".")
                root = getattr(module, class_name, None)
                if root is None or not hasattr(root, method):
                    missing.append(f"{module_name}.{attr}")
                    continue
                for cls in _class_tree(root):
                    if method in vars(cls):
                        self._wrap_method(cls, method, span_name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original, observers.get(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        # every ring kind calls Ring.__init__ once per construction
        ring_class = getattr(sys.modules.get(f"{PACKAGE}.rings"), "Ring", None)
        if ring_class is None:
            missing.append("rings.Ring")
        else:
            ring_class.__init__ = self._count_ring_init(ring_class.__init__)
        return missing

    def _wrap_method(self, cls, method, span_name):
        raw = vars(cls)[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(self._wrap(span_name, raw.__func__)))
        else:
            setattr(cls, method, self._wrap(span_name, raw))

    # results ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "outermost"],
                       "spans": self.spans, "counts": self.counts},
                      handle, separators=(",", ":"))


def aggregate(spans: list) -> dict:
    """Per span name: calls, self seconds, and outermost inclusive seconds.

    Self time is a span's duration minus its direct children's.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, outer in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for index, (name, start, end, parent, outer) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        if outer:
            entry["inclusive_s"] += end - start
    return out


def _class_tree(root) -> list:
    seen, order, todo = set(), [], [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        order.append(cls)
        todo.extend(cls.__subclasses__())
    return order

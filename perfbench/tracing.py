"""Spans and counters at the library's layer boundaries, recorded from
outside the library.

`Tracer.install` replaces each public function listed below with a wrapper
that records a span.  Modules import functions by name (`elusive` calls
its own binding of `order_r_rows`, `structure` its own binding of
`action_prime_order_class_reps`), so the wrapper goes in place of every
binding of the function in every loaded `derangements` module.  Methods
are wrapped on their class.  `Tracer.uninstall` puts the originals back.

A span is `[name, start, end, parent, query]`: the wrapped name, its
`perf_counter` interval, the index of the enclosing span (-1 at top
level) and the workload query it ran for.  Spans stay in memory until the
run writes them out.  A span's self time is its duration minus the part
of it that its child spans cover; `layer_metrics` derives the per-layer
metrics from the spans and the counters.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# (module, function, span name, counter hook(tracer, result))
FUNCTIONS = [
    ("classes", "order_r_rows", "classes.order_r_rows",
     lambda t, rows: t.add("classes.rows_kept", len(rows))),
    ("classes", "partition_rows_by_conjugacy", "classes.partition",
     lambda t, parts: t.add("classes.classes_found", len(parts))),
    ("classes", "exhaustive_class_partition", "classes.partition",
     lambda t, parts: t.add("classes.classes_found", len(parts))),
    ("perm", "derangement_backtrack", "perm.backtrack", None),
    ("zoo", "projective_line_action", "zoo.projective_line", None),
    ("zoo", "subgroup_search", "zoo.subgroup_search", None),
    ("zoo", "coset_action", "zoo.coset_action",
     lambda t, action: t.add("zoo.cosets_built", action.degree)),
    ("zoo", "wreath", "zoo.wreath", None),
    ("elusive", "is_elusive", "elusive.report", None),
    ("elusive", "is_2prime_elusive", "elusive.report", None),
    ("elusive", "is_r_elusive", "elusive.verdict",
     lambda t, v: t.add(f"elusive.route.{v.method}")),
    ("elusive", "action_prime_order_class_reps", "elusive.class_reps", None),
    ("elusive", "prime_order_class_reps", "elusive.class_reps", None),
    ("structure", "normal_structure", "structure.normal_structure",
     lambda t, rep: t.add("structure.closures", len(rep.closures))),
    ("structure", "verify_minimal_normal", "structure.minimal_normal", None),
    ("orbital", "suborbits", "orbital.suborbits", None),
    ("orbital", "orbital_graph", "orbital.orbital_graph",
     lambda t, g: t.add("orbital.arcs_built", g.arc_count())),
    ("orbital", "is_connected", "orbital.is_connected", None),
    ("orbital", "connectivity_by_generation",
     "orbital.connectivity_generation", None),
    ("orbital", "verify_double_cover_scenario", "orbital.double_cover", None),
]

# (module, class, method, span name)
METHODS = [
    ("perm", "StabilizerChain", "__init__", "perm.chain_build"),
    ("perm", "PermGroup", "normal_closure", "perm.normal_closure"),
    ("perm", "PermGroup", "point_stabilizer", "perm.point_stabilizer"),
    ("zoo", "CosetConstruction", "push", "zoo.push"),
    ("zoo", "CosetConstruction", "index_of", "zoo.index_of"),
]

LAYERS = ("classes", "perm", "zoo", "elusive", "structure", "orbital")


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.query = "setup"
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def add(self, counter: str, n: int = 1) -> None:
        self.counts[counter] += n

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.query])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str,
              hook: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def _wrap_batches(self, fn: Callable) -> Callable:
        """One span per batch the element generator yields, counting rows;
        rows pulled straight by order_r_rows also count as scanned."""
        tracer = self

        def traced(group, *args, **kwargs):
            batches = fn(group, *args, **kwargs)
            while True:
                consumer = tracer.spans[tracer._stack[-1]][0] \
                    if tracer._stack else None
                idx = tracer._open("perm.element_batches")
                try:
                    batch = next(batches, None)
                finally:
                    tracer._close(idx)
                if batch is None:
                    return
                tracer.add("perm.rows_enumerated", len(batch))
                if consumer == "classes.order_r_rows":
                    tracer.add("classes.rows_scanned", len(batch))
                yield batch

        return traced

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "derangements" and \
                    not modname.startswith("derangements."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every listed function and method."""
        mods = {m: importlib.import_module("derangements." + m)
                for m in LAYERS}
        for mod, fname, span, hook in FUNCTIONS:
            original = getattr(mods[mod], fname)
            self._replace_everywhere(original,
                                     self._wrap(original, span, hook))
        for mod, cname, mname, span in METHODS:
            cls = getattr(mods[mod], cname)
            original = vars(cls)[mname]
            self._restore.append((cls, mname, original))
            setattr(cls, mname, self._wrap(original, span, None))
        cls = mods["perm"].PermGroup
        original = vars(cls)["element_batches"]
        self._restore.append((cls, "element_batches", original))
        cls.element_batches = self._wrap_batches(original)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, list] = defaultdict(list)
    for name, start, end, parent, _query in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent, _query) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def _outer_total(spans: List[list], name: str) -> float:
    """Time inside spans of `name`, not counting one nested in another."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total += span[2] - span[1]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: List[list], counts: Counter) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, by metric name."""
    calls = Counter(span[0] for span in spans)
    total = {name: _outer_total(spans, name) for name in calls}
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    own = defaultdict(float)
    for span, s in zip(spans, self_times(spans)):
        own[span[0].split(".")[0]] += s
    m = {
        "classes.order_r_rows_calls": calls["classes.order_r_rows"],
        "classes.order_r_rows_s": t("classes.order_r_rows"),
        "classes.rows_scanned": counts["classes.rows_scanned"],
        "classes.rows_kept": counts["classes.rows_kept"],
        "classes.keep_ratio": _ratio(counts["classes.rows_kept"],
                                     counts["classes.rows_scanned"]),
        "classes.scan_rows_per_s": _ratio(counts["classes.rows_scanned"],
                                          t("classes.order_r_rows")),
        "classes.partition_s": t("classes.partition"),
        "classes.classes_found": counts["classes.classes_found"],
        "perm.chain_builds": calls["perm.chain_build"],
        "perm.chain_build_s": t("perm.chain_build"),
        "perm.normal_closure_calls": calls["perm.normal_closure"],
        "perm.normal_closure_s": t("perm.normal_closure"),
        "perm.point_stabilizer_s": t("perm.point_stabilizer"),
        "perm.rows_enumerated": counts["perm.rows_enumerated"],
        "perm.enum_rows_per_s": _ratio(counts["perm.rows_enumerated"],
                                       t("perm.element_batches")),
        "perm.backtrack_s": t("perm.backtrack"),
        "zoo.projective_line_s": t("zoo.projective_line"),
        "zoo.subgroup_search_s": t("zoo.subgroup_search"),
        "zoo.coset_action_s": t("zoo.coset_action"),
        "zoo.cosets_built": counts["zoo.cosets_built"],
        "zoo.wreath_s": t("zoo.wreath"),
        "zoo.push_calls": calls["zoo.push"],
        "zoo.push_s": t("zoo.push"),
        "zoo.index_of_calls": calls["zoo.index_of"],
        "elusive.verdicts": calls["elusive.verdict"],
        "elusive.verdict_s": t("elusive.verdict"),
        "elusive.route.class-coverage": counts["elusive.route.class-coverage"],
        "elusive.route.backtrack": counts["elusive.route.backtrack"],
        "elusive.route.wreath-structural":
            counts["elusive.route.wreath-structural"],
        "structure.normal_structure_s": t("structure.normal_structure"),
        "structure.closures": counts["structure.closures"],
        "structure.minimal_normal_s": t("structure.minimal_normal"),
        "orbital.suborbits_s": t("orbital.suborbits"),
        "orbital.orbital_graph_calls": calls["orbital.orbital_graph"],
        "orbital.orbital_graph_s": t("orbital.orbital_graph"),
        "orbital.arcs_built": counts["orbital.arcs_built"],
        "orbital.arcs_per_s": _ratio(counts["orbital.arcs_built"],
                                     t("orbital.orbital_graph")),
        "orbital.is_connected_s": t("orbital.is_connected"),
        "orbital.connectivity_generation_s":
            t("orbital.connectivity_generation"),
        "orbital.double_cover_s": t("orbital.double_cover"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer]
    return m

"""Per-layer spans from wrappers around seqhorn's public functions.

``Tracer.install`` substitutes a wrapper for every public function in each
seqhorn module's namespace, including the names a module imported from
another (``seqhorn.compose.unify_pairs``, ``seqhorn.sld.rename_fresh``,
everything ``seqhorn.cli`` imports), plus ``Program.__init__``.  One wrapper
per function records a span: name, start, end, parent span and job id.
Spans stay in memory; ``restore`` puts every original back.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# ``seqhorn.witnesses`` only assembles programs with ``programs`` operators and
# the CLI never loads it, so it has no layer of its own.
MODULES = ("cli", "syntax", "terms", "programs", "compose", "semantics", "sld", "decompose")

# Per-term and per-atom helpers that every layer calls in its inner loops.
# They get no span: their time stays in the calling layer's self time.
UNWRAPPED = frozenset({
    "term_vars", "atom_vars", "term_var_order", "atom_var_order", "term_is_ground",
    "atom_is_ground", "subst_term", "subst_atom", "term_key", "atom_key",
    "term_to_text", "compound", "atom",
})


def _info(label: str, args, result):
    """The per-call number a layer metric needs, or None."""
    if label in ("terms.unify", "terms.unify_pairs"):
        return result is None
    if label in ("syntax.parse_program", "syntax.parse_query"):
        return len(args[0])
    if label == "programs.gnd":
        return len(result)
    if label == "decompose.search_reduction":
        return result.status == "budget-exceeded"
    return None


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.spans: list = []  # (label id, start, end, parent index, job, info)
        self.job = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _span(self, label: str, fn, prepare=None):
        label_id = len(self.labels)
        self.labels.append(label)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            extra = None
            try:
                if prepare is not None:
                    args, kwargs, extra = prepare(args, kwargs)
                result = fn(*args, **kwargs)
                if prepare is None:
                    extra = _info(label, args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label_id, start, end, parent, self.job, extra)

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = label
        return wrapper

    def install(self) -> None:
        pkg = sys.modules["seqhorn"]
        wrappers: dict[int, object] = {}
        for mod in [pkg] + [sys.modules[f"seqhorn.{m}"] for m in MODULES]:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("seqhorn.")
                        or obj.__name__ in UNWRAPPED):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._span(f"{short}.{obj.__name__}", obj)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

        program = sys.modules["seqhorn.programs"].Program

        def materialize(args, kwargs):
            # Program(rules) consumes its iterable once; count it on the way in.
            self_, *rest = args
            rules = list(rest[0] if rest else kwargs.get("rules", ()))
            return (self_, rules), {}, len(rules)

        self._undo.append((program, "__init__", program.__init__))
        program.__init__ = self._span("programs.Program", program.__init__, prepare=materialize)

    def restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def write(self, path) -> None:
        """Write every span as a gzip-compressed TSV row."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\n")
            for i, (label, start, end, parent, job, _) in enumerate(self.spans):
                fh.write(f"{i}\t{self.labels[label]}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def wrapped_attributes() -> list[str]:
    """Names of seqhorn attributes that are still tracing wrappers."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "seqhorn" or name.startswith("seqhorn."):
            for attr, obj in vars(mod).items():
                if hasattr(obj, "perfbench_span"):
                    out.append(f"{name}.{attr}")
    program = sys.modules.get("seqhorn.programs")
    if program is not None and hasattr(program.Program.__init__, "perfbench_span"):
        out.append("seqhorn.programs.Program.__init__")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, ratios and self times (span duration minus the time
    its child spans cover) from one traced pass."""
    labels, spans = tracer.labels, tracer.spans
    child_time = [0.0] * len(spans)
    for label, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    info_sum: dict[str, int] = defaultdict(int)
    in_sld: dict[str, int] = defaultdict(int)
    in_compose: dict[str, int] = defaultdict(int)
    sld_spans = {"sld.sld", "sld.translated_sld"}
    for i, (label_id, start, end, parent, _, info) in enumerate(spans):
        label = labels[label_id]
        calls[label] += 1
        self_s[label] += end - start - child_time[i]
        if info is not None:
            info_sum[label] += info
        parent_label = labels[spans[parent][0]] if parent >= 0 else ""
        if parent_label in sld_spans:
            in_sld[label] += 1
            if label == "terms.unify" and not info:
                in_sld["unify.ok"] += 1
        if parent_label == "compose.compose" and label == "terms.unify_pairs":
            in_compose["assignments"] += 1
            in_compose["emitted"] += not info

    def fails(label):
        return _ratio(info_sum[label], calls[label])

    # Each group names the end-to-end metrics it should move, on which workload.
    return {
        # resolve: wall_s and job_p90_ms; no change expected on search.
        "terms.unify.calls": calls["terms.unify"],
        "terms.unify.fail_ratio": fails("terms.unify"),
        "terms.unify.self_s": self_s["terms.unify"],
        "sld.renames_per_step": _ratio(in_sld["programs.rename_fresh"], in_sld["unify.ok"]),
        "sld.unify_hit_ratio": _ratio(in_sld["unify.ok"], in_sld["terms.unify"]),
        "sld.sld.self_s": self_s["sld.sld"],
        "sld.translated_sld.self_s": self_s["sld.translated_sld"],
        # compose: job_p90_ms and wall_s; no change expected on resolve.
        "terms.unify_pairs.calls": calls["terms.unify_pairs"],
        "terms.unify_pairs.fail_ratio": fails("terms.unify_pairs"),
        "compose.assignments": in_compose["assignments"],
        "compose.hit_ratio": _ratio(in_compose["emitted"], in_compose["assignments"]),
        "compose.self_s": self_s["compose.compose"] + self_s["compose.compose_ground"],
        # compose: job_p90_ms and failed_ratio.
        "programs.canonicalize.calls": calls["programs.canonicalize"],
        "programs.canonicalize.self_s": self_s["programs.canonicalize"],
        # ground: wall_s and job_mem_mb.
        "programs.Program.rules_in": info_sum["programs.Program"],
        "programs.Program.self_s": self_s["programs.Program"],
        "programs.gnd.rules_out": info_sum["programs.gnd"],
        "programs.gnd.self_s": self_s["programs.gnd"],
        # ground: wall_s; no change expected on compose or resolve.
        "semantics.tp.calls": calls["semantics.tp"],
        "semantics.tp.self_s": self_s["semantics.tp"],
        "semantics.least_model.self_s": self_s["semantics.least_model"],
        # search: failed_ratio and job_p90_ms; verify also compose's job_p50_ms.
        "decompose.search.calls": calls["decompose.search_reduction"],
        "decompose.search.self_s": self_s["decompose.search_reduction"],
        "decompose.search.undecided": info_sum["decompose.search_reduction"],
        "decompose.verify.calls": calls["decompose.verify"],
        "decompose.verify.self_s": self_s["decompose.verify"],
        # ground (large files) and compose (many small jobs): job_p50_ms.
        "syntax.parse.bytes": info_sum["syntax.parse_program"] + info_sum["syntax.parse_query"],
        "syntax.parse.self_s": self_s["syntax.parse_program"] + self_s["syntax.parse_query"],
        "syntax.print.self_s": sum(v for k, v in self_s.items()
                                   if k.startswith("syntax.") and k.endswith("_to_text")),
        "cli.main.self_s": self_s["cli.main"],
    }

"""Span tracer installed around normlab's public functions from outside.

The tracer rebinds every name under which a wrapped function is bound in a
loaded ``normlab`` module, so calls made through ``from .x import f`` bindings
and through module attributes resolved at call time (the deferred imports in
``sphere_opt``, ``vector_norms`` and ``matrix_norms``) are all seen.  No file
under ``src/`` changes.

Two kinds of wrapper exist:

* span functions record one span per call (name, start, end, parent) in an
  in-memory list that is written out when the benchmark ends;
* kernel functions (``vnorm_eval``, ``mnorm_eval``, ``hermitian_top_eig``)
  run millions of times on some workloads, so they add to per-kernel counters
  on their enclosing span instead of recording a span each.

Self time is a call's duration minus the part covered by wrapped calls made
inside it, whether those are spans or kernels.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

LAYERS = (
    "core",
    "vector_norms",
    "matrix_norms",
    "sphere_opt",
    "gind",
    "extraction",
    "verification",
    "formats",
    "cli",
)

KERNELS = (
    ("core", "hermitian_top_eig"),
    ("vector_norms", "vnorm_eval"),
    ("matrix_norms", "mnorm_eval"),
)

SPANS = (
    ("sphere_opt", "maximize_on_sphere"),
    ("sphere_opt", "maximize_on_matrix_sphere"),
    ("gind", "gind_eval"),
    ("extraction", "eval_role1"),
    ("extraction", "minimality_probe"),
    ("verification", "paper_demo_suite"),
    ("verification", "verify_theorem23"),
    ("formats", "suite_report_to_doc"),
    ("formats", "dumps_report"),
    ("cli", "run_command"),
)


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    self_s: float = 0.0
    # kernel name -> [calls, self seconds] for kernel calls made inside
    kernels: dict = field(default_factory=dict)
    # set by the branch classifiers, e.g. {"branch": "vertex", "evals": 53}
    info: dict = field(default_factory=dict)


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


class Tracer:
    """Collects spans and per-function totals for one traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self._stack: list[tuple[_Frame, int]] = []  # (frame, span index or -1)
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped function in every loaded normlab module."""
        import importlib

        for mod_name, fn_name in KERNELS + SPANS:
            module = importlib.import_module(f"normlab.{mod_name}")
            original = getattr(module, fn_name)
            qual = f"{mod_name}.{fn_name}"
            if (mod_name, fn_name) in KERNELS:
                wrapper = self._kernel_wrapper(qual, original)
            else:
                wrapper = self._span_wrapper(qual, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name == "normlab" or loaded_name.startswith("normlab.")
                ):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._installed.append((loaded, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- wrappers -------------------------------------------------------------

    def _finish(self, name: str, frame: _Frame, start: float, end: float) -> float:
        """Pop bookkeeping shared by both wrappers; returns the self time."""
        duration = end - start
        self_s = duration - frame.child_s
        if self._stack:
            self._stack[-1][0].child_s += duration
        total = self.totals.get(name)
        if total is None:
            self.totals[name] = [1, self_s]
        else:
            total[0] += 1
            total[1] += self_s
        return self_s

    def _kernel_wrapper(self, name: str, original):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        counts = self.counts
        iters_key = f"{name}.iters"
        is_eig = name == "core.hermitian_top_eig"

        def kernel(*args, **kwargs):
            frame = _Frame()
            stack.append((frame, -1))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s = self._finish(name, frame, start, end)
                for _, index in reversed(stack):
                    if index >= 0:
                        bucket = spans[index].kernels.setdefault(name, [0, 0.0])
                        bucket[0] += 1
                        bucket[1] += self_s
                        break
            if is_eig:
                counts[iters_key] = counts.get(iters_key, 0) + result.iterations
            return result

        kernel.__wrapped__ = original
        return kernel

    def _span_wrapper(self, name: str, original):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        classify = _CLASSIFIERS.get(name)

        def traced(*args, **kwargs):
            parent = next((index for _, index in reversed(stack) if index >= 0), -1)
            span = Span(name=name, parent=parent, start=0.0)
            spans.append(span)
            index = len(spans) - 1
            frame = _Frame()
            stack.append((frame, index))
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                span.self_s = self._finish(name, frame, span.start, span.end)
            if classify is not None:
                span.info = classify(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- results --------------------------------------------------------------

    def deterministic_counts(self) -> dict[str, int]:
        """Counts that repeat exactly for a given seed and commit."""
        out: dict[str, int] = {}
        for name, (calls, _) in sorted(self.totals.items()):
            out[f"{name}.calls"] = calls
        out.update(self.counts)
        for span in self.spans:
            for key, value in span.info.items():
                if key == "branch":
                    key = f"{span.name}.{value}"
                    value = 1
                else:
                    key = f"{span.name}.{key}"
                out[key] = out.get(key, 0) + int(value)
        role1 = "extraction.eval_role1"
        hits = out.get(f"{role1}.calls", 0) - self._role1_misses()
        out[f"{role1}.hits"] = hits
        return dict(sorted(out.items()))

    def _role1_misses(self) -> int:
        """Role-1 calls that needed a matrix-sphere maximization (cache misses)."""
        spans = self.spans
        missed = set()
        for span in spans:
            if span.name == "sphere_opt.maximize_on_matrix_sphere" and span.parent >= 0:
                if spans[span.parent].name == "extraction.eval_role1":
                    missed.add(span.parent)
        return len(missed)

    def self_times(self) -> dict[str, float]:
        """Self seconds per wrapped function and per layer."""
        out: dict[str, float] = {}
        for name, (_, self_s) in self.totals.items():
            out[name] = self_s
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def write_spans(self, path: str, header: dict) -> None:
        """The header, then one JSON object per span: id, parent, name, start,
        end, self seconds, kernel counters and branch information."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for index, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": span.parent,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "self_s": span.self_s,
                            "kernels": span.kernels,
                            **span.info,
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def _vector_branch(args, kwargs, result) -> dict:
    branch = {
        "exact_vertex": "vertex",
        "exact_closed_form": "closed_form",
        "lower_bound": "ascent",
    }[result.exactness]
    return {"branch": branch, "evals": result.evaluations}


def _matrix_branch(args, kwargs, result) -> dict:
    from normlab.matrix_norms import EntrywiseMax
    from normlab.vector_norms import split_scale

    if result.exactness == "exact_vertex":
        branch = "vertex"
    else:
        domain = args[1] if len(args) > 1 else kwargs["domain_norm"]
        dispatch = kwargs.get("use_dispatch", True) and kwargs.get("objective_convex", True)
        is_phase = dispatch and isinstance(split_scale(domain)[1], EntrywiseMax)
        branch = "phase" if is_phase else "ascent"
    return {"branch": branch, "evals": result.evaluations}


_CLASSIFIERS = {
    "sphere_opt.maximize_on_sphere": _vector_branch,
    "sphere_opt.maximize_on_matrix_sphere": _matrix_branch,
}

"""Span recorder for the traced run.

The program is not changed: the recorder replaces selected public functions
of ``aspectarg`` modules with wrappers, both where each function is defined
and wherever another module bound it by ``from .x import y``.  ``uninstall``
puts the originals back, so untraced passes run the unmodified program.

Every wrapped call adds its duration to the child time of the span open
around it, so a span's self time is its duration minus the time of the
wrapped calls inside it.  Only the coarse calls (``SPAN`` kinds) are kept as
span records; the hot ones (``lookup``, ``parse``, ...) are counted, and
timed where a metric needs their time.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# kinds
SPAN = "span"  # timed, kept as a span record
TIMED = "timed"  # timed and counted, no span record
COUNT = "count"  # counted only
LOOKUP = "lookup"  # counted, with its distinct (theme set, statement) keys

#: (module, function, metric group, kind).  A group takes the time of its
#: outermost call only, so ``load_path`` -> ``loads`` is one load.
WRAPPED = (
    ("cli", "run", "cli", SPAN),
    ("modelfile", "load_path", "modelfile.load", SPAN),
    ("modelfile", "loads", "modelfile.load", SPAN),
    ("modelfile", "to_dict", "modelfile.dump", SPAN),
    ("modelfile", "dumps", "modelfile.dump", SPAN),
    ("formulas", "parse", "formulas.parse", COUNT),
    ("formulas", "render_element", "formulas.render", TIMED),
    ("model", "lookup", "model.lookup", LOOKUP),
    ("model", "effective_aspect", "model.effective_aspect", TIMED),
    ("constraints", "check_graphic", "constraints.graphic", SPAN),
    ("constraints", "check_core", "constraints.core", SPAN),
    ("constraints", "check_exact_region", "constraints.E", SPAN),
    ("constraints", "check_das", "constraints.das", SPAN),
    ("constraints", "check_nwci", "constraints.nwci", SPAN),
    ("constraints", "check_fresh_aspects", "constraints.F", SPAN),
    ("statements_sets", "statements_sets", "statements_sets.statements_sets", SPAN),
    ("statements_sets", "contains_redundancy", "statements_sets.contains_redundancy", COUNT),
    ("semantics", "extensions", "semantics.extensions", SPAN),
    ("semantics", "logico_rhetorical_conclusion", "semantics.conclusion", COUNT),
    ("synthesis", "synthesize_core_witness", "synthesis.synthesize", SPAN),
    ("report", "violations_block", "report.render", SPAN),
    ("report", "human_violations", "report.render", SPAN),
    ("report", "to_json", "report.render", SPAN),
)

#: Bindings that get their own group instead of the defining module's.
REBOUND = {("synthesis", "check_core"): "synthesis.verify"}

#: Modules searched for definitions and ``from .x import y`` bindings.
MODULES = (
    "formulas", "model", "statements_sets", "constraints", "semantics", "synthesis",
    "modelfile", "report", "cli",
)

VIOLATION_GROUPS = {
    "constraints.graphic": "graphic",
    "constraints.core": "core",
    "constraints.E": "E",
    "constraints.das": "das",
    "constraints.nwci": "nwci",
    "constraints.F": "F",
}


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.violations: Counter = Counter()
        self.candidates = 0
        self.props = 0
        self.lookup_keys = 0
        self.cli_self = 0.0
        self.request = -1
        self._keys: set = set()
        self._depth: Counter = Counter()
        # open frames: [span id, child seconds]; the base frame catches calls
        # made outside any request
        self._stack: list[list] = [[None, 0.0]]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- requests -----------------------------------------------------------

    def on_request(self, index: int | None) -> None:
        """Mark the start of request ``index``, or with ``None`` its end."""
        if index is None:
            self.lookup_keys += len(self._keys)
        else:
            self.request = index
        self._keys.clear()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, group: str, keep_span: bool, after=None):
        stack, depth, seconds, calls = self._stack, self._depth, self.seconds, self.calls

        def wrapper(*args, **kwargs):
            outermost = depth[group] == 0
            if outermost:
                calls[group] += 1
            depth[group] += 1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[group] -= 1
                elapsed = end - start
                stack[-1][1] += elapsed
                if outermost:
                    seconds[group] += elapsed
                if keep_span:
                    self.spans.append((frame[0], parent, self.request, group, start, end))
                if group == "cli":
                    self.cli_self += elapsed - frame[1]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, fn, group: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lookup(self, fn, group: str):
        calls, keys = self.calls, self._keys

        def wrapper(interp, model, themes, s):
            calls[group] += 1
            keys.add((frozenset(themes), s))
            return fn(interp, model, themes, s)

        return wrapper

    def _after(self, group: str):
        if group in VIOLATION_GROUPS:
            name = VIOLATION_GROUPS[group]

            def count_violations(args, result):
                if isinstance(result, dict):
                    self.violations[name] += sum(len(vs) for vs in result.values())
                else:
                    self.violations[name] += len(result)

            return count_violations
        if group == "semantics.extensions":

            def count_candidates(args, result):
                sub, semantics = args
                if semantics != "grounded":
                    self.candidates += 1 << len(sub.model.statements)

            return count_candidates
        if group == "synthesis.synthesize":

            def count_props(args, result):
                self.props += result.algebra.k

            return count_props
        return None

    def _wrap(self, fn, group: str, kind: str):
        if kind == COUNT:
            return self._counted(fn, group)
        if kind == LOOKUP:
            return self._lookup(fn, group)
        return self._timed(fn, group, kind == SPAN, self._after(group))

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"aspectarg.{name}") for name in MODULES}
        for mod_name, fn_name, group, kind in WRAPPED:
            original = getattr(modules[mod_name], fn_name)
            for where, module in modules.items():
                if getattr(module, fn_name, None) is original:
                    bound_group = REBOUND.get((where, fn_name), group)
                    self._saved.append((module, fn_name, original))
                    setattr(module, fn_name, self._wrap(original, bound_group, kind))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """The exact counts of the pass; they must repeat for the same inputs."""
        out = {
            "modelfile.load_calls": self.calls["modelfile.load"],
            "formulas.parse_calls": self.calls["formulas.parse"],
            "formulas.render_calls": self.calls["formulas.render"],
            "model.lookup_calls": self.calls["model.lookup"],
            "model.lookup_unique_keys": self.lookup_keys,
            "model.effective_aspect_calls": self.calls["model.effective_aspect"],
            "statements_sets.contains_redundancy_calls":
                self.calls["statements_sets.contains_redundancy"],
            "semantics.extensions_calls": self.calls["semantics.extensions"],
            "semantics.extension_candidates": self.candidates,
            "semantics.conclusion_calls": self.calls["semantics.conclusion"],
            "synthesis.props": self.props,
        }
        for name in VIOLATION_GROUPS.values():
            out[f"constraints.violations.{name}"] = self.violations[name]
        return out

    def times(self) -> dict[str, float]:
        out = {
            f"{group}_s": self.seconds[group]
            for group in (
                "modelfile.load", "modelfile.dump", "formulas.render",
                "model.effective_aspect", "constraints.graphic", "constraints.core",
                "constraints.E", "constraints.das", "constraints.nwci", "constraints.F",
                "statements_sets.statements_sets", "semantics.extensions",
                "synthesis.synthesize", "synthesis.verify", "report.render",
            )
        }
        out["cli.self_s"] = self.cli_self
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "request": request,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )

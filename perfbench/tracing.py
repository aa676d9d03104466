"""Spans around the package's public functions, for the traced run.

`Tracer.install` replaces each listed function with a wrapper in every
seqlatin module that holds a reference to it (the modules import each
other's functions by name), and `uninstall` puts the originals back.
Both are a few hundred attribute stores, cheap enough to do per request.
A span records its name, the request it served, its parent span, its
start and end, the time its child spans covered, whether it returned,
and for a few functions a detail of the call.  Spans stay in memory
until the run ends.

Layer self time is a span's duration minus the part its child spans
cover; wrapping adds one frame and two clock reads per call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> public functions wrapped; "Class.method" wraps a method
TRACED = {
    "numtheory": ("classify_order",),
    "pipelines": (
        "sequence_order",
        "sequence_cyclic",
        "sequence_non3",
        "sequence_theorem3",
        "SequencingCertificate.to_json",
    ),
    "template": ("checklist", "theorem4_assign", "assemble"),
    "harmonious": ("bghj_base", "hash_for", "transform_hash"),
    "graceful": ("walecki_graceful", "graceful_to_r_terrace"),
    "rotational": ("search_r_terrace", "fgm_extend", "fgm_extend_many", "make_r_terrace"),
    "latin": (
        "is_directed_terrace",
        "walecki_terrace",
        "terrace_to_complete_square",
        "completeness_report",
    ),
    "oracle": ("exhaustive_sequencings",),
    "groups": ("group_from_descriptor",),
    "cli": ("main",),
}

NAME, REQUEST, PARENT, START, END, CHILD, OK, DETAIL = range(8)


def _grid_path(args, kwargs, out):
    group = args[0] if args else kwargs["group"]
    factors = getattr(getattr(group, "base", group), "factors", ())
    return ("cyclic" if len(factors) == 1 else "product", out.n * out.n)


def _report_cells(args, kwargs, out):
    return (args[0] if args else kwargs["square"]).n ** 2


def _exhaustive_detail(args, kwargs, out):
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    return (jobs, out.count)


DETAIL_OF = {
    "latin.terrace_to_complete_square": _grid_path,
    "latin.completeness_report": _report_cells,
    "oracle.exhaustive_sequencings": _exhaustive_detail,
}


class Tracer:
    def __init__(self, sl):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        # (namespace, attribute, original, wrapper) for every reference to a traced function
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sys.modules.items() if n.startswith("seqlatin.")]
        for mod_name, names in TRACED.items():
            mod = getattr(sl, mod_name)
            for attr in names:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = getattr(owner, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", fn)
                for target in [owner] if owner_name else modules:
                    for key, value in vars(target).items():
                        if value is fn:
                            self._patches.append((target, key, fn, wrapped))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        detail = DETAIL_OF.get(name)
        clock = time.perf_counter
        by_command = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{(args[0] if args else kwargs['argv'])[0]}" if by_command else name
            parent = stack[-1] if stack else -1
            span = [label, self.request, parent, clock(), 0.0, 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                span[OK] = True
                return out
            finally:
                span[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += span[END] - span[START]
                if span[OK] and detail is not None:
                    span[DETAIL] = detail(args, kwargs, out)

        return traced

    def install(self):
        for target, key, _, wrapped in self._patches:
            setattr(target, key, wrapped)

    def uninstall(self):
        for target, key, fn, _ in self._patches:
            setattr(target, key, fn)

    def begin(self, request: int):
        """Mark the request the next spans serve; drop spans a deadline left open."""
        self.request = request
        self.stack.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _self_s(span) -> float:
    return span[END] - span[START] - span[CHILD]


def per_layer(spans, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metrics from one traced pass, as {name: (value, unit)}."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s[NAME]] += 1
        self_s[s[NAME]] += _self_s(s)

    def ms(name):
        return (f"{name}.self_ms", 1000 * self_s[name], "ms")

    def count(name):
        return (f"{name}.calls", calls[name], "count")

    def ratio(num, den):
        return num / den if den else 0.0

    out = [
        count("latin.is_directed_terrace"),
        ms("latin.is_directed_terrace"),
        ms("latin.walecki_terrace"),
        count("pipelines.sequence_cyclic"),
        ms("pipelines.sequence_cyclic"),
        ms("template.checklist"),
        ms("template.theorem4_assign"),
        ms("template.assemble"),
        ms("harmonious.bghj_base"),
        ms("harmonious.hash_for"),
        ms("harmonious.transform_hash"),
        ms("graceful.walecki_graceful"),
        ms("graceful.graceful_to_r_terrace"),
        ms("pipelines.to_json"),
        count("numtheory.classify_order"),
        ms("numtheory.classify_order"),
        ms("latin.terrace_to_complete_square"),
        ms("latin.completeness_report"),
        ms("cli.main.verify"),
        ms("groups.group_from_descriptor"),
        count("rotational.search_r_terrace"),
        ms("rotational.search_r_terrace"),
        ms("rotational.fgm_extend"),
        ms("rotational.fgm_extend_many"),
        ms("rotational.make_r_terrace"),
        ms("pipelines.sequence_non3"),
        ms("pipelines.sequence_theorem3"),
        count("oracle.exhaustive_sequencings"),
        ms("oracle.exhaustive_sequencings"),
    ]

    # certificates of the cyclic pipeline per checklist run inside it
    checklists = 0
    for s in spans:
        if s[NAME] == "template.checklist":
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != "pipelines.sequence_cyclic":
                p = spans[p][PARENT]
            checklists += p >= 0
    cyclic_ok = sum(1 for s in spans if s[NAME] == "pipelines.sequence_cyclic" and s[OK])
    out.append(("pipelines.cyclic_yield", ratio(cyclic_ok, checklists), "ratio"))

    searches = [s for s in spans if s[NAME] == "rotational.search_r_terrace"]
    hits = sum(1 for s in searches if s[OK])
    out.append(("rotational.search_yield", ratio(hits, len(searches)), "ratio"))

    grid_s = {"cyclic": 0.0, "product": 0.0}
    grid_cells = {"cyclic": 0, "product": 0}
    report_s, report_cells = 0.0, 0
    oracle_s = {1: 0.0, 2: 0.0}
    found, oracle_total = 0, 0.0
    for s in spans:
        if s[DETAIL] is None:
            continue
        if s[NAME] == "latin.terrace_to_complete_square":
            path, cells = s[DETAIL]
            grid_s[path] += _self_s(s)
            grid_cells[path] += cells
        elif s[NAME] == "latin.completeness_report":
            report_s += _self_s(s)
            report_cells += s[DETAIL]
        elif s[NAME] == "oracle.exhaustive_sequencings":
            jobs, n = s[DETAIL]
            oracle_s[min(jobs, 2)] += s[END] - s[START]
            oracle_total += s[END] - s[START]
            found += n
    for path in ("cyclic", "product"):
        out.append(
            (
                f"latin.terrace_to_complete_square.ns_per_cell.{path}",
                1e9 * ratio(grid_s[path], grid_cells[path]),
                "ns",
            )
        )
    out.append(("latin.completeness_report.ns_per_cell", 1e9 * ratio(report_s, report_cells), "ns"))
    out.append(("oracle.exhaustive_sequencings.terraces_per_s", ratio(found, oracle_total), "1/s"))
    out.append(("oracle.exhaustive_sequencings.jobs2_speedup", ratio(oracle_s[1], oracle_s[2]), "ratio"))
    out.append(("trace_overhead_pct", 100 * (traced_s / untraced_s - 1), "%"))
    return {name: (value, unit) for name, value, unit in out}

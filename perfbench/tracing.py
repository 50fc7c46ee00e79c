"""Span tracing of saddlekit's layers from outside the package.

The tracer replaces each public function of a layer module, and a few
named methods, with a wrapper that records a span: name, start, end, the
enclosing span and the job it ran in.  Several modules import functions by
name (``chew`` imports ``diamond_of``, ``sv`` and ``mc`` import
``enumerate_connections``, ...), so a function is replaced in every
saddlekit namespace that binds it, not only where it is defined.  Nothing
under ``src/`` changes: ``installed()`` restores every original on exit.

Spans stay in memory; ``rows()`` gives them in a compact form for writing
out when the run ends.  A span's self time is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "cli",
    "surface",
    "exactplane",
    "geodesic",
    "homology",
    "delaunay",
    "chew",
    "sv",
    "mc",
    "kernels",
    "oracle",
)

# Leaf helpers called per coordinate or per vector: a span around each
# call would cost more than the call and distort every share.
_SKIP = {
    "exactplane": {"to_fraction", "format_rational", "sqrt_bounds", "is_perfect_square", "euler_phi"},
}

# Methods traced as "<layer>.<name>", keyed by (module, class, method).
_METHODS = (
    ("surface", "TranslationSurface", "validate", "validate"),
    ("surface", "TranslationSurface", "from_json", "from_json"),
    ("surface", "TranslationSurface", "from_json_dict", "from_json_dict"),
    ("homology", "EdgeHomology", "__init__", "init"),
    ("homology", "EdgeHomology", "class_of_slots", "class_of_slots"),
)


def _result_count(layer: str, name: str):
    """Extract the count a layer's metric needs from a call's result."""
    table = {
        ("geodesic", "enumerate_connections"): lambda r: len(r.connections),
        ("delaunay", "delaunay_l1"): lambda r: r.flip_count,
        ("chew", "chew_path"): lambda r: (r.edge_count(), r.sqrt10_certified),
        ("chew", "planar_chew"): lambda r: (r.edge_count(), r.sqrt10_certified),
        ("sv", "transform_report"): lambda r: r.ambiguous,
        ("mc", "sample_stratum_local"): lambda r: (len(r), r.attempts),
        ("oracle", "torus_holonomy"): len,
        ("oracle", "slit_torus_holonomy"): lambda r: len(r.vectors),
    }
    return table.get((layer, name))


class Span:
    __slots__ = ("name", "parent", "job", "start", "end", "child", "err", "n")

    def __init__(self, name, parent, job, start):
        self.name = name
        self.parent = parent
        self.job = job
        self.start = start
        self.end = start
        self.child = 0.0
        self.err = None
        self.n = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


class Tracer:
    def __init__(self):
        self.spans = []
        self.archive = []
        self._stack = []
        self._job = None

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, count=None, arg_count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else None, tracer._job, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.err = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                tracer.spans.append(span)
            if count is not None:
                span.n = count(result)
            elif arg_count is not None:
                span.n = arg_count(args)
            return result

        return traced

    @contextlib.contextmanager
    def job(self, name: str):
        """Root span of one benchmark job; layer spans nest under it."""
        self._job = name
        span = Span("job." + name, None, name, time.perf_counter())
        self._stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
            self._job = None

    def take(self):
        """Spans recorded since the last call; they are also kept for rows()."""
        spans, self.spans = self.spans, []
        self.archive.extend(spans)
        return spans

    def rows(self):
        """All archived spans as [id, parent_id, name, job, start, end, err]."""
        ids = {id(s): i for i, s in enumerate(self.archive)}
        return [
            [ids[id(s)], ids.get(id(s.parent)), s.name, s.job, s.start, s.end, s.err]
            for s in self.archive
        ]

    # -- installing and restoring wrappers --------------------------------

    @contextlib.contextmanager
    def installed(self):
        mods = {layer: importlib.import_module("saddlekit." + layer) for layer in LAYERS}
        namespaces = [
            vars(m) for name, m in sorted(sys.modules.items()) if name.startswith("saddlekit.")
        ]
        undo = []
        try:
            for layer, mod in mods.items():
                for fname, fn in sorted(vars(mod).items()):
                    if (
                        fname.startswith("_")
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or fname in _SKIP.get(layer, ())
                    ):
                        continue
                    wrapper = self._wrap(f"{layer}.{fname}", fn, _result_count(layer, fname))
                    for ns in namespaces:
                        for key, val in list(ns.items()):
                            if val is fn:
                                undo.append((ns, key, val))
                                ns[key] = wrapper
            for layer, cls_name, meth, label in _METHODS:
                self._patch_method(undo, getattr(mods[layer], cls_name), meth, f"{layer}.{label}")
            for cls in vars(mods["sv"]).values():
                if inspect.isclass(cls) and "evaluate_batch" in vars(cls):
                    self._patch_method(
                        undo, cls, "evaluate_batch", "sv.evaluate_batch",
                        arg_count=lambda args: int(args[1].size),
                    )
            yield self
        finally:
            for target, key, val in reversed(undo):
                if isinstance(target, dict):
                    target[key] = val
                else:
                    setattr(target, key, val)

    def _patch_method(self, undo, cls, meth, label, arg_count=None):
        raw = vars(cls)[meth]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(label, raw.__func__))
        else:
            wrapped = self._wrap(label, raw, arg_count=arg_count)
        undo.append((cls, meth, raw))
        setattr(cls, meth, wrapped)


# --- per-layer metrics ---------------------------------------------------------


def _named(spans, names):
    return [s for s in spans if s.name in names]


def _outer_s(spans, names):
    """Inclusive seconds of the spans named, not counting a span nested in
    another one of the same set (recursion is counted once)."""
    return sum(
        s.duration
        for s in spans
        if s.name in names and not any(a.name in names for a in s.ancestors())
    )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, cli_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""
    m = {}

    def timed(key, *names, calls=True, self_s=False):
        names = set(names)
        if calls:
            m[key + ".calls"] = len(_named(spans, names))
        m[key + ".s"] = _outer_s(spans, names)
        if self_s:
            m[key + ".self_s"] = sum(s.self_s for s in _named(spans, names))

    timed("geodesic.enumerate", "geodesic.enumerate_connections", self_s=True)
    enum = _named(spans, {"geodesic.enumerate_connections"})
    m["geodesic.connections"] = sum(s.n or 0 for s in enum)
    m["geodesic.connections_per_s"] = _ratio(m["geodesic.connections"], m["geodesic.enumerate.s"])
    timed("geodesic.second_shortest", "geodesic.second_shortest_nonhomologous", calls=False)
    timed("geodesic.detect_cylinder", "geodesic.detect_cylinder", calls=False)
    m["geodesic.budget_exhausted"] = sum(1 for s in enum if s.err == "ResourceLimitError")

    timed("homology.init", "homology.init")
    timed("homology.class_of_slots", "homology.class_of_slots")

    timed("surface.validate", "surface.validate")
    timed("surface.from_json", "surface.from_json", calls=False)

    timed("exactplane.compare_sqrt_sum", "exactplane.compare_sqrt_sum")
    timed("exactplane.primitive_points_in_disc", "exactplane.primitive_points_in_disc", calls=False)

    timed("delaunay.delaunay_l1", "delaunay.delaunay_l1", self_s=True)
    m["delaunay.flips"] = sum(s.n or 0 for s in _named(spans, {"delaunay.delaunay_l1"}))
    m["delaunay.flips_per_s"] = _ratio(m["delaunay.flips"], m["delaunay.delaunay_l1.s"])
    timed("delaunay.diamond_of", "delaunay.diamond_of")
    timed("delaunay.is_locally_delaunay", "delaunay.is_locally_delaunay")

    walk_names = {"chew.chew_path", "chew.planar_chew"}
    walks = [s for s in _named(spans, walk_names) if not any(a.name in walk_names for a in s.ancestors())]
    done = [s.n for s in walks if s.err is None]
    m["chew.walks"] = len(walks)
    m["chew.walk.s"] = sum(s.duration for s in walks)
    m["chew.paths_per_s"] = _ratio(len(walks), m["chew.walk.s"])
    m["chew.path_edges"] = sum(edges for edges, _ in done)
    m["chew.certified_frac"] = _ratio(sum(1 for _, cert in done if cert), len(done))
    for kind in ("ChewCaseError", "InputError", "_Blocked"):
        m["chew.failed." + kind] = sum(1 for s in walks if s.err == kind)
    m["chew.failed.other"] = sum(
        1 for s in walks if s.err not in (None, "ChewCaseError", "InputError", "_Blocked")
    )
    timed("chew.prepare_planar", "chew.prepare_planar", calls=False)

    timed("sv.transform", "sv.transform_report", "sv.transform", calls=False)
    m["sv.ambiguous"] = sum(s.n or 0 for s in _named(spans, {"sv.transform_report"}))
    timed("sv.AR", "sv.rotational_average_AR", calls=False)
    m["sv.AR.evals"] = sum(
        s.n
        for s in _named(spans, {"sv.evaluate_batch"})
        if any(a.name == "sv.rotational_average_AR" for a in s.ancestors())
    )
    m["sv.AR.evals_per_s"] = _ratio(m["sv.AR.evals"], m["sv.AR.s"])
    timed("sv.evaluate_batch", "sv.evaluate_batch", calls=False)
    timed("sv.classify", "sv.classify", calls=False)

    timed("mc.sample_torus_haar", "mc.sample_torus_haar", calls=False)
    timed("mc.sample_stratum_local", "mc.sample_stratum_local", calls=False)
    strata = [s.n for s in _named(spans, {"mc.sample_stratum_local"}) if s.n]
    m["mc.stratum.accepted"] = sum(a for a, _ in strata)
    m["mc.stratum.attempts"] = sum(t for _, t in strata)
    m["mc.stratum.acceptance"] = _ratio(m["mc.stratum.accepted"], m["mc.stratum.attempts"])
    timed(
        "mc.estimate",
        "mc.estimate_mean_transform",
        "mc.estimate_L2_and_variance",
        "mc.borel_cantelli_table",
        "mc.tail_histogram",
        "mc.torus_count_values",
        calls=False,
        self_s=True,
    )

    timed("kernels.count", "kernels.count_primitive_in_disc")
    m["kernels.counts_per_s"] = _ratio(m["kernels.count.calls"], m["kernels.count.s"])

    timed("oracle.torus_holonomy", "oracle.torus_holonomy", calls=False)
    timed("oracle.slit_torus_holonomy", "oracle.slit_torus_holonomy", calls=False)
    m["oracle.vectors"] = sum(
        s.n or 0 for s in _named(spans, {"oracle.torus_holonomy", "oracle.slit_torus_holonomy"})
    )

    cli_spans = [s for s in spans if s.name.startswith("cli.")]
    m["cli.jobs"] = len(_named(spans, {"cli.main"}))
    m["cli.self_s"] = sum(s.self_s for s in cli_spans)
    m["cli.output_bytes"] = cli_bytes

    job_spans = [s for s in spans if s.name.startswith("job.")]
    total = sum(s.duration for s in job_spans)
    for layer in LAYERS:
        busy = sum(s.self_s for s in spans if s.name.split(".", 1)[0] == layer)
        m["share." + layer] = _ratio(busy, total)
    m["share.bench"] = _ratio(sum(s.self_s for s in job_spans), total)
    return m

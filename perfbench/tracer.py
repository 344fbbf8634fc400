"""Per-layer tracing of altgt from the benchmark's side.

install() wraps every public module-level function and every constructor of
each altgt module, plus the few methods the layer metrics count (see
METHODS).  A wrapper replaces the original in every altgt namespace that
binds it, found by the identity of the original object, so copies made by
"from .x import f" are wrapped too.  uninstall() puts every original back.
Nothing under src/ is edited.

Each wrapped call adds to its function's (calls, self time, inclusive time).
Self time is the call's duration minus the time its wrapped callees took, so
a layer's self time is the sum over its functions, and time spent in code
that is not wrapped (private helpers, the stdlib fractions module under the
scalar ring) counts to the nearest wrapped caller.  Calls to the functions
in SPANS are also kept as spans: (id, op, parent span, name, start, end).
"""

from __future__ import annotations

import sys
import time

LAYERS = (
    "partitions", "labels", "geodesics", "tableaux", "gt",
    "associator", "yor", "scalars", "verify", "cli",
)

# Methods wrapped besides the constructor of each class.
METHODS = {
    "partitions.Partition": ("down_set", "covers"),
    "yor.GTVector": ("inner",),
    "scalars.Scalar": (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__truediv__", "inverse", "conjugate",
    ),
}

# The layer entry points, kept as individual spans.
SPANS = frozenset((
    "cli.main",
    "verify.verify_yor", "verify.verify_associator",
    "verify.verify_gt", "verify.verify_gt_range",
    "gt.gt_basis", "gt.gt_vector",
    "geodesics.geodesic_representatives", "geodesics.enumerate_paths",
    "geodesics.class_members",
    "associator.apply_phi",
))

MARK = "__perfbench_original__"

# per-layer metric -> function whose call count it reports
_COUNTS = {
    "partitions.inits": "partitions.Partition.__init__",
    "partitions.down_set_calls": "partitions.Partition.down_set",
    "partitions.covers_calls": "partitions.Partition.covers",
    "labels.in_dagger_calls": "labels.in_dagger",
    "geodesics.paths_built": "geodesics.AltPath.__init__",
    "geodesics.class_members_calls": "geodesics.class_members",
    "tableaux.inits": "tableaux.StandardTableau.__init__",
    "tableaux.append_box_calls": "tableaux.append_box",
    "gt.gt_vector_calls": "gt.gt_vector",
    "gt.embed_calls": "gt.embed",
    "associator.apply_phi_calls": "associator.apply_phi",
    "associator.assoc_coeff_calls": "associator.assoc_coeff",
    "yor.gtvector_inits": "yor.GTVector.__init__",
    "yor.act_simple_calls": "yor.act_simple",
    "yor.mat_mul_calls": "yor.mat_mul",
    "yor.inner_calls": "yor.GTVector.inner",
    "scalars.mul_calls": "scalars.Scalar.__mul__",
    "scalars.add_calls": "scalars.Scalar.__add__",
    "scalars.inits": "scalars.Scalar.__init__",
    "verify.checks": "verify.Check.__init__",
}

# per-layer metric -> lru-cached function whose cache_info() it reads
_HIT_RATIOS = {
    "labels.dagger_down_set_hit_ratio": "labels.dagger_down_set",
    "geodesics.enumerate_paths_hit_ratio": "geodesics.enumerate_paths",
    "tableaux.enumerate_syt_hit_ratio": "tableaux.enumerate_syt",
    "scalars.split_square_hit_ratio": "scalars.split_square",
}

# ratio metric -> function whose call count is its base; a ratio measured
# over no calls reads 0
RATIO_BASES = {
    **_HIT_RATIOS,
    "geodesics.rep_share": "geodesics.geodesic_representatives",
    "gt.embed_per_vector": "gt.gt_vector",
    "yor.inner_nonzero_share": "yor.GTVector.inner",
}

# per-layer metric -> function whose inclusive time it reports
_INCLUSIVE = {
    "verify.yor_s": "verify.verify_yor",
    "verify.assoc_s": "verify.verify_associator",
    "verify.gt_s": "verify.verify_gt",
}


def _namespaces():
    """Every altgt module and every class defined in one."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "altgt" or name.startswith("altgt.")]
    classes = [obj for m in mods for obj in vars(m).values()
               if isinstance(obj, type) and obj.__module__.startswith("altgt.")]
    return mods + list(dict.fromkeys(classes))


def bindings(target) -> list[tuple[object, str]]:
    """Each (namespace, name) in altgt that binds exactly this object."""
    return [(ns, name) for ns in _namespaces()
            for name, value in list(vars(ns).items()) if value is target]


def installed_wrappers() -> list[str]:
    """Names in altgt namespaces that are bound to a tracing wrapper."""
    return [f"{getattr(ns, '__name__', ns)}.{name}" for ns in _namespaces()
            for name, value in vars(ns).items() if hasattr(value, MARK)]


def targets():
    """(key, original) for every function the tracer wraps."""
    for layer in LAYERS:
        mod = sys.modules[f"altgt.{layer}"]
        for name, obj in vars(mod).items():
            if isinstance(obj, type):
                if obj.__module__ != mod.__name__:
                    continue
                for meth in ("__init__",) + METHODS.get(f"{layer}.{name}", ()):
                    if meth in vars(obj):
                        yield f"{layer}.{name}.{meth}", vars(obj)[meth]
            elif (callable(obj) and not name.startswith("_")
                  and getattr(obj, "__module__", None) == mod.__name__):
                yield f"{layer}.{name}", obj


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, inclusive_s]
        self.spans: list[tuple] = []
        self.reps_returned = 0
        self.paths_enumerated = 0
        self.inner_nonzero = 0
        self.output_bytes = 0
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack = [[0.0, None]]
        self._span_stack = [0]
        self._next_span = 0
        self._op = None
        self._op_start = 0.0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for key, original in list(targets()):
            if any(seen is original for seen in self._originals.values()):
                continue  # an alias such as __radd__ = __add__ shares one wrapper
            self._originals[key] = original
            wrapper = self._wrap(key, original)
            for ns, name in bindings(original):
                self._patched.append((ns, name, original))
                setattr(ns, name, wrapper)
        stale = [key for key, orig in self._originals.items() if bindings(orig)]
        if stale:
            raise RuntimeError(f"originals still bound after install: {stale}")

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left}")

    def binding_count(self) -> int:
        return len(self._patched)

    # -- wrappers -----------------------------------------------------

    def _wrap(self, key: str, original):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        post = _POST.get(key)
        tracer = self

        if key in SPANS:
            span_stack = self._span_stack

            def wrapper(*args, **kwargs):
                frame = [0.0, key]
                stack.append(frame)
                tracer._next_span += 1
                sid = tracer._next_span
                parent = span_stack[-1]
                span_stack.append(sid)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    span_stack.pop()
                    stack[-1][0] += elapsed
                    stats[0] += 1
                    stats[1] += elapsed - frame[0]
                    stats[2] += elapsed
                    tracer.spans.append((sid, tracer._op, parent, key, start, start + elapsed))
                if post is not None:
                    post(tracer, result)
                return result
        else:

            def wrapper(*args, **kwargs):
                frame = [0.0, key]
                stack.append(frame)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    stats[0] += 1
                    stats[1] += elapsed - frame[0]
                    stats[2] += elapsed
                if post is not None:
                    post(tracer, result)
                return result

        setattr(wrapper, MARK, original)
        wrapper.__name__ = getattr(original, "__name__", key)
        return wrapper

    # -- ops as root spans --------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._next_span += 1
        self._op = op_id
        self._span_stack[:] = [self._next_span]
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        root = self._span_stack[0]
        self.spans.append((root, self._op, None, "op", self._op_start, time.perf_counter()))

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""

        def calls(key):
            return self.stats[key][0] if key in self.stats else 0

        def share(part, whole):
            return part / whole if whole else 0.0

        self_s = dict.fromkeys(LAYERS, 0.0)
        for key, (_, own, _) in self.stats.items():
            self_s[key.split(".", 1)[0]] += own
        out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
        out.update({name: (calls(key), "count") for name, key in _COUNTS.items()})
        for name, key in _HIT_RATIOS.items():
            info = self._originals[key].cache_info()
            out[name] = (share(info.hits, info.hits + info.misses), "ratio")
        out.update({name: (self.stats[key][2], "s") for name, key in _INCLUSIVE.items()})
        out["geodesics.rep_share"] = (share(self.reps_returned, self.paths_enumerated), "ratio")
        out["gt.embed_per_vector"] = (share(calls("gt.embed"), calls("gt.gt_vector")), "ratio")
        out["yor.inner_nonzero_share"] = (share(self.inner_nonzero, calls("yor.GTVector.inner")), "ratio")
        out["cli.output_bytes"] = (self.output_bytes, "bytes")
        return out

    def function_stats(self) -> dict[str, list]:
        return {key: list(v) for key, v in sorted(self.stats.items()) if v[0]}


def _after_representatives(tracer: Tracer, result) -> None:
    tracer.reps_returned += len(result)


def _after_enumerate(tracer: Tracer, result) -> None:
    # only the top-level enumeration a representative search asked for
    if tracer._stack[-1][1] == "geodesics.geodesic_representatives":
        tracer.paths_enumerated += len(result)


def _after_inner(tracer: Tracer, result) -> None:
    if result:
        tracer.inner_nonzero += 1


_POST = {
    "geodesics.geodesic_representatives": _after_representatives,
    "geodesics.enumerate_paths": _after_enumerate,
    "yor.GTVector.inner": _after_inner,
}

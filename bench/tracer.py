"""Per-layer tracing of modata from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper,
at every binding the function has in a loaded ``modata`` module: module
globals (``from .modrep import rep_evaluate`` in ``galois`` is a second
binding of the same function) and class attributes (``CycloNum.__rmul__``
is the same function as ``__mul__``).  No source file changes.

All wrapped calls share one stack, so a call's self time is its duration
minus the time covered by the wrapped calls it made.  Calls into the kernel
(``cyclo``, about a million per pass) are only aggregated per group: calls,
inclusive time and self time.  Calls into the layers above it, and the
request and set-up spans the benchmark opens, are also kept as spans
``(name, start, end, parent, request, self)`` in memory and written out by
``write`` at the end, as gzipped JSON.
"""

import gzip
import json
import sys
import time
from fractions import Fraction

LAYERS = ("cyclo", "matrixops", "modular_data", "modrep", "galois",
          "lambdamat", "orbifold", "reporting", "cli")

# (group, module, class or None, attribute); the layer is the group's
# first component.  Kernel groups are aggregated without spans.
KERNEL = (
    ("cyclo.construct", "cyclo", "CycloNum", "__init__"),
    ("cyclo.mul", "cyclo", "CycloNum", "__mul__"),
    ("cyclo.add", "cyclo", "CycloNum", "__add__"),
    ("cyclo.coerce", "cyclo", "CycloNum", "coerce"),
    ("cyclo.galois", "cyclo", "CycloNum", "galois"),
    ("cyclo.inverse", "cyclo", "CycloNum", "inverse"),
    ("cyclo.minimal_order", "cyclo", "CycloNum", "minimal_order"),
    ("cyclo.context", "cyclo", "_FieldContext", "__init__"),
    ("reporting.records", "reporting", "CheckRecord", "__init__"),
)
SPANS = (
    ("matrixops.mat_mul", "matrixops", None, "mat_mul"),
    ("matrixops.scale", "matrixops", None, "scale_rows"),
    ("matrixops.scale", "matrixops", None, "scale_cols"),
    ("matrixops.scale", "matrixops", None, "scalar_mul"),
    ("matrixops.compare", "matrixops", None, "mat_eq"),
    ("matrixops.compare", "matrixops", None, "first_mismatch"),
    ("matrixops.compare", "matrixops", None, "is_diagonal"),
    ("modular_data.construct", "modular_data", "ModularData", "__init__"),
    ("modular_data.checks", "modular_data", "ModularData", "c0_consistency"),
    ("modular_data.checks", "modular_data", "ModularData", "conductor"),
    ("modular_data.checks", "modular_data", "ModularData",
     "automorphism_action_check"),
    ("modular_data.verlinde", "modular_data", None, "verlinde_sum"),
    ("modular_data.t_entries", "modular_data", "ModularData", "t_entries"),
    ("modrep.rep_evaluate", "modrep", None, "rep_evaluate"),
    ("modrep.sampling", "modrep", None, "sample_gamma"),
    ("modrep.sampling", "modrep", None, "random_word_matrix"),
    ("modrep.sampling", "modrep", None, "lift_to_sl2z"),
    ("galois.sigma_matrix", "galois", None, "sigma_matrix"),
    ("galois.parity_decompose", "galois", None, "parity_decompose"),
    ("galois.kernel_test", "galois", None, "kernel_test"),
    ("galois.suite", "galois", None, "verify_galois_identities"),
    ("galois.suite", "galois", None, "congruence_suite"),
    ("galois.suite", "galois", None, "g_multiplicative_check"),
    ("galois.suite", "galois", None, "z_suite"),
    ("lambdamat.lambda_mat", "lambdamat", None, "lambda_mat"),
    ("lambdamat.lambda_hat", "lambdamat", None, "lambda_hat"),
    ("lambdamat.suite", "lambdamat", None, "verify_lambda_identities"),
    ("lambdamat.suite", "lambdamat", None, "hat_functional_equation_check"),
    ("orbifold.hat", "orbifold", "OrbSlice", "hat"),
    ("orbifold.suite", "orbifold", None, "consistency_report"),
    ("orbifold.suite", "orbifold", None, "charge_invariants"),
    ("orbifold.suite", "orbifold", None, "mu_scaling_check"),
    ("orbifold.suite", "orbifold", None, "multiplicity_report"),
    ("cli.main", "cli", None, "main"),
    ("reporting.to_json", "reporting", "RunReport", "to_json"),
)

#: Groups that must be called on each workload: those whose metrics the
#: benchmark documentation says a change should move there.
FIRES = {
    "catalog": (
        "cyclo.context", "cyclo.mul", "cyclo.construct", "cyclo.add",
        "cyclo.coerce", "cyclo.galois", "cyclo.inverse",
        "cyclo.minimal_order", "matrixops.mat_mul", "matrixops.compare",
        "modular_data.construct", "modular_data.checks",
        "modular_data.verlinde", "reporting.records",
    ),
    "fractional": (
        "cyclo.context", "cyclo.mul", "cyclo.construct", "matrixops.scale",
        "matrixops.compare", "modular_data.construct",
        "modular_data.t_entries", "modrep.rep_evaluate",
        "lambdamat.lambda_mat", "lambdamat.lambda_hat", "lambdamat.suite",
        "orbifold.hat", "orbifold.suite",
    ),
    "cli-sampling": (
        "cyclo.context", "cyclo.mul", "cyclo.construct", "cyclo.coerce",
        "matrixops.mat_mul", "matrixops.scale", "matrixops.compare",
        "modular_data.construct", "modular_data.checks",
        "modular_data.t_entries", "modrep.rep_evaluate", "modrep.sampling",
        "galois.sigma_matrix", "galois.parity_decompose",
        "galois.kernel_test", "galois.suite", "cli.main",
        "reporting.to_json", "reporting.records",
    ),
}


def _nnz(x) -> int:
    nums = getattr(x, "nums", None)
    if nums is None:
        return 1 if x else 0
    return len(nums) - nums.count(0)


def _entries(matrix) -> int:
    return sum(len(row) for row in matrix)


class Tracer:
    """Wraps modata's layer functions and collects spans and counters."""

    def __init__(self, M):
        self.mods = {name: getattr(M, name) for name in LAYERS}
        self.agg = {}        # group -> [calls, inclusive s, self s]
        self.counts = {}     # derived work counts, e.g. cyclo.mul.coeff_products
        self.hits = {}       # group -> cache hits, for the hit ratios
        self.escaped = {layer: [] for layer in LAYERS}
        self.contexts = []   # (order, phi) of each context built
        self.spans = []
        self.stack = [[0.0]]     # child time of each open call; root first
        self.open_spans = [-1]   # span index of each open span
        self.request = None
        self._pending = None     # (name, start) of the open benchmark span
        self.base = time.perf_counter()
        self._patches = []
        self._memo = {}      # cache key -> object returned the first time
        self._keep = []      # owners of memo keys, so their ids stay unique
        self._cache0 = None

    # -- wrappers -----------------------------------------------------

    def _error(self, group, exc):
        seen = self.escaped[group.partition(".")[0]]
        if not any(e is exc for e in seen):
            seen.append(exc)

    def _kernel_wrapper(self, fn, group, pre=None, post=None):
        agg = self.agg.setdefault(group, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kw):
            if pre is not None:
                self._bookkeep(pre, args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            except BaseException as exc:
                self._error(group, exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
            if post is not None:
                self._bookkeep(post, args, out)
            return out

        return wrapper

    def _span_wrapper(self, fn, group, name, pre=None, post=None):
        agg = self.agg.setdefault(group, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kw):
            if pre is not None:
                self._bookkeep(pre, args)
            t0 = self._open()
            try:
                out = fn(*args, **kw)
            except BaseException as exc:
                self._error(group, exc)
                raise
            finally:
                dt, self_s = self._close(name, t0, clock())
                agg[0] += 1
                agg[1] += dt
                agg[2] += self_s
            if post is not None:
                self._bookkeep(post, args, out)
            return out

        return wrapper

    def _bookkeep(self, hook, *args):
        # A counting hook runs in the caller's frame; its time counts as
        # time of a child, so the caller's self time leaves it out.
        t0 = time.perf_counter()
        hook(*args)
        self.stack[-1][0] += time.perf_counter() - t0

    def _open(self):
        self.stack.append([0.0])
        self.open_spans.append(len(self.spans))
        self.spans.append(None)
        return time.perf_counter()

    def _close(self, name, t0, t1):
        dt = t1 - t0
        frame = self.stack.pop()
        self.stack[-1][0] += dt
        idx = self.open_spans.pop()
        self_s = dt - frame[0]
        self.spans[idx] = (name, t0 - self.base, t1 - self.base,
                           self.open_spans[-1], self.request, self_s)
        return dt, self_s

    def begin(self, name, request=None):
        """Open a benchmark span (set-up or one request)."""
        self.request = request
        self._pending = (name, self._open())

    def end(self):
        name, t0 = self._pending
        self._close(name, t0, time.perf_counter())
        self.request = None

    # -- derived counts -----------------------------------------------

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _hit(self, group, owner, key, out):
        # A hit returns the very object an earlier call with the same key
        # returned, which only a cache does.
        memo_key = (group, id(owner), key)
        first = self._memo.get(memo_key)
        if first is None:
            self._memo[memo_key] = out
            self._keep.append(owner)
        elif first is out:
            self.hits[group] = self.hits.get(group, 0) + 1

    def _hooks(self, group, attr):
        if group == "cyclo.mul":
            return (lambda a: self._count(group + ".coeff_products",
                                          _nnz(a[0]) * _nnz(a[1]))), None
        if group == "cyclo.context":
            return None, lambda a, out: self.contexts.append((a[0].order, a[0].phi))
        if group == "matrixops.mat_mul":
            def pre(a):
                x, y = a[0], a[1]
                self._count(group + ".entry_products", sum(
                    sum(1 for row in x if row[t]) * sum(1 for v in y[t] if v)
                    for t in range(len(y))))
            return pre, None
        if group == "matrixops.scale":
            pos = 0 if attr == "scale_cols" else 1
            return (lambda a: self._count(group + ".entry_products",
                                          _entries(a[pos]))), None
        if group == "modrep.rep_evaluate":
            decompose = self.mods["modrep"].decompose
            return (lambda a: self._count(group + ".word_tokens",
                                          len(decompose(a[1]).tokens))), None
        if group == "modular_data.t_entries":
            return None, lambda a, out: self._hit(group, a[0], Fraction(a[1]), out)
        if group == "orbifold.hat":
            return None, lambda a, out: self._hit(group, a[0], a[1] % a[0].n, out)
        return None, None

    # -- installation ---------------------------------------------------

    def _bind(self, original, wrapper):
        # Replace every binding of `original` in the loaded modata modules.
        found = 0
        for name, mod in list(sys.modules.items()):
            if name != "modata" and not name.startswith("modata."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
                    found += 1
                elif isinstance(val, type) and val.__module__.startswith("modata"):
                    for cattr, cval in list(vars(val).items()):
                        if cval is original:
                            self._patches.append((val, cattr, cval))
                            setattr(val, cattr, wrapper)
                            found += 1
        if not found:
            raise RuntimeError(f"no binding of {original!r} to trace")

    def install(self):
        self._cache0 = self.mods["cyclo"]._context.cache_info()
        for table, make in ((KERNEL, self._kernel_wrapper),
                            (SPANS, self._span_wrapper)):
            for group, module, cls, attr in table:
                owner = self.mods[module]
                if cls is not None:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                pre, post = self._hooks(group, attr)
                if table is KERNEL:
                    wrapper = make(original, group, pre, post)
                else:
                    name = f"{module}.{cls + '.' if cls else ''}{attr}"
                    wrapper = make(original, group, name, pre, post)
                self._bind(original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: {name: (value, unit)}."""
        out = {}

        def calls(group):
            return self.agg.get(group, [0, 0.0, 0.0])[0]

        def self_s(group):
            return self.agg.get(group, [0, 0.0, 0.0])[2]

        cache = self.mods["cyclo"]._context.cache_info()
        lookups = (cache.hits + cache.misses
                   - self._cache0.hits - self._cache0.misses)
        out["cyclo.context.built"] = (calls("cyclo.context"), "count")
        out["cyclo.context.build_s"] = (
            self.agg.get("cyclo.context", [0, 0.0])[1], "s")
        out["cyclo.context.max_order"] = (
            max((o for o, _ in self.contexts), default=0), "count")
        out["cyclo.context.max_phi"] = (
            max((p for _, p in self.contexts), default=0), "count")
        out["cyclo.context.hit_ratio"] = (
            (cache.hits - self._cache0.hits) / lookups if lookups else 0.0,
            "ratio")
        for op in ("mul", "construct", "add", "coerce", "galois", "inverse",
                   "minimal_order"):
            out[f"cyclo.{op}.calls"] = (calls(f"cyclo.{op}"), "count")
            out[f"cyclo.{op}.self_s"] = (self_s(f"cyclo.{op}"), "s")
        for group in ("matrixops.mat_mul", "matrixops.scale",
                      "matrixops.compare", "modular_data.construct",
                      "modular_data.verlinde", "modular_data.t_entries",
                      "modrep.rep_evaluate", "galois.sigma_matrix",
                      "galois.parity_decompose", "galois.kernel_test",
                      "lambdamat.lambda_mat", "lambdamat.lambda_hat",
                      "orbifold.hat", "cli.main"):
            out[group + ".calls"] = (calls(group), "count")
            if group not in ("modular_data.t_entries", "orbifold.hat"):
                out[group + ".self_s"] = (self_s(group), "s")
        for group in ("modular_data.checks", "modrep.sampling",
                      "galois.suite", "lambdamat.suite", "orbifold.suite",
                      "reporting.to_json"):
            out[group + ".self_s"] = (self_s(group), "s")
        for key in ("cyclo.mul.coeff_products",
                    "matrixops.mat_mul.entry_products",
                    "matrixops.scale.entry_products",
                    "modrep.rep_evaluate.word_tokens"):
            out[key] = (self.counts.get(key, 0), "count")
        for group in ("modular_data.t_entries", "orbifold.hat"):
            n = calls(group)
            out[group + ".hit_ratio"] = (
                self.hits.get(group, 0) / n if n else 0.0, "ratio")
        out["reporting.records"] = (calls("reporting.records"), "count")
        for layer in LAYERS:
            out[layer + ".errors"] = (len(self.escaped[layer]), "count")
        return out

    def silent(self, workload) -> list[str]:
        """Groups that should have been called on `workload` but were not."""
        return [g for g in FIRES[workload] if not self.agg.get(g, [0])[0]]

    def write(self, path, requests):
        data = {
            "aggregates": {g: {"calls": a[0], "inclusive_s": a[1], "self_s": a[2]}
                           for g, a in sorted(self.agg.items())},
            "counts": dict(sorted(self.counts.items())),
            "contexts": self.contexts,
            "requests": [{"id": r["id"], "key": r["key"]} for r in requests],
            "span_fields": ["name", "start_s", "end_s", "parent", "request",
                            "self_s"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)

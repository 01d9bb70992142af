"""Layer tracing from outside the program.

`install` wraps the public functions of each layer of ``heckechain`` and
rebinds every reference the package holds to them: module globals (so a
``from .x import f`` alias in another module is covered), class attributes,
re-exports in ``heckechain/__init__``, default arguments and closure cells.
`unbound_aliases` then proves that no reference to an unwrapped original is
left.

A span covers one call of a wrapped function.  Its self time is its duration
minus the durations of the spans it encloses, so the self times of all spans
add up to the time covered by the outermost spans, one per CLI call.  Spans
are aggregated per bucket in memory; nothing is written while the program
runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

from oracles import dim_cusp_forms

# (module, attribute path, bucket).  The bucket names the per-layer metric
# `<bucket>_s` that receives the self time of the spans.
SPANS = [
    ("heckechain.cli", "main", "cli.self"),
    ("heckechain.store", "Store.get", "store.get"),
    ("heckechain.store", "Store.put", "store.put"),
    ("heckechain.modsym", "ModularSymbolSpace.__init__", "modsym.build"),
    ("heckechain.modsym", "ModularSymbolSpace.hecke_matrix", "modsym.hecke_matrix"),
    ("heckechain._kernels", "hecke_accum", "kernels.hecke_accum"),
    ("heckechain._kernels", "rref_mod", "kernels.rref_mod"),
    ("heckechain._kernels", "matmul_mod", "kernels.matmul_mod"),
    ("heckechain._kernels", "sieve_scan", "kernels.sieve_scan"),
    ("heckechain.matrix", "rref", "matrix.prime"),
    ("heckechain.matrix", "right_kernel", "matrix.prime"),
    ("heckechain.matrix", "solve_columns", "matrix.prime"),
    ("heckechain.matrix", "charpoly_mod", "matrix.prime"),
    ("heckechain.matrix", "poly_of_matrix", "matrix.prime"),
    ("heckechain.matrix", "gsolve_columns", "matrix.ext"),
    ("heckechain.matrix", "gkernel", "matrix.ext"),
    ("heckechain.matrix", "gcharpoly", "matrix.ext"),
    ("heckechain.matrix", "apply_np_to_gvecs", "matrix.ext"),
    ("heckechain.polys", "factor", "polys.factor"),
    ("heckechain.polys", "roots", "polys.roots"),
    ("heckechain.polys", "embeddings", "polys.embeddings"),
    ("heckechain.eigensystems", "decompose", "eigensystems.decompose"),
    ("heckechain.eigensystems", "Eigensystem.__init__", "eigensystems.construct"),
    ("heckechain.eigensystems", "Eigensystem.a", "eigensystems.a"),
    ("heckechain.lifting", "lift_charpoly", "lifting.lift"),
    ("sympy.polys.polytools", "Poly.factor_list", "lifting.sympy_factor"),
    ("heckechain.congruence", "check_congruence", "congruence.check"),
    ("heckechain.images", "classify_image", "images.classify"),
    ("heckechain.mlt", "find_good_dihedral", "mlt.find_good_dihedral"),
    ("heckechain.mlt", "all_verdicts", "mlt.verdict"),
    ("heckechain.mlt", "best_verdict", "mlt.verdict"),
    ("heckechain.graph", "mazur_report", "graph.mazur_report"),
    ("heckechain.graph", "CongruenceGraph.chain_search", "graph.chain_search"),
    ("heckechain.planner", "plan_to_safe_form", "planner.plan"),
    ("heckechain.planner", "connect", "planner.plan"),
]

# Wrapped for their counters only; they add no span.
COUNTED = [
    ("heckechain.eigensystems", "charpoly_halved"),
    ("heckechain.lifting", "IntegralClasses.__init__"),
    ("heckechain.lifting", "IntegralOrbitClass.rational_table"),
]

BUCKETS = sorted({bucket for _, _, bucket in SPANS})


class Tracer:
    """Span self times per bucket plus the counters of each layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self.max_field_degree = 0
        self.sieve_hits: list[int] = []
        self._stack: list[list[float]] = []
        self._lift_degrees: list[list[int]] = []

    def span(self, fn, bucket: str, hook):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = hook.before(self, args) if hook else None
            stack.append([0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if hook:
                    hook.failed(self, state, args)
                raise
            finally:
                dt = perf_counter() - t0
                self_s[bucket] += dt - stack.pop()[0]
                calls[bucket] += 1
                if stack:
                    stack[-1][0] += dt
                else:
                    self.root_s += dt
            if hook:
                hook.after(self, state, args, result)
            return result

        return wrapper

    def counted(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = hook.before(self, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                hook.failed(self, state, args)
                raise
            hook.after(self, state, args, result)
            return result

        return wrapper


class Hook:
    """Counters observed around one wrapped call."""

    def before(self, tr: Tracer, args):
        return None

    def after(self, tr: Tracer, state, args, result) -> None:
        pass

    def failed(self, tr: Tracer, state, args) -> None:
        pass


class StoreGet(Hook):
    def after(self, tr, state, args, result):
        if result is not None:
            tr.counts["store.get.hits"] += 1


class StorePut(Hook):
    def after(self, tr, state, args, result):
        if result is not None:
            tr.counts["store.put.bytes"] += result.stat().st_size


class HeckeMatrix(Hook):
    def before(self, tr, args):
        space, q = args[0], args[1]
        return q not in space._hecke

    def after(self, tr, state, args, result):
        tr.counts["modsym.hecke_matrix.computed"] += state


class HeckeAccum(Hook):
    # Work done, computed from the arguments: each Merel matrix acts on each
    # P^1 representative through a (k-1) x (k-1) block.
    def before(self, tr, args):
        acc, mats, tbl, reps, k = args[:5]
        tr.counts["kernels.hecke_accum.terms"] += mats.shape[0] * reps.shape[0] * (k - 1) ** 2


class RrefMod(Hook):
    def before(self, tr, args):
        tr.counts["kernels.rref_mod.cells"] += int(args[0].size)


class SieveScan(Hook):
    def before(self, tr, args):
        tr.counts["kernels.sieve_scan.candidates"] += int(args[3])

    def after(self, tr, state, args, result):
        tr.counts["kernels.sieve_scan.hits"] += len(result)
        tr.counts["kernels.sieve_scan.saturated"] += len(result) == 64
        tr.sieve_hits.extend(result)


class Decompose(Hook):
    cache: dict = {}

    def before(self, tr, args):
        return tuple(args[:3]) not in self.cache

    def after(self, tr, state, args, result):
        tr.counts["eigensystems.decompose.computed"] += state


class Construct(Hook):
    def after(self, tr, state, args, result):
        tr.max_field_degree = max(tr.max_field_degree, args[0].field.degree)


class EigenvalueQuery(Hook):
    def before(self, tr, args):
        return args[0].field.degree

    def after(self, tr, state, args, result):
        degree = args[0].field.degree
        if degree > state:
            tr.counts["eigensystems.extensions"] += 1
            tr.max_field_degree = max(tr.max_field_degree, degree)


class Lift(Hook):
    def before(self, tr, args):
        tr._lift_degrees.append([])

    def after(self, tr, state, args, result):
        self._close(tr, len(result) - 1)

    def failed(self, tr, state, args):
        self._close(tr, dim_cusp_forms(args[0], args[1]))

    @staticmethod
    def _close(tr, D):
        degrees = tr._lift_degrees.pop()
        tr.counts["lifting.crt_primes_tried"] += len(degrees)
        tr.counts["lifting.crt_primes_dropped"] += sum(d != D for d in degrees)


class CharpolyHalved(Hook):
    # Only calls made by an open lift_charpoly count as CRT primes tried; a
    # call that raised is recorded with degree -1, so it counts as dropped.
    def after(self, tr, state, args, result):
        if tr._lift_degrees:
            tr._lift_degrees[-1].append(len(result) - 1)

    def failed(self, tr, state, args):
        if tr._lift_degrees:
            tr._lift_degrees[-1].append(-1)


class Congruence(Hook):
    def after(self, tr, state, args, result):
        tr.counts["congruence.certified"] += bool(result.certified)


class Plan(Hook):
    def after(self, tr, state, args, result):
        tr.counts["planner.plans"] += 1
        tr.counts["planner.steps"] += len(result.steps)


class Connect(Hook):
    def after(self, tr, state, args, result):
        tr.counts["planner.connect.calls"] += 1


class Count(Hook):
    def __init__(self, name: str):
        self.name = name

    def before(self, tr, args):
        tr.counts[self.name] += 1


HOOKS = {
    "Store.get": StoreGet(),
    "Store.put": StorePut(),
    "ModularSymbolSpace.hecke_matrix": HeckeMatrix(),
    "hecke_accum": HeckeAccum(),
    "rref_mod": RrefMod(),
    "sieve_scan": SieveScan(),
    "decompose": Decompose(),
    "Eigensystem.__init__": Construct(),
    "Eigensystem.a": EigenvalueQuery(),
    "lift_charpoly": Lift(),
    "charpoly_halved": CharpolyHalved(),
    "check_congruence": Congruence(),
    "plan_to_safe_form": Plan(),
    "connect": Connect(),
    "IntegralClasses.__init__": Count("lifting.integral_classes.computed"),
    "IntegralOrbitClass.rational_table": Count("lifting.rational_table.calls"),
}


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        obj = getattr(obj, name)
    return obj, attr


def _package_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "heckechain" or name.startswith("heckechain."))
    ]


def _namespaces():
    """(owner, attribute dict) for every place in the package that can hold
    a function reference: modules and the classes defined in them."""
    for mod in _package_modules():
        yield mod, vars(mod)
        for val in list(vars(mod).values()):
            if inspect.isclass(val) and val.__module__.startswith("heckechain"):
                yield val, val.__dict__


def _functions():
    seen = set()
    for _, ns in _namespaces():
        for val in list(ns.values()):
            fn = getattr(val, "__func__", val)
            fn = getattr(fn, "__wrapped__", fn)
            if isinstance(fn, types.FunctionType) and id(fn) not in seen:
                seen.add(id(fn))
                yield fn


def _rebind(replace: dict[int, object]) -> None:
    for owner, ns in list(_namespaces()):
        for name, val in list(ns.items()):
            if id(val) in replace:
                setattr(owner, name, replace[id(val)])
    for fn in _functions():
        if fn.__defaults__ and any(id(v) in replace for v in fn.__defaults__):
            fn.__defaults__ = tuple(replace.get(id(v), v) for v in fn.__defaults__)
        for key, v in (fn.__kwdefaults__ or {}).items():
            if id(v) in replace:
                fn.__kwdefaults__[key] = replace[id(v)]
        for cell in fn.__closure__ or ():
            try:
                if id(cell.cell_contents) in replace:
                    cell.cell_contents = replace[id(cell.cell_contents)]
            except ValueError:  # empty cell
                continue


def install(tracer: Tracer) -> dict[int, object]:
    """Wrap every traced function; returns original id -> original."""
    importlib.import_module("heckechain.cli")
    HOOKS["decompose"].cache = importlib.import_module("heckechain.eigensystems")._DECOMPOSE_CACHE
    replace: dict[int, object] = {}
    originals: dict[int, object] = {}
    targets = [(m, p, b) for m, p, b in SPANS] + [(m, p, None) for m, p in COUNTED]
    for module, path, bucket in targets:
        owner, attr = _owner(module, path)
        fn = inspect.getattr_static(owner, attr)
        hook = HOOKS.get(path)
        if bucket is None:
            wrapper = tracer.counted(fn, hook)
        else:
            wrapper = tracer.span(fn, bucket, hook)
        setattr(owner, attr, wrapper)
        replace[id(fn)] = wrapper
        originals[id(fn)] = fn
    _rebind(replace)
    return originals


def unbound_aliases(originals: dict[int, object]) -> list[str]:
    """Places in the package that still reach an unwrapped original."""
    left = []
    for owner, ns in _namespaces():
        where = getattr(owner, "__qualname__", owner.__name__)
        for name, val in ns.items():
            if id(val) in originals:
                left.append(f"{where}.{name}")
            elif isinstance(val, (dict, list, tuple, set, frozenset)):
                items = val.values() if isinstance(val, dict) else val
                if any(id(v) in originals for v in list(items)):
                    left.append(f"{where}.{name}[...]")
    for fn in _functions():
        refs = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
        for cell in fn.__closure__ or ():
            try:
                refs.append(cell.cell_contents)
            except ValueError:
                continue
        if any(id(v) in originals for v in refs):
            left.append(f"{fn.__module__}.{fn.__qualname__} (default or closure)")
    return left


def metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced worker, before ratios are formed."""
    out: dict[str, float] = {}
    for bucket in BUCKETS:
        out[f"{bucket}_s"] = tr.self_s.get(bucket, 0.0)
        out[f"{bucket}.calls"] = tr.calls.get(bucket, 0)
    out.update(tr.counts)
    out["root_s"] = tr.root_s
    out["eigensystems.max_field_degree"] = tr.max_field_degree
    return out

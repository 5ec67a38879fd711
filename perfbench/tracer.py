"""Per-layer tracing from outside the package.

Every public function of the singcat modules (plus the two helpers that
cross module boundaries, ``homology._step`` and ``homology._matches_stably``)
is wrapped once, and the wrapper is bound in every singcat namespace that
holds the original, so ``hom`` is traced whether it is called from ``rep``,
``homology`` or ``tilting``.  Each call records a span (name, start, end,
parent, operation id); self time is a span's duration minus that of its
children.  ``Matrix.__init__`` is counted without a span, because it runs
about 150k times per CLI pass.

Work the tracer itself does inside a traced call (counting the nonzeros of
an elimination system) is recorded as a ``trace.hook`` child span, so it
is kept out of every layer's self time.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

MODULES = ("exact_linalg", "quiver_algebra", "rep", "homology", "tilting",
           "stab", "cli")
PRIVATE_CROSSING = {("homology", "_step"), ("homology", "_matches_stably")}
ELIM = {"exact_linalg.rref", "exact_linalg.rank", "exact_linalg.kernel_basis",
        "exact_linalg.solve_right", "exact_linalg.solve_left"}
ROUTES = ("side_vanishes", "orthogonal_tail", "zero_tail", "identity_end",
          "undetermined")
VERBS = ("ct_verify", "sing_skeleton", "sing_gorenstein", "ct_resolution")

# span fields
NAME, START, END, PARENT, OP, INFO = range(6)


def _nnz(m) -> int:
    return sum(len(row) - row.count(0) for row in m.entries)


def _elim_system(name: str, args) -> tuple[int, int]:
    """(cells, nonzeros) of the system handed to an elimination call."""
    if name in ("exact_linalg.solve_right", "exact_linalg.solve_left"):
        a, b = args[0], args[1]
        rows = a.rows if name.endswith("right") else a.cols
        cols = a.cols + b.cols if name.endswith("right") else a.rows + b.rows
        return rows * cols, _nnz(a) + _nnz(b)
    m = args[0]
    return m.rows * m.cols, _nnz(m)


class Tracer:
    """Spans of the current operation, and per-operation layer statistics."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0
        self.matrices = 0
        self.keep: list = []  # keeps traced arguments alive, so ids stay unique
        self._bound: list[tuple[object, str, object]] = []
        self._elim_depth = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"singcat.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and (short, attr) not in PRIVATE_CROSSING:
                    continue
                wrappers[fn] = self._wrap(f"{short}.{attr.lstrip('_')}", fn)
        namespaces = list(mods.values()) + [importlib.import_module("singcat")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._bind(ns, attr, wrappers[val])
        Matrix = mods["exact_linalg"].Matrix
        self._bind(Matrix, "mul", self._wrap("exact_linalg.matmul", Matrix.mul))
        self._bind(Matrix, "__init__", self._counting_init(Matrix.__init__))
        Loader = mods["cli"].Loader
        for meth in ("algebra", "module", "subcat"):
            self._bind(Loader, meth, self._wrap("cli.load", getattr(Loader, meth)))
        self._bind(mods["cli"], "_emit_report",
                   self._wrap("cli.emit", mods["cli"]._emit_report))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._bound):
            setattr(owner, attr, orig)
        self._bound.clear()

    def _bind(self, owner, attr: str, new) -> None:
        self._bound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _counting_init(self, orig):
        tracer = self

        def __init__(self, *args, **kwargs):
            tracer.matrices += 1
            orig(self, *args, **kwargs)
        return __init__

    def _wrap(self, name: str, fn):
        tracer = self
        elim = name in ELIM
        pre = _PRE.get(name)
        post = _POST.get(name)

        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            if elim:
                tracer._elim_depth += 1
            try:
                rec[START] = perf_counter()
                if pre is not None or (elim and tracer._elim_depth == 1):
                    rec[INFO] = pre(tracer, args) if pre else _elim_system(name, args)
                    spans.append(["trace.hook", rec[START], perf_counter(), idx,
                                  tracer.op_id, None])
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if elim:
                    tracer._elim_depth -= 1
            if post is not None:
                rec[INFO] = post(rec[INFO], args, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- per operation -----------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.spans = []
        self.stack = []
        self.keep = []
        self.matrices = 0
        self.op_id = op_id

    def stats(self) -> dict[str, float]:
        """Layer statistics of the spans recorded since ``begin``."""
        return layer_stats(self.spans, self.matrices)


# Argument hooks run before the call, result hooks after it.

def _pair(tracer, args):
    M, N = args[0], args[1]
    tracer.keep.append((M, N))
    return (id(M), id(N)), sum(M.dims[v] * N.dims[v] for v in M.dims)


def _membership(tracer, args):
    M, gens = args[0], tuple(args[1])
    tracer.keep.append((M, gens))
    return (id(M),) + tuple(id(g) for g in gens), None


def _verb(tracer, args):
    argv = list(args[0]) if args and args[0] is not None else []
    return "_".join(argv[:2])


_PRE = {
    "rep.hom": _pair,
    "homology.stable_hom": lambda t, a: _pair(t, a)[0],
    "rep.add_membership": _membership,
    "cli.main": _verb,
}
_POST = {
    "rep.add_membership": lambda info, a, r: (info[0], bool(r)),
    "rep.stable_iso": lambda info, a, r: bool(r),
    "homology.matches_stably": lambda info, a, r: bool(r),
    "stab.stab_hom": lambda info, a, r: (
        r.route if r.status == "certified" else "undetermined"),
}


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_stats(spans: list[list], matrices: int) -> dict[str, float]:
    n = len(spans)
    child = [0.0] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
            kids[s[PARENT]].append(i)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        nm = s[NAME]
        calls[nm] = calls.get(nm, 0) + 1
        self_s[nm] = self_s.get(nm, 0.0) + (s[END] - s[START]) - child[i]
        by_name.setdefault(nm, []).append(i)

    def c(name):
        return calls.get(name, 0)

    def st(name):
        return self_s.get(name, 0.0)

    def infos(name):
        return [spans[i][INFO] for i in by_name.get(name, [])]

    elim_spans = [i for nm in ELIM for i in by_name.get(nm, [])]
    outer = [spans[i][INFO] for i in elim_spans if spans[i][INFO] is not None]
    cells = sum(x[0] for x in outer)
    homs = infos("rep.hom")
    adds = infos("rep.add_membership")
    stable = infos("homology.stable_hom")
    steps = by_name.get("homology.step", [])
    hits = sum(1 for i in steps
               if not any(spans[k][NAME] == "rep.projective_cover"
                          for k in kids[i]))
    walkers = {"homology.omega_stabilizes", "homology.pd_certificate"}
    orbit_steps = sum(1 for i in steps
                      if spans[i][PARENT] >= 0
                      and spans[spans[i][PARENT]][NAME] in walkers)
    routes = infos("stab.stab_hom")
    verbs = {v: 0.0 for v in VERBS}
    for i in by_name.get("cli.main", []):
        key = spans[i][INFO]
        if key in verbs:
            verbs[key] += spans[i][END] - spans[i][START]

    out = {
        "exact_linalg.elim.calls": len(outer),
        "exact_linalg.elim.self_s": sum(st(nm) for nm in ELIM),
        "exact_linalg.elim.cells": cells,
        "exact_linalg.elim.nnz_frac": _frac(sum(x[1] for x in outer), cells),
        "exact_linalg.matmul.calls": c("exact_linalg.matmul"),
        "exact_linalg.matmul.self_s": st("exact_linalg.matmul"),
        "exact_linalg.matrix.built": matrices,
        "quiver_algebra.compute_basis.calls": c("quiver_algebra.compute_basis"),
        "quiver_algebra.compute_basis.self_s": st("quiver_algebra.compute_basis"),
        "rep.hom.calls": len(homs),
        "rep.hom.self_s": st("rep.hom"),
        "rep.hom.distinct_frac": _frac(len({h[0] for h in homs}), len(homs)),
        "rep.hom.unknowns": sum(h[1] for h in homs),
        "rep.add_membership.calls": len(adds),
        "rep.add_membership.self_s": st("rep.add_membership"),
        "rep.add_membership.distinct_frac": _frac(len({a[0] for a in adds}),
                                                  len(adds)),
        "rep.add_membership.true_frac": _frac(
            sum(1 for a in adds if a[1] is True), len(adds)),
        "rep.stable_iso.calls": c("rep.stable_iso"),
        "rep.stable_iso.true_frac": _frac(infos("rep.stable_iso").count(True),
                                          c("rep.stable_iso")),
        "rep.projective_cover.calls": c("rep.projective_cover"),
        "rep.kernel.calls": c("rep.kernel"),
        "rep.cokernel.calls": c("rep.cokernel"),
        "rep.direct_sum.self_s": st("rep.direct_sum"),
        "rep.interval_module.self_s": st("rep.interval_module"),
        "homology.step.calls": len(steps),
        "homology.step.hit_frac": _frac(hits, len(steps)),
        "homology.ext.calls": c("homology.ext"),
        "homology.ext.self_s": st("homology.ext"),
        "homology.stable_hom.calls": len(stable),
        "homology.stable_hom.self_s": st("homology.stable_hom"),
        "homology.stable_hom.distinct_frac": _frac(len(set(stable)), len(stable)),
        "homology.matches_stably.calls": c("homology.matches_stably"),
        "homology.matches_stably.true_frac": _frac(
            infos("homology.matches_stably").count(True),
            c("homology.matches_stably")),
        "homology.orbit.steps": orbit_steps,
        "tilting.verify_rigid.self_s": st("tilting.verify_rigid"),
        "tilting.verify_gen_cogen.self_s": st("tilting.verify_gen_cogen"),
        "tilting.verify_dZ_closure.self_s": st("tilting.verify_dZ_closure"),
        "tilting.approximation.calls": (c("tilting.right_approximation")
                                        + c("tilting.left_approximation")),
        "tilting.d_resolution.self_s": st("tilting.d_resolution"),
        "stab.skeleton.self_s": st("stab.skeleton"),
        "stab.stab_hom.calls": len(routes),
        "stab.is_iwanaga_gorenstein.self_s": st("stab.is_iwanaga_gorenstein"),
        "cli.load.self_s": st("cli.load"),
        "cli.emit.self_s": st("cli.emit"),
    }
    for r in ROUTES:
        out[f"stab.stab_hom.route.{r}"] = routes.count(r)
    for v in VERBS:
        out[f"cli.verb.{v}_s"] = verbs[v]
    return out

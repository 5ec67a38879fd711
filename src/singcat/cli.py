"""Command-line surface: JSON fixtures, reports, and exit-coded checks.

File formats (canonical key order, coefficients as decimal strings):

* algebra:  {"field": {"kind": "rational"} | {"kind": "prime", "p": 101},
             "vertices": [...],
             "arrows": [{"id", "src", "tgt"}, ...],
             "relations": [[{"coef": "1", "path": ["a1", "a2"]}, ...], ...]}
* module:   {"algebra": <relative file ref>, "dims": {...},
             "arrows": {"a1": [["1", "0"], ...], ...}} with row-major
            matrices, one row per source basis vector
* subcat:   {"algebra": <ref>, "d": 2, "generators": [<module refs>],
             "claims": ["skeleton_count=4", ...]}

Exit codes: 0 computed or verified, 1 refuted, 2 undetermined at the
horizon, 3 malformed input (a command-line usage error included, and
only the error classes of ``INPUT_ERRORS``), 4 internal error (a computed
result failed the exact check that guards it, or some other ValueError
escaped a verb; a fault of the program, not of the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .exact_linalg import (
    Field, FieldError, InternalCheckFailed, Matrix, prime_field, rational_field,
)
from .families import InvalidTriple, nakayama2_tilde
from .homology import PdCertificate, ext_dim, resolve, syzygy
from .homspace import hom_dim
from .quiver_algebra import (
    Arrow,
    BoundQuiverAlgebra,
    InvalidKupisch,
    NonHomogeneousRelation,
    NotFiniteDimensionalWithinBound,
    PathWord,
    Quiver,
    QuiverError,
    RelationElement,
    UnsupportedKupischValue,
    WindowTooSmall,
    compute_basis,
    nakayama2_infinite,
    nakayama_cyclic,
    truncate,
)
from .rep import (
    AlgebraMismatch, Representation, is_projective, projective_module,
    simple_module,
)
from .stab import (
    OrbitNotResolved,
    gp_certificate,
    is_iwanaga_gorenstein,
    skeleton,
)
from .tilting import (
    ApproximationNotEpi,
    ApproximationNotMono,
    FinalTermNotInSubcategory,
    SubcatSpec,
    d_resolution,
    standard_angle,
    verify_cluster_tilting,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    """Anything wrong with files or flags, reported with exit code 3."""


# the errors that name bad input, exit 3; any other ValueError that escapes
# a verb is the program's fault, exit 4
INPUT_ERRORS = (InputError, QuiverError, AlgebraMismatch, FieldError,
                NotFiniteDimensionalWithinBound, NonHomogeneousRelation,
                InvalidKupisch, UnsupportedKupischValue, WindowTooSmall,
                InvalidTriple)


# ---------------------------------------------------------------------------
# codecs


def field_to_json(f: Field) -> dict:
    if f.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "prime", "p": f.p}


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("field spec must be an object with a 'kind'")
    if obj["kind"] == "rational":
        return rational_field()
    if obj["kind"] == "prime":
        try:
            return prime_field(_typed(obj["p"], int, "field p"))
        except (KeyError, TypeError, ValueError, FieldError) as e:
            raise InputError(f"bad prime field spec: {e}")
    raise InputError(f"unknown field kind {obj['kind']!r}")


def algebra_to_json(alg: BoundQuiverAlgebra) -> dict:
    rels = []
    for r in alg.relations:
        rels.append([{"coef": alg.field.to_str(c), "path": list(p.arrows)}
                     for c, p in r.terms])
    return {
        "field": field_to_json(alg.field),
        "vertices": list(alg.quiver.vertices),
        "arrows": [{"id": a.id, "src": a.src, "tgt": a.tgt}
                   for a in alg.quiver.arrows],
        "relations": rels,
    }


def algebra_from_json(obj, length_bound: int | None = None) -> BoundQuiverAlgebra:
    try:
        field = field_from_json(obj["field"])
        quiver = Quiver(_typed(obj["vertices"], list, "vertices"),
                        [Arrow(a["id"], a["src"], a["tgt"])
                         for a in _typed(obj["arrows"], list, "arrows")])
        rels = []
        for group in _typed(obj["relations"], list, "relations"):
            terms = []
            for t in group:
                arrows = list(t["path"])
                if not arrows:
                    raise InputError("relation path is empty")
                first = quiver.arrow_by_id.get(arrows[0])
                if first is None:
                    raise InputError(f"unknown arrow {arrows[0]!r} in relation")
                terms.append((field.from_str(t["coef"]),
                              PathWord(quiver, first.src, arrows)))
            rels.append(RelationElement(terms))
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        if isinstance(e, InputError):
            raise
        raise InputError(f"malformed algebra JSON: {e}")
    try:
        return compute_basis(quiver, rels, field,
                             16 if length_bound is None else length_bound)
    except NotFiniteDimensionalWithinBound as e:
        raise InputError(f"algebra not finite dimensional within the length "
                         f"bound ({e}); raise --length-bound")


def module_to_json(M: Representation, algebra_ref: str) -> dict:
    f = M.algebra.field
    mats = {}
    for a in M.algebra.quiver.arrows:
        m = M.action[a.id]
        mats[a.id] = [[f.to_str(m.entries[r][c]) for c in range(m.cols)]
                      for r in range(m.rows)]
    return {
        "algebra": algebra_ref,
        "dims": {v: M.dims[v] for v in M.algebra.quiver.vertices},
        "arrows": mats,
    }


def module_from_json(obj, alg: BoundQuiverAlgebra) -> Representation:
    f = alg.field
    try:
        dims = {v: _typed(n, int, f"dims {v!r}")
                for v, n in obj["dims"].items()}
        action = {}
        for aid, rows in obj.get("arrows", {}).items():
            a = alg.quiver.arrow_by_id.get(aid)
            if a is None:
                raise InputError(f"unknown arrow {aid!r} in module")
            data = [[f.from_str(x) for x in row] for row in rows]
            action[aid] = Matrix.from_rows(f, data, dims.get(a.tgt, 0))
        return Representation(alg, dims, action)
    except InputError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError,
            AlgebraMismatch) as e:
        raise InputError(f"malformed module JSON: {e}")


def _dump_indented(obj, indent: str, out: list[str]) -> None:
    """Append the text json.dumps(obj, indent=2) gives, nested at ``indent``.

    Scalars and keys go through json.dumps without indent, which runs the C
    encoder; the indented pure-Python encoder builds closures that reference
    each other, so every call would leave a cycle for the cyclic collector.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for k, v in obj.items():
            if not isinstance(k, str):
                if not isinstance(k, (int, float)) and k is not None:
                    raise TypeError(f"keys must be str, int, float, bool or "
                                    f"None, not {type(k).__name__}")
                k = json.dumps(k)
            out.append(sep + json.dumps(k) + ": ")
            _dump_indented(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for v in obj:
            out.append(sep)
            _dump_indented(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(obj))


def dumps_canonical(obj) -> str:
    """json.dumps(obj, indent=2) plus a newline, byte for byte."""
    out: list[str] = []
    _dump_indented(obj, "", out)
    out.append("\n")
    return "".join(out)


def _read_json(path: Path) -> dict:
    """The JSON object in the file at ``path``: every fixture is one."""
    try:
        obj = json.loads(path.read_text())
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return obj


def _ref(path: Path, ref) -> Path:
    """The file that ``ref``, read in the file at ``path``, names."""
    if not isinstance(ref, str):
        raise InputError(f"file reference {ref!r} in {path} is not a string")
    return path.parent / ref


def _typed(value, kind: type, name: str):
    """value, if it is a JSON integer (kind int, and no bool) or array."""
    if type(value) is not kind:
        what = "integer" if kind is int else "array"
        raise InputError(f"{name} must be a JSON {what}, not {value!r}")
    return value


class Loader:
    """Reads fixture files, resolving refs relative to the referring file."""

    def __init__(self, length_bound: int | None = None):
        self.length_bound = length_bound
        self._algebras: dict[Path, BoundQuiverAlgebra] = {}

    def algebra(self, path: Path) -> BoundQuiverAlgebra:
        path = path.resolve()
        if path not in self._algebras:
            self._algebras[path] = algebra_from_json(_read_json(path),
                                                     self.length_bound)
        return self._algebras[path]

    def release(self) -> None:
        """Forget the loaded algebras and clear their caches."""
        for alg in self._algebras.values():
            alg.clear_cache()
        self._algebras.clear()

    def module(self, path: Path,
               alg: BoundQuiverAlgebra | None = None) -> Representation:
        obj = _read_json(path)
        if alg is None:
            if "algebra" not in obj:
                raise InputError(f"{path} has no algebra ref")
            alg = self.algebra(_ref(path, obj["algebra"]))
        return module_from_json(obj, alg)

    def subcat(self, path: Path,
               algebra_path: Path | None = None) -> SubcatSpec:
        obj = _read_json(path)
        try:
            d = _typed(obj["d"], int, "d")
            gen_refs = _typed(obj["generators"], list, "generators")
            alg_ref = obj["algebra"]
            claims = [str(c) for c in _typed(obj.get("claims", []), list,
                                             "claims")]
        except KeyError as e:
            raise InputError(f"malformed subcat JSON: {e}")
        apath = Path(algebra_path or _ref(path, alg_ref)).resolve()
        alg = self.algebra(apath)
        gens, labels = [], []
        for ref in gen_refs:
            mpath = _ref(path, ref)
            mobj = _read_json(mpath)
            own = _ref(mpath, mobj.get("algebra", alg_ref)).resolve()
            if own != apath and algebra_path is None:
                raise InputError(
                    f"{mpath} references a different algebra file")
            gens.append(module_from_json(mobj, alg))
            labels.append(mpath.stem)
        try:
            return SubcatSpec(alg, gens, d, labels=labels, claims=claims)
        except ValueError as e:
            raise InputError(str(e))


# ---------------------------------------------------------------------------
# fixture emission


def _sanitize(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label).strip("_")


def _write(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_canonical(obj))
    return path


def emit_examples(name: str, outdir: Path, field: Field,
                  periods: int = 3) -> list[Path]:
    written: list[Path] = []

    def emit_spec(alg: BoundQuiverAlgebra, mods: list[tuple[str, Representation]],
                  d: int, claims: list[str]) -> None:
        apath = _write(outdir / "algebra.json", algebra_to_json(alg))
        written.append(apath)
        refs = []
        for lbl, M in mods:
            fname = f"m_{_sanitize(lbl)}.json"
            written.append(_write(outdir / fname,
                                  module_to_json(M, "algebra.json")))
            refs.append(fname)
        sub = {"algebra": "algebra.json", "d": d, "generators": refs,
               "claims": claims}
        written.append(_write(outdir / "subcat.json", sub))

    if name == "kx2":
        alg = nakayama_cyclic((2,), field)
        emit_spec(alg, [("S", simple_module(alg, "0")),
                        ("P", projective_module(alg, "0"))], 1, [])
    elif name == "hereditary-a2":
        quiver = Quiver(["u", "v"], [Arrow("a", "u", "v")])
        alg = compute_basis(quiver, [], field, 3)
        emit_spec(alg, [("Pu", projective_module(alg, "u")),
                        ("Pv", projective_module(alg, "v")),
                        ("Su", simple_module(alg, "u")),
                        ("Sv", simple_module(alg, "v"))], 1, [])
    elif name == "a2-tilde-3233":
        alg, spec = nakayama2_tilde((3, 2, 3, 3), 4, field)
        mods = list(zip(spec.labels, spec.generators))
        emit_spec(alg, mods, 2, ["skeleton_count=4"])
    elif name == "a2-infty-window":
        pres = nakayama2_infinite((3, 2, 3, 3), field)
        alg, safe = truncate(pres, periods)
        written.append(_write(outdir / "algebra.json", algebra_to_json(alg)))
        written.append(_write(outdir / "window.json", {
            "periods": periods,
            "safe_region": sorted(safe),
        }))
    else:
        raise InputError(f"unknown example {name!r}")
    return written


# ---------------------------------------------------------------------------
# report helpers


def _jsonable(x):
    if isinstance(x, (str, int, bool, float)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, PdCertificate):
        return {"status": x.status, "n": x.n, "preperiod": x.preperiod,
                "period": x.period, "horizon": x.horizon}
    if isinstance(x, Representation):
        return {"dims": dict(x.dims)}
    return str(x)


def _emit_report(report: dict, out: str | None) -> None:
    if out:
        _write(Path(out), _jsonable(report))


def _print_checks(checks: dict) -> None:
    for name, c in checks.items():
        line = f"  {name}: {'pass' if c.ok else 'FAIL'}"
        if c.witness is not None:
            line += f"  witness={c.witness}"
        if c.note:
            line += f"  ({c.note})"
        print(line)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_alg_validate(args, loader: Loader) -> int:
    alg = loader.algebra(Path(args.algebra))
    print(f"valid algebra: {len(alg.quiver.vertices)} vertices, "
          f"{len(alg.quiver.arrows)} arrows, dimension {alg.dimension}")
    _emit_report({"check": "alg validate", "pass": True,
                  "dimension": alg.dimension}, args.out)
    return EXIT_OK


def _cmd_alg_basis(args, loader: Loader) -> int:
    alg = loader.algebra(Path(args.algebra))
    print(f"dimension {alg.dimension}")
    rows = []
    for u in alg.quiver.vertices:
        for v in alg.quiver.vertices:
            n = len(alg.basis(u, v))
            if n:
                rows.append({"src": u, "tgt": v, "paths": n})
                print(f"  {u} -> {v}: {n}")
    _emit_report({"check": "alg basis", "pass": True,
                  "dimension": alg.dimension, "pairs": rows}, args.out)
    return EXIT_OK


def _cmd_mod_hom(args, loader: Loader) -> int:
    M = loader.module(Path(args.module))
    N = loader.module(Path(args.other), M.algebra)
    d = hom_dim(M, N)
    print(f"hom dimension {d}")
    _emit_report({"check": "mod hom", "pass": True, "dims": [d]}, args.out)
    return EXIT_OK


def _cmd_mod_ext(args, loader: Loader) -> int:
    M = loader.module(Path(args.module))
    N = loader.module(Path(args.other), M.algebra)
    d = ext_dim(M, N, args.degree)
    print(f"ext^{args.degree} dimension {d}")
    _emit_report({"check": "mod ext", "pass": True, "degree": args.degree,
                  "dims": [d]}, args.out)
    return EXIT_OK


def _cmd_mod_resolve(args, loader: Loader) -> int:
    M = loader.module(Path(args.module))
    res = resolve(M, args.length)
    dims = [res.term(i).total_dim for i in range(args.length + 1)]
    print("projective resolution terms: " + " ".join(map(str, dims)))
    _emit_report({"check": "mod resolve", "pass": True, "dims": dims},
                 args.out)
    return EXIT_OK


def _cmd_mod_syzygy(args, loader: Loader) -> int:
    M = loader.module(Path(args.module))
    S = syzygy(M, args.steps)
    print(f"syzygy^{args.steps} dims: {dict(S.dims)}")
    if args.out:
        # the input's algebra file, as a ref relative to the output file
        out = Path(args.out)
        apath = next(p for p, a in loader._algebras.items() if a is M.algebra)
        _write(out, module_to_json(
            S, os.path.relpath(apath, out.resolve().parent)))
    return EXIT_OK


def _cmd_ct_verify(args, loader: Loader) -> int:
    apath = Path(args.algebra) if args.algebra else None
    spec = loader.subcat(Path(args.subcat), apath)
    report = verify_cluster_tilting(spec)
    print(f"verdict: {report.verdict}")
    _print_checks(report.checks)
    _emit_report({
        "check": "ct verify", "mode": report.mode,
        "verdict": report.verdict,
        "pass": report.verdict != "refuted",
        "checks": [{"check": k, "pass": c.ok, "witness": _jsonable(c.witness),
                    "note": c.note} for k, c in report.checks.items()],
    }, args.out)
    return EXIT_OK if report.verdict != "refuted" else EXIT_REFUTED


def _cmd_ct_resolution(args, loader: Loader) -> int:
    spec = loader.subcat(Path(args.subcat))
    E = loader.module(Path(args.module), spec.algebra)
    res = d_resolution(spec, E)
    dims = [T.total_dim for T in res.terms]
    print(f"resolution terms ({len(res.terms)}): {dims}")
    _emit_report({"check": "ct resolution", "pass": True, "dims": dims},
                 args.out)
    return EXIT_OK


def _cmd_ct_angle(args, loader: Loader) -> int:
    spec = loader.subcat(Path(args.subcat))
    X = loader.module(Path(args.module), spec.algebra)
    if is_projective(X):
        raise InputError("ct angle needs a non-projective module")
    ang = standard_angle(spec, X)
    dims = [T.total_dim for T in ang.objects]
    print(f"standard angle objects: {dims}")
    _emit_report({"check": "ct angle", "pass": True, "dims": dims}, args.out)
    return EXIT_OK


def _cmd_sing_skeleton(args, loader: Loader) -> int:
    spec = loader.subcat(Path(args.subcat))
    rep = skeleton(spec, horizon=args.horizon, all_shifts=args.all_shifts,
                   claimed_count=args.claimed)
    print(f"skeleton classes: {rep.count}")
    for c in rep.classes:
        print(f"  shift {c.representative.shift}: cycle {c.cycle_labels} "
              f"(orbit length {c.orbit_length})")
    print(f"zero classes: {[lbl for lbl, _ in rep.zero_classes]}")
    if rep.claimed_count is not None:
        print(f"claimed count: {rep.claimed_count}  "
              f"{'DISAGREES' if rep.count_discrepancy else 'agrees'}")
        if rep.count_discrepancy:
            print(f"  {rep.discrepancy_note}")
    _emit_report({
        "check": "sing skeleton", "pass": True, "count": rep.count,
        "claimed_count": rep.claimed_count,
        "count_discrepancy": rep.count_discrepancy,
        "discrepancy_note": rep.discrepancy_note,
        "classes": [{"labels": c.cycle_labels,
                     "shift": c.representative.shift,
                     "orbit_length": c.orbit_length,
                     "shift_period": c.shift_period} for c in rep.classes],
        "hom_matrix": rep.hom_matrix,
        "zero_classes": [{"generator": lbl, "pd": _jsonable(cert)}
                         for lbl, cert in rep.zero_classes],
        "membership": _jsonable(rep.membership),
        "identification": rep.identification,
    }, args.out)
    return EXIT_OK


def _cmd_sing_gorenstein(args, loader: Loader) -> int:
    alg = loader.algebra(Path(args.algebra))
    rep = is_iwanaga_gorenstein(alg, horizon=args.horizon)
    print(f"verdict: {rep.verdict}" + (
        f" (bound {rep.bound})" if rep.verdict == "gorenstein" else "") + (
        f" witness injective at {rep.witness}"
        if rep.verdict == "not_gorenstein" else ""))
    _emit_report({
        "check": "sing gorenstein",
        "pass": rep.verdict == "gorenstein",
        "verdict": rep.verdict, "bound": rep.bound,
        "witness": rep.witness, "witnesses": rep.witnesses,
        "injective_pd": _jsonable(rep.injective_pd),
        "projective_copd": _jsonable(rep.projective_copd),
    }, args.out)
    if rep.verdict == "gorenstein":
        return EXIT_OK
    if rep.verdict == "not_gorenstein":
        return EXIT_REFUTED
    return EXIT_UNDETERMINED


def _cmd_sing_gp(args, loader: Loader) -> int:
    alg = loader.algebra(Path(args.algebra))
    M = loader.module(Path(args.module), alg)
    cert = gp_certificate(M, horizon=args.horizon)
    print(f"status: {cert.status}" + (
        f" witness ext^{cert.witness[0]} at {cert.witness[1]}"
        if cert.witness else ""))
    _emit_report({"check": "sing gp", "pass": cert.status == "gp_certified",
                  "status": cert.status, "witness": _jsonable(cert.witness),
                  "preperiod": cert.preperiod, "period": cert.period},
                 args.out)
    if cert.status == "gp_certified":
        return EXIT_OK
    if cert.status == "not_gp":
        return EXIT_REFUTED
    return EXIT_UNDETERMINED


def _cmd_example(args, loader: Loader) -> int:
    if args.field == "rational":
        field = rational_field()
    else:
        try:
            field = prime_field(int(args.field))
        except (ValueError, FieldError) as e:
            raise InputError(f"bad --field value {args.field!r}: {e}")
    outdir = Path(args.out) if args.out else Path(args.name)
    written = emit_examples(args.name, outdir, field, periods=args.periods)
    for p in written:
        print(p)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _count(text: str) -> int:
    """A degree, step, length, horizon or count option: an int that is not
    negative."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="write the JSON report to this path")
    common.add_argument("--length-bound", type=int, default=None,
                        help="path length bound when parsing algebras")
    walks = argparse.ArgumentParser(add_help=False)
    walks.add_argument("--horizon", type=_count, default=24)

    p = argparse.ArgumentParser(prog="singcat")
    sub = p.add_subparsers(dest="group", required=True)

    alg = sub.add_parser("alg").add_subparsers(dest="verb", required=True)
    v = alg.add_parser("validate", parents=[common])
    v.add_argument("algebra")
    v.set_defaults(run=_cmd_alg_validate)
    b = alg.add_parser("basis", parents=[common])
    b.add_argument("algebra")
    b.set_defaults(run=_cmd_alg_basis)

    mod = sub.add_parser("mod").add_subparsers(dest="verb", required=True)
    h = mod.add_parser("hom", parents=[common])
    h.add_argument("module")
    h.add_argument("other")
    h.set_defaults(run=_cmd_mod_hom)
    e = mod.add_parser("ext", parents=[common])
    e.add_argument("module")
    e.add_argument("other")
    e.add_argument("--degree", type=_count, default=1)
    e.set_defaults(run=_cmd_mod_ext)
    r = mod.add_parser("resolve", parents=[common])
    r.add_argument("module")
    r.add_argument("--length", type=_count, default=4)
    r.set_defaults(run=_cmd_mod_resolve)
    s = mod.add_parser("syzygy", parents=[common])
    s.add_argument("module")
    s.add_argument("--steps", type=_count, default=1)
    s.set_defaults(run=_cmd_mod_syzygy)

    ct = sub.add_parser("ct").add_subparsers(dest="verb", required=True)
    cv = ct.add_parser("verify", parents=[common])
    cv.add_argument("--subcat", required=True)
    cv.add_argument("--algebra", default=None)
    cv.set_defaults(run=_cmd_ct_verify)
    cr = ct.add_parser("resolution", parents=[common])
    cr.add_argument("--subcat", required=True)
    cr.add_argument("--module", required=True)
    cr.set_defaults(run=_cmd_ct_resolution)
    ca = ct.add_parser("angle", parents=[common])
    ca.add_argument("--subcat", required=True)
    ca.add_argument("--module", required=True)
    ca.set_defaults(run=_cmd_ct_angle)

    sing = sub.add_parser("sing").add_subparsers(dest="verb", required=True)
    sk = sing.add_parser("skeleton", parents=[walks, common])
    sk.add_argument("--subcat", required=True)
    sk.add_argument("--all-shifts", action="store_true")
    sk.add_argument("--claimed", type=_count, default=None)
    sk.set_defaults(run=_cmd_sing_skeleton)
    sg = sing.add_parser("gorenstein", parents=[walks, common])
    sg.add_argument("--algebra", required=True)
    sg.set_defaults(run=_cmd_sing_gorenstein)
    gp = sing.add_parser("gp", parents=[walks, common])
    gp.add_argument("--algebra", required=True)
    gp.add_argument("--module", required=True)
    gp.set_defaults(run=_cmd_sing_gp)

    ex = sub.add_parser("example")
    ex.add_argument("name")
    ex.add_argument("--out", default=None,
                    help="write the fixtures into this directory")
    ex.add_argument("--periods", type=int, default=3)
    ex.add_argument("--field", default="rational")
    ex.set_defaults(run=_cmd_example)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed the help (code 0) or the usage and the
        # error on stderr; a usage error is malformed input
        return EXIT_INPUT if e.code else EXIT_OK
    loader = Loader(getattr(args, "length_bound", None))
    try:
        return args.run(args, loader)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalCheckFailed, ValueError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ApproximationNotEpi, ApproximationNotMono,
            FinalTermNotInSubcategory) as e:
        print(f"refuted: {e}", file=sys.stderr)
        return EXIT_REFUTED
    except OrbitNotResolved as e:
        print(f"undetermined: {e}", file=sys.stderr)
        return EXIT_UNDETERMINED
    finally:
        loader.release()


if __name__ == "__main__":
    sys.exit(main())

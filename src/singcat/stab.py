"""Shifted stable objects and the stabilized singularity model.

Objects here are pairs (module, shift) subject to the identification
(C, n) = (loop C, n - 1).  Hom spaces between pairs are filtered colimits
of stable Hom spaces along repeated syzygies, and every dimension reported
by this module is backed by a finite certificate: either the tail of the
colimit system is provably constant, or it is provably zero.  Dimensions
are never accepted just because the numbers stopped moving.

Each side's syzygy orbit is read from its ``pd_certificate``, walked one
step at a time up to the horizon once per module and horizon, so skeleton
Hom entries reuse their generators' walks.  Routes, in the order tried:

* side_vanishes: one side's syzygy orbit reaches a stably trivial module,
  so the tail of the system is identically zero; the stage is the first
  stably zero syzygy.
* orthogonal_tail: the source-side single-step orbit closes into a cycle
  on which every member has vanishing first Ext against every projective.
  For such a source, precomposition with the syzygy functor is bijective
  on stable Homs into arbitrary targets, so every transition map from the
  cycle onward is an isomorphism and the colimit equals the value there.
* zero_tail: both d-step orbits are periodic, making the dimension
  sequence along the d-step subsystem (which is cofinal) periodic past the
  larger preperiod; a single zero inside one full period then recurs
  cofinally, and a system with cofinally many zero terms has zero colimit.
* identity_end: both d-step orbits are periodic, the two sides agree as
  stable classes at the comparison stage, and every dimension in one full
  period is 1.  Syzygies of a stable isomorphism are stable isomorphisms,
  which are nonzero classes, so each transition map sends a spanning
  vector to a spanning vector and the colimit is one-dimensional.

These two read each d-step orbit off the 1-step orbit: Omega is a functor
on the stable category, so preperiod p and period L give ceil(p/d) and
L/gcd(L, d) (``homology._stride``).

Generators are sorted into stable classes, with Omega^d on them, by one
table (``_stable_classes``).  Triangles are the stabilized 1-angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exact_linalg import InternalCheckFailed
from .homology import PdCertificate, _stride, ext_dim, pd_certificate, syzygy
from .homspace import _stable_dim, stable_iso
from .quiver_algebra import BoundQuiverAlgebra, opposite_algebra
from .rep import (
    AlgebraMismatch,
    RepMorphism,
    Representation,
    _cover_maps,
    _memoised,
    injective_module,
    is_projective,
    projective_module,
    regular_module,
)
from .tilting import Angle, Check, SubcatSpec, verify_dZ_closure, verify_rigid


class OrbitNotResolved(RuntimeError):
    """A syzygy orbit left the generator list or exceeded the horizon."""

    def __init__(self, label: str, detail: str = ""):
        self.label = label
        msg = f"orbit of {label} not resolved"
        super().__init__(msg + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class StableObject:
    """A module placed at an integer shift in the stabilized category."""

    module: Representation
    shift: int

    def suspend(self) -> StableObject:
        return StableObject(self.module, self.shift - 1)

    def loop(self) -> StableObject:
        return StableObject(self.module, self.shift + 1)


@dataclass
class StabHom:
    status: str  # "certified" | "undetermined"
    dim: int | None
    route: str | None
    stage: int | None  # syzygy steps past the shift-normalized pair
    criterion_holds: bool | None  # clean-tail criterion on the source side
    horizon: int


def _ext1_clean(M: Representation) -> bool:
    """Does Ext^1(M, P) vanish for every projective P?  Memoised in M's
    record.

    Ext^1(M, -) is additive and every projective is a summand of a sum of
    copies of the regular module A_A, so this is one ``ext_dim`` against A_A.
    """
    return _memoised(M, "ext1_clean", lambda: ext_dim(
        M, regular_module(M.algebra), 1) == 0)


def _stable_classes(mods: list[Representation], d: int,
                    ) -> tuple[list[int], list[int], list[int | None]]:
    """(firsts, cls, sigma): the index in mods of the first module of each
    stable class, the class of each module, and the class of Omega^d of
    each class's first module, None when it matches no class."""
    firsts: list[int] = []

    def class_of(M: Representation) -> int | None:
        return next((c for c, i in enumerate(firsts)
                     if stable_iso(M, mods[i])), None)
    cls = []
    for i, M in enumerate(mods):
        c = class_of(M)
        if c is None:
            c = len(firsts)
            firsts.append(i)
        cls.append(c)
    return firsts, cls, [class_of(syzygy(mods[i], d)) for i in firsts]


def stab_hom(x: StableObject, y: StableObject, spec: SubcatSpec,
             horizon: int = 24) -> StabHom:
    """Certified Hom dimension between two shifted stable objects.

    Both modules must live over the spec's algebra.  The pair is first
    normalized to shift zero (applying the loop functor to both sides
    preserves Hom dimensions, and (C, n) is identified with (loop C, n-1)),
    then the routes listed in the module docstring are tried in order.  The
    horizon counts single syzygy steps.
    """
    alg = spec.algebra
    if x.module.algebra is not alg or y.module.algebra is not alg:
        raise AlgebraMismatch("stable objects live over a different algebra")
    d = spec.d
    c = max(0, -x.shift, -y.shift)
    X = syzygy(x.module, x.shift + c)
    Y = syzygy(y.module, y.shift + c)

    cx = pd_certificate(X, horizon)
    cy = cx if cx.status == "finite" else pd_certificate(Y, horizon)
    for cert in (cx, cy):
        if cert.status == "finite":
            return StabHom("certified", 0, "side_vanishes", cert.n, None,
                           horizon)

    criterion = None
    if cx.status == "infinite_periodic":
        s = cx.preperiod
        criterion = all(_ext1_clean(syzygy(X, j))
                        for j in range(s, s + cx.period))
        if criterion:
            v = _stable_dim(syzygy(X, s), syzygy(Y, s))
            return StabHom("certified", v, "orthogonal_tail", s, True,
                           horizon)

    if cx.status == cy.status == "infinite_periodic":
        (px, lx), (py, ly) = _stride(cx, d), _stride(cy, d)
        t0 = max(px, py)
        w = lcm(lx, ly)
        window = [_stable_dim(syzygy(X, j * d), syzygy(Y, j * d))
                  for j in range(t0, t0 + w)]
        if 0 in window:
            return StabHom("certified", 0, "zero_tail", t0 * d, criterion,
                           horizon)
        if all(v == 1 for v in window) and stable_iso(
                syzygy(X, t0 * d), syzygy(Y, t0 * d)):
            return StabHom("certified", 1, "identity_end", t0 * d, criterion,
                           horizon)
    return StabHom("undetermined", None, None, None, criterion, horizon)


@dataclass
class SkeletonClass:
    representative: StableObject
    cycle_labels: list[str]  # generator labels along the syzygy cycle
    orbit_length: int
    shift_period: int


@dataclass
class SkeletonReport:
    d: int
    classes: list[SkeletonClass]
    hom_matrix: list[list[int | None]]
    zero_classes: list[tuple[str, PdCertificate]]
    membership: dict[str, tuple[str, int | None]]
    identification: list[str]
    count: int
    claimed_count: int | None
    count_discrepancy: bool
    discrepancy_note: str | None
    all_shifts: bool
    horizon: int


def skeleton(spec: SubcatSpec, horizon: int = 24, all_shifts: bool = False,
             claimed_count: int | None = None) -> SkeletonReport:
    """Distinct shifted generator classes in the stabilized category.

    The caller is expected to have verified the spec first; in particular
    d-th syzygies of generators must stay inside the subcategory up to
    projectives, otherwise the orbit walk raises OrbitNotResolved.

    Generators of finite projective dimension vanish after stabilization
    and are reported as zero-classes with their certificates.  On the
    survivors the d-th syzygy acts as a function on stable classes; each
    weakly connected component of that functional graph contains exactly
    one cycle, and a cycle of length L yields L distinct classes at shifts
    0, d, ..., (L-1)d (or L*d classes when all_shifts is set, since then
    the shift residues mod d no longer collapse).  Tail generators are
    identified with shifted copies of cycle members, recorded in the
    membership map and the identification chains.

    A claimed class count (argument, or the spec's ``claimed_count``, from
    a "skeleton_count=N" tag) is compared against the computed count;
    disagreement is flagged, never reconciled silently in either direction.
    """
    if claimed_count is None:
        claimed_count = spec.claimed_count
    d = spec.d
    zero_classes: list[tuple[str, PdCertificate]] = []
    surv: list[tuple[str, Representation]] = []
    for i, g in enumerate(spec.generators):
        cert = pd_certificate(g, horizon)
        if cert.status == "finite":
            zero_classes.append((spec.label(i), cert))
        elif cert.status == "infinite_periodic":
            surv.append((spec.label(i), g))
        else:
            raise OrbitNotResolved(
                spec.label(i),
                f"projective dimension undetermined within {horizon} steps")

    # the survivors' stable classes, with the d-th syzygy on them
    firsts, cls, sigma = _stable_classes([g for _, g in surv], d)
    reps = [surv[i] for i in firsts]
    if None in sigma:
        raise OrbitNotResolved(reps[sigma.index(None)][0],
                               "d-th syzygy matches no surviving generator")

    # sigma's tails are shorter than its n classes: sigma^n has the cycles
    # as its image
    on_cycle = set(range(len(reps)))
    for _ in reps:
        on_cycle = {sigma[u] for u in on_cycle}

    cycles: list[list[int]] = []
    cycle_pos: dict[int, tuple[int, int]] = {}
    for s in sorted(on_cycle):
        if s not in cycle_pos:
            cyc = [s]
            u = sigma[s]
            while u != s:
                cyc.append(u)
                u = sigma[u]
            for pos, v in enumerate(cyc):
                cycle_pos[v] = (len(cycles), pos)
            cycles.append(cyc)

    shifts = range(d) if all_shifts else range(1)
    classes: list[SkeletonClass] = []
    class_index: dict[tuple[int, int, int], int] = {}
    for cid, cyc in enumerate(cycles):
        L = len(cyc)
        for j in range(L):
            labels = [reps[cyc[(j + t) % L]][0] for t in range(L)]
            for r in shifts:
                class_index[(cid, j, r)] = len(classes)
                classes.append(SkeletonClass(
                    StableObject(reps[cyc[j]][1], r), labels, L, d * L))

    def landing(i: int) -> tuple[int, int, int]:
        # walk a tail class to its cycle; k steps shift the class by -k*d
        k = 0
        u = i
        while u not in on_cycle:
            u = sigma[u]
            k += 1
        cid, pos = cycle_pos[u]
        L = len(cycles[cid])
        return cid, (pos - k) % L, k

    membership: dict[str, tuple[str, int | None]] = {}
    for lbl, _ in zero_classes:
        membership[lbl] = ("zero", None)
    identification: list[str] = []
    for cid, cyc in enumerate(cycles):
        L = len(cyc)
        chain = " ~ ".join(f"({reps[v][0]}, {-t * d})"
                           for t, v in enumerate(cyc + [cyc[0]]))
        identification.append(
            f"{chain}; shifts collapse mod {L * d}, giving {L} classes at "
            f"shift multiples of {d}")
    for (lbl, _), i in zip(surv, cls):
        cid, j, k = landing(i)
        membership[lbl] = ("class", class_index[(cid, j, 0)])
        if i not in on_cycle:
            land = reps[cycles[cid][(j + k) % len(cycles[cid])]][0]
            identification.append(
                f"({lbl}, 0) ~ ({land}, {-k * d}), hence in the class of "
                f"({reps[cycles[cid][j]][0]}, 0)")

    hom_matrix: list[list[int | None]] = []
    for a in classes:
        row: list[int | None] = []
        for b in classes:
            h = stab_hom(a.representative, b.representative, spec, horizon)
            row.append(h.dim if h.status == "certified" else None)
        hom_matrix.append(row)

    count = len(classes)
    discrepancy = claimed_count is not None and claimed_count != count
    note = None
    if discrepancy:
        note = (f"computed {count} classes but the input claims "
                f"{claimed_count}; identification chains: "
                + "; ".join(identification))
    return SkeletonReport(d, classes, hom_matrix, zero_classes, membership,
                          identification, count, claimed_count, discrepancy,
                          note, all_shifts, horizon)


@dataclass
class StAngle:
    objects: list[StableObject]
    maps: list[RepMorphism]
    connecting_sign: int
    k: int


def stabilize_angle(angle: Angle, k: int = 0) -> StAngle:
    """Push an exact angle into the stabilization at shift -k.

    Shifting the sequence k times multiplies all its maps by (-1)^k; the
    connecting map is recorded by its sign.
    """
    sgn = -1 if k % 2 else 1
    objects = [StableObject(T, -k) for T in angle.objects]
    if sgn == 1:
        maps = list(angle.maps)
    else:
        c = angle.objects[0].algebra.field.of_int(-1)
        maps = [m.scale(c) for m in angle.maps]
    return StAngle(objects, maps, sgn, k)


def standard_triangle(E: Representation, k: int = 0) -> StAngle:
    """The triangle Omega E -> P_E -> E of E's cover sequence
    (``rep._cover_maps``): its stabilized 1-angle at shift -k."""
    eps, inc = _cover_maps(E)
    return stabilize_angle(Angle([inc.src, eps.src, E], [inc, eps], 1), k)


@dataclass
class GorensteinReport:
    verdict: str  # "gorenstein" | "not_gorenstein" | "undetermined"
    bound: int | None
    witness: str | None
    witnesses: list[str]
    injective_pd: dict[str, PdCertificate]
    projective_copd: dict[str, PdCertificate]
    horizon: int


def is_iwanaga_gorenstein(alg: BoundQuiverAlgebra,
                          horizon: int = 24) -> GorensteinReport:
    """Self-injective-dimension report from both sides.

    The right side resolves each indecomposable injective by projectives;
    the left side resolves the dual of each indecomposable projective over
    the opposite algebra, which measures injective coresolutions.  One
    periodically infinite orbit on either side refutes the property.
    """
    verts = sorted(alg.quiver.vertices)
    injective_pd = {v: pd_certificate(injective_module(alg, v), horizon)
                    for v in verts}
    op = opposite_algebra(alg)
    projective_copd = {v: pd_certificate(injective_module(op, v), horizon)
                       for v in verts}
    witnesses = [v for side in (injective_pd, projective_copd) for v in verts
                 if side[v].status == "infinite_periodic"]
    certs = [*injective_pd.values(), *projective_copd.values()]
    verdict, bound = "undetermined", None
    if witnesses:
        verdict = "not_gorenstein"
    elif all(c.status == "finite" for c in certs):
        verdict, bound = "gorenstein", max(c.n for c in certs)
    return GorensteinReport(verdict, bound, witnesses[0] if witnesses else None,
                            witnesses, injective_pd, projective_copd, horizon)


@dataclass
class GpCertificate:
    status: str  # "gp_certified" | "not_gp" | "undetermined"
    witness: tuple[int, str] | None  # (ext degree, projective vertex)
    preperiod: int | None
    period: int | None
    horizon: int


def gp_certificate(M: Representation, horizon: int = 24) -> GpCertificate:
    """Totally-acyclic-resolvability verdict for one module.

    A nonzero Ext against a projective in any degree up to the horizon is
    a witness against the property (scan order: degree outer, sorted
    vertex inner).  Each degree is decided by ``_ext1_clean``, one
    ``ext_dim`` against the regular module; only a nonzero one scans the
    vertices, to name the first P(v).  If instead the syzygy orbit closes
    into a cycle whose members all have clean first Ext against every
    projective, the periodic resolution splices into a totally acyclic
    complex.
    """
    alg = M.algebra
    if is_projective(M):
        return GpCertificate("gp_certified", None, 0, 0, horizon)
    cert = pd_certificate(M, horizon)
    kept = (cert.n if cert.status == "finite" else horizon + 1
            if cert.status == "undetermined" else cert.preperiod + cert.period)
    verts = sorted(alg.quiver.vertices)
    for j in range(kept):
        r = syzygy(M, j)
        if _ext1_clean(r):
            continue
        for v in verts:
            if ext_dim(r, projective_module(alg, v), 1):
                return GpCertificate("not_gp", (j + 1, v), None, None,
                                     horizon)
        raise InternalCheckFailed(
            "Ext into the regular module is nonzero but vanishes on every "
            "projective")
    if cert.status == "infinite_periodic":
        return GpCertificate("gp_certified", None, cert.preperiod,
                             cert.period, horizon)
    if cert.status == "finite":
        # finite positive pd forces a nonzero Ext against the last cover,
        # so a clean scan ending in a vanishing orbit cannot happen
        raise InternalCheckFailed("vanishing orbit with clean Ext scan")
    return GpCertificate("undetermined", None, None, None, horizon)


@dataclass
class GpIntersectionReport:
    statuses: dict[str, GpCertificate]
    gp_labels: list[str]
    rigid: Check | None
    closure: Check | None
    sigma_bijective: bool | None
    gorenstein: GorensteinReport
    hypothesis: str  # "certified" | "failed" | "undetermined"


def gp_intersection_check(spec: SubcatSpec,
                          horizon: int = 24) -> GpIntersectionReport:
    """How the subcategory meets the totally-acyclic part.

    Partitions the generators by gp_certificate, re-runs rigidity and
    d-th-syzygy closure inside the certified sublist, and checks that the
    d-th syzygy permutes the sublist's nonzero stable classes.  The
    finite-resolvability hypothesis behind the intersection statement is
    reported through the Gorenstein verdict: certified when the algebra
    is Gorenstein, failed when it is refuted, undetermined otherwise.
    """
    statuses = {spec.label(i): gp_certificate(g, horizon)
                for i, g in enumerate(spec.generators)}
    gp_idx = [i for i in range(len(spec.generators))
              if statuses[spec.label(i)].status == "gp_certified"]
    gp_labels = [spec.label(i) for i in gp_idx]
    rigid = closure = None
    sigma_bijective: bool | None = None
    if gp_idx:
        sub = SubcatSpec(spec.algebra, [spec.generators[i] for i in gp_idx],
                         spec.d, labels=gp_labels)
        rigid = verify_rigid(sub)
        closure = verify_dZ_closure(sub)
        _, _, images = _stable_classes(
            [g for g in sub.generators if not is_projective(g)], spec.d)
        sigma_bijective = (None not in images
                           and sorted(images) == list(range(len(images))))
    gor = is_iwanaga_gorenstein(spec.algebra, horizon)
    hypothesis = {"gorenstein": "certified",
                  "not_gorenstein": "failed"}.get(gor.verdict, "undetermined")
    return GpIntersectionReport(statuses, gp_labels, rigid, closure,
                                sigma_bijective, gor, hypothesis)

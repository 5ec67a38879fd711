"""Projective resolutions, syzygies, ext spaces, and projectively stable hom.

Every step is ``rep._cover_step``'s: the cover, the augmentation, the
kernel with its inclusion and the projective presentation, run once per
module content and wrapped once per module, so iterated syzygies,
morphism lifts, orbit walks and Hom spaces of one module all see the
same objects.  The step keeps the augmentation as its per-vertex
matrices: syzygy maps read the matrices and the presentation's section;
only ``ProjectiveResolution``, ``ext``, ``StableHomSpace`` and
``stab.standard_triangle`` wrap them in a morphism.

Dimensions are read from Hom dimensions of one cached cover step, with no
basis and no constraint system but the presentation's (``rep.hom_dim``),
which Ext^i reads from the step of Omega^i M.  A stable Hom
dimension comes from the exact sequence 0 -> Hom(A, Omega B) ->
Hom(A, P_B) -> Hom(A, B), where P_B -> B is the cover and Omega B its
kernel.  The image of the last map is exactly the maps A -> B that factor
through a projective, so

    dim stable Hom(A, B)
        = dim Hom(A, B) - dim Hom(A, P_B) + dim Hom(A, Omega B),

with dim Hom(A, P_B) summed over the cover's summands P_v.  Ext shifts
dimension along 0 -> Omega^i M -> P_{i-1} -> Omega^{i-1} M -> 0: applying
Hom(-, N), with Ext^1(P, N) = 0 and Hom(P_v, N) = N_v, gives for i >= 1

    dim Ext^i(M, N)
        = dim Hom(Omega^i M, N) - sum_v dim N_v + dim Hom(Omega^{i-1} M, N),

v over the summands of the cover of Omega^{i-1} M (Auslander-Reiten-Smalo,
*Representation Theory of Artin Algebras*).  ``ext`` and ``stable_hom``
still build the spaces with bases for callers that need elements.

The stable category lives here, on the cached cover step.  A map M -> P
-> M through a projective P lifts its second half through the cover
eps: P_M -> M, so the endomorphisms that factor through a projective are
P(M, M) = {h then eps : h in Hom(M, P_M)} (Auslander-Reiten-Smalo, IV.1).
Like every endomorphism in a trace test, each is read at M's top
generators (``rep._composite_rows``), which fix it, and the echelon rows
of P(M, M) are memoised in M's record (``rep._Record``).
``stable_add_membership`` asks whether id_M lies in the span of the
composites M -> g -> M plus P(M, M), which is membership in add(G + A)
with no projective generator built.
``stable_iso`` decides one stable class, A + P = B + Q, by gates in this
order: modules with identical matrices match; stably zero modules (zero or
projective, ``is_projective``) form the one zero class; syzygies that
differ in dimension vector reject, since the minimal cover of a projective
is itself, with kernel zero, so Omega A = Omega B; an isomorphism
certificate accepts; different stable endomorphism dimensions reject; and
last each of A and B must lie in the stable add of the other, by the trace
test.  The verdict is sound when the non-projective parts of both inputs
are indecomposable or zero.

Stable Hom dimensions and stable-class verdicts are memoised in the
first module's record by the second's content, and the orbit certificate
per horizon (``pd_certificate``), which each walk also seeds on the orbit
members it passes; dim Hom(A, P_v) is ``rep.hom_dim``'s own memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .exact_linalg import (
    InternalCheckFailed, Matrix, _eliminate, echelon_solve, rref,
)
from .rep import (
    Cover,
    RepMorphism,
    Representation,
    _composite_rows,
    _cover_map_from_gen_images,
    _cover_step,
    _generator_row,
    _homs_into,
    _identity_in_trace,
    _iso_certificate,
    _memoised,
    _record,
    _same_algebra,
    _step_data,
    hom,
    hom_dim,
    projective_module,
)


class ProjectiveResolution:
    """A view of the cached single-step chain, walked out to a given length."""

    def __init__(self, M: Representation, length: int):
        self.module = M
        self.covers: list[Cover] = []
        self.eps: list[RepMorphism] = []
        self.kernels: list[Representation] = [M]
        self.incs: list[RepMorphism] = []
        cur = M
        for _ in range(length + 1):
            cover, mats, K, inc, _ = _cover_step(cur)
            self.covers.append(cover)
            self.eps.append(RepMorphism(cover.rep, cur, mats, check=False))
            self.incs.append(inc)
            self.kernels.append(K)
            cur = K

    def term(self, i: int) -> Representation:
        return self.covers[i].rep

    def diff(self, i: int) -> RepMorphism:
        """d_i: P_i -> P_{i-1}, for 1 <= i <= length."""
        return self.eps[i].compose(self.incs[i - 1])


def resolve(M: Representation, length: int) -> ProjectiveResolution:
    return ProjectiveResolution(M, length)


def syzygy(M: Representation, steps: int = 1) -> Representation:
    if steps < 0:
        raise ValueError("negative syzygy count")
    cur = M
    for _ in range(steps):
        cur = _cover_step(cur)[2]
    return cur


def syzygy_morphism(f: RepMorphism, steps: int = 1) -> RepMorphism:
    """The induced map on syzygies, relative to the cached covers."""
    cur = f
    for _ in range(steps):
        cur = _omega1(cur)
    return cur


def _omega1(f: RepMorphism) -> RepMorphism:
    """Omega f: each top generator g of M goes to g f in N, lifted to N's
    cover through the section of its cover map (y s eps_N = y); the cover
    map lambda of those lifts restricts to the syzygies."""
    M, N = f.src, f.tgt
    coverM, _, KM, incM, presM = _cover_step(M)
    coverN, _, KN, incN, presN = _cover_step(N)
    xs = [presN.section[v].act(f.mats[v].act(g)) for v, g in presM.gens]
    lam = _cover_map_from_gen_images(coverM, coverN.rep, xs)
    mats = {}
    for v in M.algebra.quiver.vertices:
        rhs = incM.mats[v].mul(lam.mats[v])
        sol = echelon_solve(incN.mats[v], rhs)
        if sol is None:
            raise InternalCheckFailed("lift does not preserve the kernel")
        mats[v] = sol
    return RepMorphism(KM, KN, mats, check=False)


class ExtSpace:
    """dim of Ext^i(M, N) plus a basis of the cocycles.

    For i >= 1 the cocycles are the maps P_i -> N that vanish on
    Omega^{i+1} M, one eps_i . h per basis map h: Omega^i M -> N, where
    eps_i: P_i -> Omega^i M is the cached cover; their classes span
    Ext^i(M, N).  For i = 0 they are the basis of Hom(M, N).
    """

    def __init__(self, dim: int, cocycles: list[RepMorphism]):
        self.dim = dim
        self.cocycles = cocycles


def _ext(M: Representation, N: Representation,
         i: int) -> tuple[Representation, int]:
    """(Omega^i M, dim Ext^i(M, N)), read from Hom dimensions.

    For i >= 1, from the cached cover step of Omega^{i-1} M:

        dim Hom(Omega^i M, N) - sum_v dim N_v + dim Hom(Omega^{i-1} M, N),

    v over the cover's summands.  The bounds exactness forces are checked
    with explicit raises: dim Hom(Omega^{i-1} M, N) <= sum_v dim N_v, and
    0 <= result <= dim Hom(Omega^i M, N); a violation is InternalCheckFailed.
    """
    _same_algebra(M, N)
    if i < 0:
        raise ValueError("negative ext degree")
    if i == 0:
        return M, hom_dim(M, N)
    prev = syzygy(M, i - 1)
    cover, _, K, _, _ = _cover_step(prev)
    hk = hom_dim(K, N)
    hp = sum(N.dims[v] for v in cover.vertices)
    h = hom_dim(prev, N)
    if h > hp:
        raise InternalCheckFailed("Hom out of the syzygy exceeds Hom out of the cover")
    d = hk - hp + h
    if not 0 <= d <= hk:
        raise InternalCheckFailed("Ext dimension out of range")
    return K, d


def ext(M: Representation, N: Representation, i: int) -> ExtSpace:
    K, dim = _ext(M, N, i)
    basis = hom(K, N).basis
    if i == 0:
        return ExtSpace(dim, basis)
    cover, eps, _, _, _ = _cover_step(K)
    eps_i = RepMorphism(cover.rep, K, eps, check=False)
    return ExtSpace(dim, [eps_i.compose(h) for h in basis])


def ext_dim(M: Representation, N: Representation, i: int) -> int:
    """dim Ext^i(M, N), read from Hom dimensions by dimension shifting.

    Equal to ``ext(M, N, i).dim``, but builds no cocycle.
    """
    return _ext(M, N, i)[1]


class StableHomSpace:
    """Hom(M, N) modulo maps factoring through a projective.

    A map factors through some projective iff it factors through the cover
    of N, so the projective subspace is the image of composition with the
    cover's augmentation, read in the coordinates of ``hom(M, N)`` at M's
    top generators.  Quotient coordinates are read off the non-pivot
    positions of that subspace's row echelon form.
    """

    def __init__(self, M: Representation, N: Representation):
        alg = _same_algebra(M, N)
        fld = alg.field
        self.hom = hom(M, N)
        coverN, eps, _, _, _ = _cover_step(N)
        hp = hom(M, coverN.rep)
        bmat = self.hom._bmat
        # h then eps sends the generator m_j to eps(h(m_j))
        comps = Matrix.from_rows(
            fld, [[y for v, x in hp._images(vec) for y in eps[v].act(x)]
                  for vec in hp.vecs], bmat.cols)
        sol = echelon_solve(bmat, comps)
        if sol is None:
            raise InternalCheckFailed("composite with the cover is outside Hom")
        red, piv = rref(sol)
        self._field = fld
        self._red = Matrix.from_rows(fld, red.entries[:len(piv)], bmat.rows)
        self._piv = piv
        pivset = set(piv)
        self._nonpiv = [j for j in range(self.hom.dim) if j not in pivset]

    @property
    def dim(self) -> int:
        return len(self._nonpiv)

    def coords_mod(self, f: RepMorphism) -> tuple:
        fld = self._field
        c = self.hom.coords(f)
        proj = self._red.act([c[p] for p in self._piv])
        c = [fld.sub(a, b) for a, b in zip(c, proj)]
        if any(c[p] for p in self._piv):
            raise InternalCheckFailed("coordinates not reduced at a pivot")
        return tuple(c[q] for q in self._nonpiv)

    def class_rep(self, qcoords) -> RepMorphism:
        coeffs = [self._field.zero] * self.hom.dim
        for q, val in zip(self._nonpiv, qcoords):
            coeffs[q] = val
        return self.hom.element(coeffs)

    def basis_classes(self) -> list[RepMorphism]:
        return [self.hom.basis[q] for q in self._nonpiv]


def stable_hom(M: Representation, N: Representation) -> StableHomSpace:
    return StableHomSpace(M, N)


def _stable_dim_from_ranks(A: Representation, B: Representation) -> int:
    cover, _, K, _, _ = _cover_step(B)
    h = hom_dim(A, B)
    hp = sum(hom_dim(A, projective_module(A.algebra, v))
             for v in cover.vertices)
    hk = hom_dim(A, K)
    if hk > hp:
        raise InternalCheckFailed("Hom into the syzygy exceeds Hom into the cover")
    d = h - hp + hk
    if not 0 <= d <= h:
        raise InternalCheckFailed("stable Hom dimension out of range")
    return d


def _stable_dim(A: Representation, B: Representation) -> int:
    """dim of stable Hom(A, B), memoised in A's record by B's content.

    Read from the exact sequence 0 -> Hom(A, Omega B) -> Hom(A, P_B) ->
    Hom(A, B) of B's cached cover step, whose last map has as image the
    maps that factor through a projective:

        dim Hom(A, B) - sum_v dim Hom(A, P_v) + dim Hom(A, Omega B),

    v over the cover's summands.  The bounds exactness forces are checked
    with explicit raises: dim Hom(A, Omega B) <= dim Hom(A, P_B), and
    0 <= result <= dim Hom(A, B); a violation is InternalCheckFailed.
    """
    _same_algebra(A, B)
    return _memoised(A, ("stable", _record(B).content),
                     _stable_dim_from_ranks, A, B)


def stable_end_dim(M: Representation) -> int:
    """dim of the stable endomorphism space of M.

    The diagonal of the stable-dimension memo, so it is computed once per
    module and shared with every stable Hom dimension asked of (M, M).
    """
    return _stable_dim(M, M)


def is_projective(M: Representation) -> bool:
    """Zero or projective, that is, stably zero.

    The minimal cover sum_v P(v) -> M, one P(v) per top generator at v, is
    onto, so it is an isomorphism exactly when its kernel Omega M is zero.
    Omega M's dimension vector is read from the cover step's data in M's
    record (``rep._step_data``), so no cover, syzygy or inclusion is
    wrapped.
    """
    return M.total_dim == 0 or not any(_step_data(M)[2].values())


def _projective_end_rows(M: Representation) -> list[dict]:
    """Echelon rows spanning P(M, M) = {h then eps : h in Hom(M, P_M)},
    each map read at M's top generators (``rep._composite_rows``), with h
    taken from its Hom vector and no map built.  Memoised in M's record as
    plain {column: scalar} dicts."""
    memo = _record(M).memo
    rows = memo.get("proj_end")
    if rows is None:
        cover, eps = _cover_step(M)[:2]
        rows = _composite_rows(hom(M, cover.rep), [eps])
        rows = memo["proj_end"] = rows[:len(_eliminate(
            M.algebra.field, rows, _generator_row(M)[1]))]
    return rows


def stable_add_membership(M: Representation,
                          gens: Sequence[Representation]) -> bool:
    """Is M in add(G + A), that is, in add G in the stable category?

    The answer of ``rep.add_membership(M, gens + projectives)``, with no
    projective generator built.  An isomorphism to one generator settles it
    first (``rep._homs_into``); otherwise id_M must lie in the span of the
    composites M -> g -> M plus P(M, M) (``_projective_end_rows``).  There
    is no per-vertex rank pre-check: with the projectives among the
    generators it never fails, as every x in M_v is the image of a map
    P(v) -> M.
    """
    if M.total_dim == 0:
        return True
    _same_algebra(M, *gens)
    into = _homs_into(M, gens)
    if into is None:
        return True
    return _identity_in_trace(
        M, [(hom(M, g), H.basis) for g, H in into if H.dim],
        _projective_end_rows(M))


def stable_iso(A: Representation, B: Representation) -> bool:
    """Do A and B lie in one stable class?  Memoised in A's record by B's
    content.

    The gates run in the order of the module docstring.  The isomorphism
    certificate is one B -> A; hom(B, A), if it did not build it, comes
    next, and hom(A, B) only when that is nonzero (else A, which is not
    projective, matches nothing), each Hom space serving both trace tests:
    its vectors as the first map of one test's composites, its basis maps
    as the second map of the other's.
    """
    _same_algebra(A, B)
    if A is B or A.dims == B.dims and A.action == B.action:
        return True
    return _memoised(A, ("match", _record(B).content),
                     _stably_isomorphic, A, B)


def _stably_isomorphic(A: Representation, B: Representation) -> bool:
    za, zb = is_projective(A), is_projective(B)
    if za or zb:
        return za and zb
    if _cover_step(A)[2].dims != _cover_step(B)[2].dims:
        return False
    iso, ba = _iso_certificate(B, A)
    if iso:
        return True
    if stable_end_dim(A) != stable_end_dim(B):
        return False
    if ba is None:
        ba = hom(B, A)
    if not ba.dim:
        # A is not projective, so id_A factors through no projective
        return False
    ab = hom(A, B)
    return (_identity_in_trace(A, [(ab, ba.basis)], _projective_end_rows(A))
            and _identity_in_trace(B, [(ba, ab.basis)],
                                   _projective_end_rows(B)))


@dataclass(frozen=True)
class PdCertificate:
    status: str  # "finite" | "infinite_periodic" | "undetermined"
    n: int | None = None
    preperiod: int | None = None
    period: int | None = None
    horizon: int | None = None


def pd_certificate(M: Representation, horizon: int = 24) -> PdCertificate:
    """Projective dimension, certified finite or periodically infinite.

    Walks the syzygy orbit one step at a time, at most ``horizon`` steps.
    The first stably zero Omega^n M is projective, so pd M = n; when
    Omega^(p+L) M is the first to match an earlier class, Omega^p M's, the
    orbit revisits a nonvanishing stable class, which certifies infinite
    projective dimension.  The walk keeps Omega^j M for j below n, p + L
    or horizon + 1: the instances ``syzygy(M, j)`` returns.  Memoised in
    M's record per horizon.
    """
    return _memoised(M, ("pd", horizon), _walk_orbit, M, horizon)


def _walk_orbit(M: Representation, horizon: int) -> PdCertificate:
    """M's orbit certificate, seeding that of each Omega^r M it passes.

    Omega^r M, r >= 1, walks the same orbit from r steps on: pd n - r in the
    finite case, and preperiod max(p - r, 0) with the same period L in the
    periodic one.  An entry already in a member's memo is kept; an
    undetermined walk seeds nothing.  A member of M's own content gets the
    certificate M's walk returns.
    """
    if is_projective(M):
        return PdCertificate("finite", 0)
    orbit = [M]
    for taken in range(1, horizon + 1):
        cur = _cover_step(orbit[-1])[2]
        orbit.append(cur)
        if is_projective(cur):
            for r in range(1, taken + 1):
                _seed(orbit[r], horizon, PdCertificate("finite", taken - r))
            return PdCertificate("finite", taken)
        for t in range(taken):
            if stable_iso(orbit[t], cur):
                period = taken - t
                for r in range(1, taken + 1):
                    _seed(orbit[r], horizon, PdCertificate(
                        "infinite_periodic", None, max(t - r, 0), period))
                return PdCertificate("infinite_periodic", None, t, period)
    return PdCertificate("undetermined", horizon=horizon)


def _seed(M: Representation, horizon: int, cert: PdCertificate) -> None:
    _record(M).memo.setdefault(("pd", horizon), cert)


def _stride(cert: PdCertificate, d: int) -> tuple[int, int]:
    """(preperiod, period) of the d-step orbit of a periodic certificate:
    Omega acts on stable classes, so they are ceil(p/d) and L/gcd(L, d)."""
    p, L = cert.preperiod, cert.period
    return -(-p // d), L // gcd(L, d)

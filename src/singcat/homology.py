"""Projective resolutions, syzygies, syzygy maps, ext spaces and orbits.

Every step is ``rep``'s cover step (``rep.Step``): the cover, the
augmentation with its section, the kernel with its inclusion and the
projective presentation, run once per module content.  Each module keeps
its own cover and syzygy (``rep._cover_step``), so iterated syzygies,
morphism lifts, orbit walks and Hom spaces of one module all see the
same objects.  Syzygies, syzygy maps, Ext dimensions and orbit walks read
the step's matrices and build no morphism; only ``ProjectiveResolution``,
``ext``, ``homspace._cover_composites``, ``rep.projective_cover`` and
``stab.standard_triangle`` ask for the augmentation and inclusion
morphisms (``rep._cover_maps``).

Ext dimensions are read from Hom dimensions of one cached cover step, with
no basis and no constraint system but the presentation's
(``homspace.hom_dim``), which Ext^i reads from the step of Omega^i M.
Ext shifts dimension along 0 -> Omega^i M -> P_{i-1} -> Omega^{i-1} M ->
0: applying Hom(-, N), with Ext^1(P, N) = 0 and Hom(P_v, N) = N_v, gives
for i >= 1

    dim Ext^i(M, N)
        = dim Hom(Omega^i M, N) - sum_v dim N_v + dim Hom(Omega^{i-1} M, N),

v over the summands of the cover of Omega^{i-1} M (Auslander-Reiten-Smalo,
*Representation Theory of Artin Algebras*).  ``ext`` still builds the
space with a basis for callers that need elements.

The orbit certificate (``pd_certificate``) walks a syzygy orbit and asks
``homspace.stable_iso`` whether it closed.  It is memoised in the
module's record per horizon, and each walk also seeds it on the orbit
members it passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact_linalg import InternalCheckFailed, echelon_solve
from .rep import (
    Cover, RepMorphism, Representation, _cover_maps, _cover_step,
    _gen_image_mats, _memoised, _same_algebra, _step, is_projective,
)
from .homspace import hom, hom_dim, stable_iso


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
            eps, inc = _cover_maps(cur)
            self.covers.append(_cover_step(cur)[0])
            self.eps.append(eps)
            self.incs.append(inc)
            cur = inc.src
            self.kernels.append(cur)

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
        cur = _cover_step(cur)[1]
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
    sM, sN = _step(M), _step(N)
    coverN, KN = _cover_step(N)
    xs = [sN.section[v].act(f.mats[v].act(g)) for v, g in sM.gens]
    lam = _gen_image_mats(M.algebra, sM.vertices, coverN.rep, xs)
    mats = {}
    for v in M.algebra.quiver.vertices:
        sol = echelon_solve(sN.inc[v], sM.inc[v].mul(lam[v]))
        if sol is None:
            raise InternalCheckFailed("lift does not preserve the kernel")
        mats[v] = sol
    return RepMorphism(_cover_step(M)[1], KN, mats, check=False)


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
    K = _cover_step(prev)[1]
    hk = hom_dim(K, N)
    hp = sum(N.dims[v] for v in _step(prev).vertices)
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
    eps_i = _cover_maps(K)[0]
    return ExtSpace(dim, [eps_i.compose(h) for h in basis])


def ext_dim(M: Representation, N: Representation, i: int) -> int:
    """dim Ext^i(M, N), read from Hom dimensions by dimension shifting.

    Equal to ``ext(M, N, i).dim``, but builds no cocycle.
    """
    return _ext(M, N, i)[1]


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
        cur = _cover_step(orbit[-1])[1]
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
    _memoised(M, ("pd", horizon), lambda: cert)


def _stride(cert: PdCertificate, d: int) -> tuple[int, int]:
    """(preperiod, period) of the d-step orbit of a periodic certificate:
    Omega acts on stable classes, so they are ceil(p/d) and L/gcd(L, d)."""
    p, L = cert.preperiod, cert.period
    return -(-p // d), L // gcd(L, d)

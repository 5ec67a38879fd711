"""The bulk scans against their pair-by-pair forms, across fields.

Generation is decided from the projectives, cogeneration from the
injectives, Ext-vanishing against a list from one ``ext_dim`` against its
direct sum, projectivity from the minimal cover, and "L is a copy of P(v)"
from the top.  Each is compared here with the form it replaced, on random
generator subsets of kx2, hereditary A2, the Jordan modules of k[x]/(x^4)
and the a2-tilde-3233 intervals, over Q, F_2 and F_101.

Stable add-membership (``stable_iso`` and ``verify_dZ_closure``) reads the
maps through the projectives from the cached cover; it is compared with
``add_membership`` against the projectives as generators, on the Jordan
modules and the intervals, their syzygies, the projectives, the zero module
and sums of two, inside and outside the soundness precondition of
``stable_iso``.

``stable_iso`` rejects by syzygy dimension vectors and stable endomorphism
dimensions before its trace tests; it is compared with the gate it
replaced (equal stable endomorphism dimensions and nonzero stable Hom both
ways, then add-membership against the projectives) on the same modules and
on a one-parameter family over k<x, y>/(x, y)^2 that every dimension
agrees on, each alone or with a projective summand added.  It tries an
explicit isomorphism first; on Jordan modules and Nakayama uniserials in
random monomial bases, alone or plus a projective (where no isomorphism
exists and the trace test decides), it is compared with add-membership
against the projectives.

The left approximations and d-coresolutions are computed as the duals of
right ones over A^op; they are compared with the column join of the Hom
bases over A and its cokernel walk, on the simples, projectives and
syzygies of cyclic Nakayama algebras and on the a2-tilde-3233 intervals:
the same target module, components that form a basis of each Hom(N, g),
and coresolution terms with the same dimension vectors or the same
refusal.

Ext is read from Hom dimensions of one cover step by dimension shifting;
it is compared with ker d_{i+1}* / im d_i* of the dual differentials, in
degrees 0..4 on the Jordan modules and the intervals, their syzygies, the
projectives, the zero module and sums of two.  The cocycles are checked
to be independent, closed and dim Hom(Omega^i M, N) in number.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcat.exact_linalg import Matrix, prime_field, rank, rational_field
from singcat import homspace
from singcat.families import nakayama2_tilde
from singcat.homology import ext, ext_dim, resolve, syzygy
from singcat.homspace import hom, hom_dim, is_isomorphic, stable_iso
from singcat.quiver_algebra import (
    Arrow, PathWord, Quiver, RelationElement, compute_basis, nakayama_cyclic,
    opposite_algebra,
)
from singcat.rep import (
    RepMorphism,
    Representation,
    cokernel,
    direct_sum,
    dual_module,
    injective_mod_socle,
    injective_module,
    injectives,
    is_projective,
    projective_module,
    projective_radical,
    projectives,
    regular_module,
    simple_module,
    zero_rep,
)
from singcat.stab import gp_certificate
from singcat.tilting import (
    ApproximationNotMono, FinalTermNotInSubcategory, SubcatSpec,
    _is_copy_of_projective, _is_exact, d_coresolution, left_approximation,
    verify_dZ_closure, verify_gen_cogen, verify_rigid,
)

from builders import jordan_module, uniserial
from pairwise_reference import (
    d_coresolution_walk,
    ext_dim_by_dual_differentials,
    gp_certificate_pairwise,
    hom_dim_full,
    is_projective_by_add_membership,
    left_approximation_columns,
    matches_stably_by_dimensions,
    morphism_to_vec,
    stable_iso_by_add_membership,
    verify_dZ_closure_pairwise,
    verify_gen_cogen_pairwise,
    verify_rigid_pairwise,
)

FIELDS = {"Q": None, "F2": 2, "F101": 101}
FAMILIES = ("kx2", "hereditary-a2", "jordan", "a2-tilde")


def _field(name):
    p = FIELDS[name]
    return rational_field() if p is None else prime_field(p)


@lru_cache(maxsize=None)
def pool(family: str, field: str) -> tuple:
    """(algebra, labelled indecomposables) of one family over one field."""
    fld = _field(field)
    if family == "kx2":
        alg = nakayama_cyclic((2,), fld)
        mods = [("S", simple_module(alg, "0")),
                ("P", projective_module(alg, "0"))]
    elif family == "hereditary-a2":
        alg = compute_basis(Quiver(["u", "v"], [Arrow("a", "u", "v")]), [],
                            fld, 3)
        mods = [("Su", simple_module(alg, "u")),
                ("Sv", simple_module(alg, "v")),
                ("Pu", projective_module(alg, "u"))]
    elif family == "two-loops":
        # k<x, y>/(x, y)^2 and its modules M(c) = k^2 with x, y acting as
        # c = (s, t) times one nilpotent block: pairwise non-isomorphic for
        # non-proportional c, with equal dimension vectors, syzygies and
        # stable endomorphism dimensions
        q = Quiver(["0"], [Arrow("x", "0", "0"), Arrow("y", "0", "0")])
        alg = compute_basis(q, [RelationElement([(fld.one, PathWord(q, "0", w))])
                                for w in ("xx", "xy", "yx", "yy")], fld, 3)
        cs = [(1, 0), (0, 1), (1, 1)] + ([(1, 2)] if fld.p != 2 else [])
        mods = [(f"M{s},{t}", Representation(alg, {"0": 2}, {
            "x": Matrix.from_rows(fld, [[fld.zero, fld.of_int(s)],
                                        [fld.zero, fld.zero]], 2),
            "y": Matrix.from_rows(fld, [[fld.zero, fld.of_int(t)],
                                        [fld.zero, fld.zero]], 2)}))
                for s, t in cs]
    elif family == "jordan":
        alg = nakayama_cyclic((4,), fld)
        mods = [(f"J{i}", jordan_module(alg, i)) for i in range(1, 5)]
    else:
        alg, spec = nakayama2_tilde((3, 2, 3, 3), 4, fld)
        mods = list(zip(spec.labels, spec.generators))
    return alg, tuple(mods)


@st.composite
def specs(draw):
    """A spec on a random nonempty generator subset, d in 1..3."""
    alg, mods = pool(draw(st.sampled_from(FAMILIES)),
                     draw(st.sampled_from(sorted(FIELDS))))
    idx = draw(st.lists(st.integers(0, len(mods) - 1), min_size=1,
                        max_size=min(len(mods), 8), unique=True))
    return SubcatSpec(alg, [mods[i][1] for i in idx], draw(st.integers(1, 3)),
                      labels=[mods[i][0] for i in idx])


pools = st.builds(pool, st.sampled_from(FAMILIES),
                  st.sampled_from(sorted(FIELDS)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ext_into_a_direct_sum_is_the_sum_of_exts(data):
    alg, mods = data.draw(pools)
    ms = [m for _, m in mods]
    M = data.draw(st.sampled_from(ms))
    Xs = data.draw(st.lists(st.sampled_from(ms), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        Xs.append(projective_module(alg, data.draw(
            st.sampled_from(alg.quiver.vertices))))
    t = data.draw(st.integers(1, 3))
    assert ext_dim(M, direct_sum(Xs), t) == sum(ext_dim(M, X, t) for X in Xs)


@settings(max_examples=40, deadline=None)
@given(specs())
def test_rigidity_matches_the_pairwise_scan(spec):
    assert verify_rigid(spec) == verify_rigid_pairwise(spec)


@settings(max_examples=40, deadline=None)
@given(specs())
def test_generation_and_cogeneration_match_the_full_scan(spec):
    assert verify_gen_cogen(spec) == verify_gen_cogen_pairwise(spec)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gp_certificate_matches_the_pairwise_scan(data):
    alg, mods = data.draw(pools)
    M = data.draw(st.sampled_from([m for _, m in mods]))
    assert gp_certificate(M, 12) == gp_certificate_pairwise(M, 12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_projective_matches_add_membership(data):
    alg, mods = data.draw(pools)
    pieces = data.draw(st.lists(st.sampled_from(
        [m for _, m in mods] + [p for _, p in projectives(alg)]), max_size=3))
    M = direct_sum(pieces) if pieces else zero_rep(alg)
    assert is_projective(M) == is_projective_by_add_membership(M)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_regular_module_is_the_sum_of_the_projectives(field):
    alg, _ = pool("a2-tilde", field)
    A = regular_module(alg)
    assert A.total_dim == alg.dimension
    assert is_projective(A)
    assert regular_module(alg).action == A.action
    alg.clear_cache()
    assert "regular" not in alg.cache
    assert regular_module(alg).dims == A.dims


def test_a_failing_projective_is_named_before_a_failing_injective():
    # over the self-injective k[x]/(x^2), P(0) = I(0) fails to embed in
    # add S; the projective comes first in the reported order
    alg, mods = pool("kx2", "Q")
    spec = SubcatSpec(alg, [dict(mods)["S"]], 1, labels=["S"])
    checks = verify_gen_cogen(spec)
    assert checks["cogenerating"].witness == "P(0)"
    assert checks == verify_gen_cogen_pairwise(spec)


@st.composite
def summed_specs(draw):
    """A spec of one to six generators, each a direct sum of one or two
    pool modules, projectives or injectives, d in 1..3."""
    alg, mods = pool(draw(st.sampled_from(FAMILIES + ("two-loops",))),
                     draw(st.sampled_from(sorted(FIELDS))))
    pieces = ([m for _, m in mods] + [p for _, p in projectives(alg)]
              + [i for _, i in injectives(alg)])
    gens = draw(st.lists(st.lists(st.sampled_from(pieces), min_size=1,
                                  max_size=2).map(direct_sum),
                         min_size=1, max_size=6))
    return SubcatSpec(alg, gens, draw(st.integers(1, 3)))


@settings(max_examples=80, deadline=None)
@given(summed_specs())
def test_generation_and_cogeneration_of_sums_match_the_full_scan(spec):
    """The Hom-dimension criterion against the approximations of every
    P(v), I(v) and S(v), for decomposable generators: verdict, witness
    and note."""
    assert verify_gen_cogen(spec) == verify_gen_cogen_pairwise(spec)


def _socle_quotient(I, v):
    """I/soc I as the cokernel of the one map S(v) -> I, up to scalars."""
    (f,) = hom(simple_module(I.algebra, v), I).basis
    return cokernel(f)[0]


@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("family", FAMILIES + ("two-loops",))
def test_radical_builders_match_syzygy_and_cokernel(family, field, opposite):
    """rad P(v) is Omega S(v) and I(v)/soc the cokernel of S(v) -> I(v):
    the relations hold, the dimension vector is P(v) or I(v) minus e_v,
    and Hom dimensions into and out of every pool module, projective and
    injective agree, over A and over A^op (on the duals of the pool), over
    every field."""
    alg, mods = pool(family, field)
    ms = [m for _, m in mods]
    if opposite:
        alg = opposite_algebra(alg)
        ms = [dual_module(alg, m) for m in ms]
    ms += [p for _, p in projectives(alg)] + [i for _, i in injectives(alg)]
    for v in alg.quiver.vertices:
        P, I = projective_module(alg, v), injective_module(alg, v)
        for built, whole, ref in (
                (projective_radical(alg, v), P, syzygy(simple_module(alg, v))),
                (injective_mod_socle(alg, v), I, _socle_quotient(I, v))):
            Representation(alg, built.dims, built.action, check=True)
            assert built.dims == {w: n - (w == v)
                                  for w, n in whole.dims.items()}
            for M in ms:
                assert hom_dim(built, M) == hom_dim(ref, M)
                assert hom_dim(M, built) == hom_dim(M, ref)


def _copy_candidates(family, field, n):
    """(algebra, modules): the pool, plus sums with the dimension vector of
    a projective that are not copies of it, plus the injectives."""
    if family == "jordan":
        alg = nakayama_cyclic((n,), _field(field))
        cands = [jordan_module(alg, i) for i in range(1, n + 1)]
        cands += [direct_sum([jordan_module(alg, i), jordan_module(alg, n - i)])
                  for i in range(1, n)]
        return alg, cands
    alg, mods = pool(family, field)
    cands = [m for _, m in mods]
    cands += [direct_sum([m, m]) for m in cands if m.total_dim == 1]
    cands += [injective_module(alg, v) for v in alg.quiver.vertices]
    return alg, cands


@pytest.mark.parametrize("family, n", [("kx2", None), ("hereditary-a2", None),
                                       ("jordan", 2), ("jordan", 3),
                                       ("jordan", 5)])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_projective_copy_test_agrees_with_is_isomorphic(family, n, field):
    alg, cands = _copy_candidates(family, field, n)
    for v, p in projectives(alg):
        for L in cands:
            assert _is_copy_of_projective(L, v, p) == is_isomorphic(L, p)


# ---------------------------------------------------------------------------
# stable add-membership against add_membership with projective generators

STABLE_FAMILIES = ("jordan", "a2-tilde")


@lru_cache(maxsize=None)
def stable_pool(family: str, field: str) -> tuple:
    """(algebra, pieces, projectives): the pool's modules and their first
    syzygies (the zero module among them, as Omega of a projective), and
    the projectives."""
    alg, mods = pool(family, field)
    ms = [m for _, m in mods]
    return (alg, tuple(ms + [syzygy(m) for m in ms]),
            tuple(p for _, p in projectives(alg)))


def _sum(alg, pieces):
    return direct_sum(pieces) if pieces else zero_rep(alg)


@st.composite
def stable_pairs(draw):
    """(M, N): sums of up to two pieces or projectives; N is drawn on its
    own or is M's pieces reversed, plus up to one projective."""
    alg, pieces, projs = stable_pool(draw(st.sampled_from(STABLE_FAMILIES)),
                                     draw(st.sampled_from(sorted(FIELDS))))
    parts = st.lists(st.sampled_from(pieces + projs), max_size=2)
    ms = draw(parts)
    if draw(st.booleans()):
        ns = draw(parts)
    else:
        ns = ms[::-1] + draw(st.lists(st.sampled_from(projs), max_size=1))
    return _sum(alg, ms), _sum(alg, ns)


@settings(max_examples=80, deadline=None)
@given(stable_pairs())
def test_stable_iso_matches_add_membership(pair):
    M, N = pair
    assert stable_iso(M, N) == stable_iso_by_add_membership(M, N)


@st.composite
def closure_specs(draw):
    """A spec of one to four generators, each a nonzero sum of up to two
    pieces or projectives, d in 1..3; most are refuted."""
    alg, pieces, projs = stable_pool(draw(st.sampled_from(STABLE_FAMILIES)),
                                     draw(st.sampled_from(sorted(FIELDS))))
    nonzero = [m for m in pieces + projs if m.total_dim]
    gens = draw(st.lists(st.lists(st.sampled_from(nonzero), min_size=1,
                                  max_size=2).map(direct_sum),
                         min_size=1, max_size=4))
    return SubcatSpec(alg, gens, draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(closure_specs())
def test_dZ_closure_matches_add_membership(spec):
    assert verify_dZ_closure(spec) == verify_dZ_closure_pairwise(spec)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_stable_membership_agrees_on_every_jordan_case(field):
    """Every pair of Jordan modules of k[x]/(x^4), syzygies, the projective,
    zero and two sums; every generator subset of the Jordan modules with
    d in 1..3.  Both answers occur on both sides."""
    alg, pieces, projs = stable_pool("jordan", field)
    J = pieces[:4]
    mods = list(pieces + projs) + [direct_sum([J[0], J[2]]),
                                   direct_sum([J[1], projs[0]])]
    seen = set()
    for M in mods:
        for N in mods:
            got = stable_iso(M, N)
            assert got == stable_iso_by_add_membership(M, N)
            seen.add(got)
    assert seen == {True, False}
    seen = set()
    for mask in range(1, 16):
        gens = [J[i] for i in range(4) if mask >> i & 1]
        for d in (1, 2, 3):
            spec = SubcatSpec(alg, gens, d)
            got = verify_dZ_closure(spec)
            assert got == verify_dZ_closure_pairwise(spec)
            seen.add(got.ok)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the stable-class gates against the ones they replaced

CLASS_FAMILIES = STABLE_FAMILIES + ("two-loops",)


def _check_stable_match(A, B):
    got = stable_iso(A, B)
    assert got == matches_stably_by_dimensions(A, B)
    if got:
        assert syzygy(A).dims == syzygy(B).dims
    return got


def _with_projective(M, P):
    return M if P is None else direct_sum([M, P])


@st.composite
def stable_class_pairs(draw):
    """(A, B): nonzero stable classes of the stable pool, B half the time
    A's own piece, each side with up to one projective summand added."""
    alg, pieces, projs = stable_pool(draw(st.sampled_from(CLASS_FAMILIES)),
                                     draw(st.sampled_from(sorted(FIELDS))))
    nonzero = [m for m in pieces if not is_projective(m)]
    a = draw(st.sampled_from(nonzero))
    b = a if draw(st.booleans()) else draw(st.sampled_from(nonzero))
    extra = st.one_of(st.none(), st.sampled_from(projs))
    return _with_projective(a, draw(extra)), _with_projective(b, draw(extra))


@settings(max_examples=80, deadline=None)
@given(stable_class_pairs())
def test_stable_class_gate_matches_the_dimension_gate(pair):
    _check_stable_match(*pair)


@pytest.mark.parametrize("family", ["jordan", "two-loops"])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_stable_class_gate_agrees_on_every_case(family, field):
    """Every pair among the nonzero classes of one pool and their syzygies,
    each alone and plus P(0); both answers occur, and M + P(0) matches M
    although the dimensions differ."""
    alg, pieces, projs = stable_pool(family, field)
    nonzero = [m for m in pieces if not is_projective(m)]
    mods = nonzero + [direct_sum([m, projs[0]]) for m in nonzero]
    seen = {_check_stable_match(A, B) for A in mods for B in mods}
    assert seen == {True, False}
    for m in nonzero:
        assert stable_iso(direct_sum([m, projs[0]]), m)


# ---------------------------------------------------------------------------
# isomorphism-first stable classes against add-membership

SCALARS = (1, -1, 2, -2, 3, -3)


def twisted(M, rng):
    """M in a monomial basis: at each vertex a permutation times nonzero
    scalars, so entry (r, c) of an arrow u -> w becomes
    s_u[r] / s_w[c] * A[p_u(r)][p_w(c)]."""
    f = M.algebra.field
    perm = {v: rng.sample(range(d), d) for v, d in M.dims.items()}
    scal = {v: [f.of_int(rng.choice(SCALARS)) for _ in range(d)]
            for v, d in M.dims.items()}
    action = {}
    for a in M.algebra.quiver.arrows:
        (pu, su), (pw, sw) = (perm[a.src], scal[a.src]), (perm[a.tgt],
                                                          scal[a.tgt])
        A = M.action[a.id].entries
        action[a.id] = Matrix.from_rows(f, [
            [f.div(f.mul(su[r], A[pu[r]][pw[c]]), sw[c])
             for c in range(len(pw))] for r in range(len(pu))], len(pw))
    return Representation(M.algebra, M.dims, action)


@lru_cache(maxsize=None)
def iso_pool(family: str, field: str) -> tuple:
    """(algebra, nonzero indecomposables, projectives): the Jordan modules
    of k[x]/(x^5), or the uniserials of Nakayama (2, 3, 3), and their
    nonzero first syzygies."""
    fld = _field(field)
    if family == "jordan":
        alg = nakayama_cyclic((5,), fld)
        mods = [jordan_module(alg, i) for i in range(1, 6)]
    else:
        ks = (2, 3, 3)
        alg = nakayama_cyclic(ks, fld)
        mods = [uniserial(alg, i, l) for i, k in enumerate(ks)
                for l in range(1, k + 1)]
    mods += [K for K in map(syzygy, mods) if K.total_dim]
    return alg, tuple(mods), tuple(p for _, p in projectives(alg))


@st.composite
def iso_pairs(draw):
    """(A, B): two pool modules, B half the time A's own, each in a random
    monomial basis or not, A plus a projective summand a third of the
    time."""
    alg, mods, projs = iso_pool(draw(st.sampled_from(["jordan", "uniserial"])),
                                draw(st.sampled_from(["Q", "F101"])))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    a = draw(st.sampled_from(mods))
    b = a if draw(st.booleans()) else draw(st.sampled_from(mods))
    A, B = (twisted(m, rng) if draw(st.booleans()) else m for m in (a, b))
    if draw(st.integers(0, 2)) == 0:
        A = direct_sum([A, draw(st.sampled_from(projs))])
    return A, B


@settings(max_examples=80, deadline=None)
@given(iso_pairs())
def test_isomorphism_first_stable_classes_match_add_membership(pair):
    A, B = pair
    want = stable_iso_by_add_membership(A, B)
    assert stable_iso(A, B) == want


@pytest.mark.parametrize("family", ["jordan", "uniserial"])
@pytest.mark.parametrize("field", ["Q", "F101"])
def test_a_projective_summand_leaves_the_trace_test_to_decide(
        family, field, monkeypatch):
    """M + P against M in another basis: no isomorphism exists, so the
    trace test runs, and the pair is a stable match.  A pair of contents
    met before, in an earlier test or as the syzygy of a pool module, is
    answered from its record, so the records go before each pair."""
    alg, mods, projs = iso_pool(family, field)
    rng = random.Random(5)
    calls = []
    trace = homspace._identity_in_trace

    def counting(*args):
        calls.append(args[0].total_dim)
        return trace(*args)

    monkeypatch.setattr(homspace, "_identity_in_trace", counting)
    for m in mods:
        if is_projective(m):
            continue
        for P in projs:
            alg.clear_cache()
            padded, other = direct_sum([m, P]), twisted(m, rng)
            assert is_isomorphic(padded, other) is False
            calls.clear()
            assert stable_iso(padded, other) and stable_iso(other, padded)
            assert calls


# ---------------------------------------------------------------------------
# the left side, read off A^op, against the column join and cokernel walk

APPROX_KUPISCH = ((2,), (4,), (3, 3))


@lru_cache(maxsize=None)
def nakayama_pool(kupisch: tuple, field: str) -> tuple:
    """(algebra, modules): the simples, the projectives and the first two
    syzygies of the simples of a cyclic Nakayama algebra, zeros dropped."""
    alg = nakayama_cyclic(kupisch, _field(field))
    simples = [simple_module(alg, v) for v in alg.quiver.vertices]
    mods = simples + [p for _, p in projectives(alg)]
    mods += [syzygy(S, k) for S in simples for k in (1, 2)]
    return alg, tuple(M for M in mods if M.total_dim)


@st.composite
def approximation_cases(draw):
    """(spec, N): one to four generators of one pool, d in 1..3, and N a
    sum of one or two pool modules."""
    field = draw(st.sampled_from(sorted(FIELDS)))
    family = draw(st.sampled_from(APPROX_KUPISCH + ("a2-tilde",)))
    if family == "a2-tilde":
        alg, mods = pool(family, field)
        mods = [m for _, m in mods]
    else:
        alg, mods = nakayama_pool(family, field)
    index = st.integers(0, len(mods) - 1)
    gens = draw(st.lists(index, min_size=1, max_size=4, unique=True))
    N = direct_sum([mods[i] for i in draw(st.lists(index, min_size=1,
                                                   max_size=2))])
    return SubcatSpec(alg, [mods[i] for i in gens],
                      draw(st.integers(1, 3))), N


def _components(f, gens):
    """The maps N -> g into each copy of a generator, in the target's
    summand order, with the number of copies of g read off hom(N, g)."""
    alg = f.src.algebra
    off = {v: 0 for v in alg.quiver.vertices}
    out = []
    for g in gens:
        H = hom(f.src, g)
        comps = []
        for _ in range(H.dim):
            comps.append(RepMorphism(f.src, g, {
                v: Matrix.from_rows(alg.field,
                                    [r[off[v]:off[v] + g.dims[v]]
                                     for r in f.mats[v].entries], g.dims[v])
                for v in alg.quiver.vertices}))
            for v in off:
                off[v] += g.dims[v]
        out.append((H, comps))
    assert off == f.tgt.dims
    return out


def _coresolution_outcome(build, spec, N):
    try:
        res = build(spec, N)
    except (ApproximationNotMono, FinalTermNotInSubcategory) as e:
        return type(e)
    assert res.coaug.src is N
    assert _is_exact([res.coaug] + res.diffs)
    return [T.dims for T in res.terms]


@settings(max_examples=60, deadline=None)
@given(approximation_cases())
def test_left_side_by_duality_matches_the_column_join(case):
    spec, N = case
    f = left_approximation(spec, N)
    ref = left_approximation_columns(spec, N)
    assert f.src is N
    assert f.tgt.dims == ref.tgt.dims and f.tgt.action == ref.tgt.action
    # the components into the copies of g are a basis of Hom(N, g)
    for H, comps in _components(f, spec.generators):
        coords = Matrix.from_rows(N.algebra.field,
                                  [H.coords(c) for c in comps], H.dim)
        assert rank(coords) == H.dim
    assert (_coresolution_outcome(d_coresolution, spec, N)
            == _coresolution_outcome(d_coresolution_walk, spec, N))


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_coresolutions_of_the_simples_match_the_cokernel_walk(field):
    """The whole a2-tilde-3233 spec (d = 2), which cogenerates, on every
    simple: one term or two, as on A itself."""
    alg, mods = pool("a2-tilde", field)
    spec = SubcatSpec(alg, [m for _, m in mods], 2)
    lengths = set()
    for v in alg.quiver.vertices:
        S = simple_module(alg, v)
        got = _coresolution_outcome(d_coresolution, spec, S)
        assert got == _coresolution_outcome(d_coresolution_walk, spec, S)
        lengths.add(len(got))
    assert lengths == {1, 2}


# ---------------------------------------------------------------------------
# Ext from Hom dimensions against the dual differentials

def _check_ext(M, N, i):
    """ext_dim and ext(...).dim against the dual-differential reference; the
    cocycles are independent, number dim Hom(Omega^i M, N) and, for i >= 1,
    vanish on the image of d_{i+1}."""
    want = ext_dim_by_dual_differentials(M, N, i)
    assert ext_dim(M, N, i) == want
    e = ext(M, N, i)
    assert e.dim == want
    fld = M.algebra.field
    vecs = [morphism_to_vec(c) for c in e.cocycles]
    if vecs:
        assert rank(Matrix.from_rows(fld, vecs, len(vecs[0]))) == len(vecs)
    assert len(vecs) == hom_dim_full(syzygy(M, i), N)
    if i:
        d = resolve(M, i + 1).diff(i + 1)
        assert all(d.compose(c).is_zero() for c in e.cocycles)
    return want


@st.composite
def ext_cases(draw):
    """(M, N, i): sums of up to two pieces or projectives of the stable
    pool, i in 0..4."""
    alg, pieces, projs = stable_pool(draw(st.sampled_from(STABLE_FAMILIES)),
                                     draw(st.sampled_from(sorted(FIELDS))))
    parts = st.lists(st.sampled_from(pieces + projs), max_size=2)
    return (_sum(alg, draw(parts)), _sum(alg, draw(parts)),
            draw(st.integers(0, 4)))


@settings(max_examples=80, deadline=None)
@given(ext_cases())
def test_ext_from_hom_dimensions_matches_the_dual_differentials(case):
    _check_ext(*case)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_ext_agrees_on_every_jordan_pair(field):
    """Every pair of Jordan modules of k[x]/(x^4), their syzygies, zero and
    the projective, in degrees 0..4; both answers occur in degree >= 1."""
    alg, pieces, projs = stable_pool("jordan", field)
    mods = pieces + projs
    seen = {_check_ext(M, N, i) > 0 for M in mods for N in mods
            for i in range(1, 5)}
    assert seen == {True, False}
    for M in mods:
        for N in mods:
            _check_ext(M, N, 0)

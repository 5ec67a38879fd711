"""Acceptance suite: the nine binding checks, one per test.

Each test registers its criterion number on success; conftest prints a
pass/fail line per criterion after the run.  Everything here is exact
arithmetic, tolerance zero.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from singcat.cli import EXIT_OK, emit_examples, main
from singcat.exact_linalg import Matrix, prime_field, rank, rational_field
from singcat.families import nakayama2_tilde
from singcat.homology import ext, syzygy, syzygy_morphism
from singcat.homspace import (
    add_membership,
    hom,
    is_isomorphic,
    stable_hom,
    stable_iso,
)
from singcat.quiver_algebra import (
    Arrow,
    Quiver,
    compute_basis,
    nakayama_cyclic,
)
from singcat.rep import (
    Representation,
    direct_sum,
    is_projective,
    projectives,
    simple_module,
)
from singcat.stab import StableObject, is_iwanaga_gorenstein, skeleton, stab_hom
from singcat.tilting import SubcatSpec, d_resolution, verify_cluster_tilting

KS = (3, 2, 3, 3)

# double-step syzygy table over the orbit algebra: src lands on tgt
SYZYGY_TABLE = [
    ("(4,4,4)", "(2,3,3)"), ("(2,3,3)", "(1,1,2)"), ("(1,1,2)", "(0,0,0)"),
    ("(3,4,4)", "(2,2,3)"), ("(2,2,3)", "(1,1,1)"), ("(1,1,1)", "(0,0,0)"),
    ("(3,3,4)", "(2,2,2)"), ("(3,3,3)", "(1,2,2)"),
]
PROJECTIVE_LANDINGS = [("(2,2,2)", "(0,1,1)"), ("(1,2,2)", "(0,0,1)")]

PROJECTIVE_TRIPLES = {
    "(0,0,1)", "(0,1,1)", "(0,0,2)", "(0,1,2)", "(0,2,2)",
    "(1,1,3)", "(1,2,3)", "(1,3,3)", "(2,2,4)", "(2,3,4)", "(2,4,4)",
}


@pytest.fixture(scope="module")
def skel(orbit_spec):
    return skeleton(orbit_spec, claimed_count=4)


# ---------------------------------------------------------------------------
# brute-force oracles over F_2 (int arithmetic only, no engine reuse)


def _shift(n: int) -> list[list[int]]:
    return [[1 if c == r + 1 else 0 for c in range(n)] for r in range(n)]


def _mul_vm(v, M):
    return tuple(sum(v[r] * M[r][c] for r in range(len(v))) % 2
                 for c in range(len(M[0]) if M else 0))


def _vec_pow(v, X, k):
    for _ in range(k):
        v = _mul_vm(v, X)
    return v


def _rows_of(w, X, i):
    out, v = [], w
    for _ in range(i):
        out.append(v)
        v = _mul_vm(v, X)
    return out


def _span_size(gens, width: int) -> int:
    span = {(0,) * width}
    for g in gens:
        if g not in span:
            span |= {tuple(a ^ b for a, b in zip(s, g)) for s in span}
    return len(span)


def brute_jordan_dims(i: int, j: int, n: int) -> tuple[int, int]:
    """Hom and stable-hom dims between Jordan blocks of x on k^i, k^j.

    A morphism is determined by the image of the cyclic generator, so the
    full hom set is scanned directly; maps through the free module are
    enumerated as literal composites and closed under addition.
    """
    Xj, Xn = _shift(j), _shift(n)
    homs = [w for w in product((0, 1), repeat=j) if not any(_vec_pow(w, Xj, i))]
    comps = []
    for u in product((0, 1), repeat=n):
        if any(_vec_pow(u, Xn, i)):
            continue
        H = _rows_of(u, Xn, i)
        for v in product((0, 1), repeat=j):
            G = _rows_of(v, Xj, n)
            comps.append(tuple(x for row in H for x in _mul_vm(row, G)))
    hdim = len(homs).bit_length() - 1
    fdim = _span_size(comps, i * j).bit_length() - 1
    return hdim, hdim - fdim


def _ints_of(rep: Representation, aid: str) -> list[list[int]]:
    m = rep.action[aid]
    f = rep.algebra.field
    return [[int(f.to_str(m.entries[r][c])) % 2 for c in range(m.cols)]
            for r in range(m.rows)]


def _mul_ii(A, B, n, m, p):
    return [[sum(A[r][k] * B[k][c] for k in range(m)) % 2
             for c in range(p)] for r in range(n)]


def _all_homs_f2(M: Representation, N: Representation):
    verts = M.algebra.quiver.vertices
    slots = [(v, M.dims[v], N.dims[v]) for v in verts]
    total = sum(a * b for _, a, b in slots)
    aM = {a.id: _ints_of(M, a.id) for a in M.algebra.quiver.arrows}
    aN = {a.id: _ints_of(N, a.id) for a in M.algebra.quiver.arrows}
    homs = []
    for bits in product((0, 1), repeat=total):
        F, at = {}, 0
        for v, a, b in slots:
            F[v] = [list(bits[at + r * b: at + (r + 1) * b]) for r in range(a)]
            at += a * b
        good = True
        for arr in M.algebra.quiver.arrows:
            s, t = arr.src, arr.tgt
            lhs = _mul_ii(aM[arr.id], F[t], M.dims[s], M.dims[t], N.dims[t])
            rhs = _mul_ii(F[s], aN[arr.id], M.dims[s], N.dims[s], N.dims[t])
            if lhs != rhs:
                good = False
                break
        if good:
            homs.append(F)
    return homs, slots


def brute_quiver_stable_dims(M: Representation,
                             N: Representation) -> tuple[int, int]:
    """All morphisms by exhaustive matrix-tuple scan over F_2."""
    homs, slots = _all_homs_f2(M, N)
    verts = M.algebra.quiver.vertices
    P_all = direct_sum([P for _, P in projectives(M.algebra)])
    hs_MP, _ = _all_homs_f2(M, P_all)
    hs_PN, _ = _all_homs_f2(P_all, N)

    def flat(F):
        return tuple(x for v, a, b in slots for row in F[v] for x in row)

    comps = []
    for H in hs_MP:
        for G in hs_PN:
            comps.append(flat({v: _mul_ii(H[v], G[v], M.dims[v],
                                          P_all.dims[v], N.dims[v])
                               for v in verts}))
    width = sum(a * b for _, a, b in slots)
    hdim = len(homs).bit_length() - 1
    fdim = _span_size(comps, width).bit_length() - 1
    return hdim, hdim - fdim


def _jordan(alg, i: int) -> Representation:
    f = alg.field
    m = Matrix(f, i, i, [[f.one if c == r + 1 else f.zero
                          for c in range(i)] for r in range(i)])
    return Representation(alg, {"0": i}, {"a0": m})


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_syzygy_table(orbit_spec, record_criterion):
    for src, tgt in SYZYGY_TABLE:
        assert stable_iso(syzygy(orbit_spec.by_label(src), 2),
                          orbit_spec.by_label(tgt))
    for src, tgt in PROJECTIVE_LANDINGS:
        S = syzygy(orbit_spec.by_label(src), 2)
        assert is_projective(S)
        assert is_isomorphic(S, orbit_spec.by_label(tgt))
    record_criterion(1)


def test_criterion_2_projective_triples(orbit_spec, record_criterion):
    computed = {lbl for lbl, g in zip(orbit_spec.labels, orbit_spec.generators)
                if is_projective(g)}
    assert computed == PROJECTIVE_TRIPLES
    # closed form: (t1,t2,t3) is projective exactly when t1 = t3 + 1 - l_t3
    by_rule = set()
    for lbl in orbit_spec.labels:
        t1, t2, t3 = (int(x) for x in lbl.strip("()").split(","))
        if t1 == t3 + 1 - KS[t3 % len(KS)]:
            by_rule.add(lbl)
    assert by_rule == PROJECTIVE_TRIPLES
    record_criterion(2)


def test_criterion_3_cluster_tilting_verified(orbit_spec, tmp_path,
                                              record_criterion):
    report = verify_cluster_tilting(orbit_spec)
    assert report.verdict == "certificate_only"
    for name in ("rigid", "generating", "cogenerating", "dZ_closure"):
        assert report.checks[name].ok, name
    # same spec through the command surface exits 0
    emit_examples("a2-tilde-3233", tmp_path, rational_field())
    assert main(["ct", "verify", "--subcat",
                 str(tmp_path / "subcat.json")]) == EXIT_OK
    record_criterion(3)


def test_criterion_4_stabilized_hom_dims(orbit_spec, skel, record_criterion):
    M = orbit_spec.by_label("(0,0,0)")
    for t in range(4):
        for s in range(4):
            got = stab_hom(StableObject(M, 2 * t), StableObject(M, 2 * s),
                           orbit_spec)
            want = 1 if (t - s) % 3 == 0 else 0
            assert got.status == "certified"
            assert got.dim == want, (t, s, got.dim)
    n = len(skel.classes)
    assert skel.hom_matrix == [[1 if i == j else 0 for j in range(n)]
                               for i in range(n)]
    record_criterion(4)


def test_criterion_5_skeleton_count_discrepancy(orbit_spec, skel,
                                                record_criterion):
    assert skel.count == 3
    assert skel.claimed_count == 4
    assert skel.count_discrepancy is True
    assert "3" in skel.discrepancy_note and "4" in skel.discrepancy_note
    # the witness: explicit identification chains gluing the claimed extras
    assert skel.identification
    assert any("~" in line for line in skel.identification)
    # every generator is accounted for, as a class member or a zero object
    assert set(skel.membership) == set(orbit_spec.labels)
    record_criterion(5)


def test_criterion_6_not_gorenstein(orbit, record_criterion):
    rep = is_iwanaga_gorenstein(orbit)
    assert rep.verdict == "not_gorenstein"
    assert rep.witness == "(3,4)"
    cert = rep.injective_pd["(3,4)"]
    assert cert.status == "infinite_periodic"
    record_criterion(6)


def test_criterion_7_truncated_polynomials(record_criterion):
    F2 = prime_field(2)
    for n in (2, 3, 4, 5):
        for field in (F2, rational_field()):
            alg = nakayama_cyclic((n,), field)
            mods = [_jordan(alg, i) for i in range(1, n + 1)]
            spec = SubcatSpec(alg, mods, 1,
                              labels=[f"M{i}" for i in range(1, n + 1)])
            # engine dims against the generator-image scan
            for i in range(1, n):
                for j in range(1, n):
                    hb, sb = brute_jordan_dims(i, j, n)
                    assert hom(mods[i - 1], mods[j - 1]).dim == hb
                    assert stable_hom(mods[i - 1], mods[j - 1]).dim == sb
            # n-1 nonzero stable indecomposables, the free module dies
            assert all(brute_jordan_dims(i, i, n)[1] >= 1
                       for i in range(1, n))
            assert stable_hom(mods[n - 1], mods[n - 1]).dim == 0
            # syzygy swaps block sizes i and n-i
            for i in range(1, n):
                assert is_isomorphic(syzygy(mods[i - 1]), mods[n - i - 1])
            rep = skeleton(spec)
            assert rep.count == n - 1
            for a, ca in enumerate(rep.classes):
                ia = ca.representative.module.total_dim
                for b, cb in enumerate(rep.classes):
                    ib = cb.representative.module.total_dim
                    assert rep.hom_matrix[a][b] == brute_jordan_dims(ia, ib, n)[1]
    for field in (F2, rational_field()):
        quiver = Quiver(["u", "v"], [Arrow("a", "u", "v")])
        ha2 = compute_basis(quiver, [], field, 3)
        spec = SubcatSpec(ha2, [P for _, P in projectives(ha2)]
                          + [simple_module(ha2, "v")], 1)
        assert skeleton(spec).count == 0
    record_criterion(7)


def test_criterion_8_property_suites(orbit_spec, record_criterion):
    rng = random.Random(2026)

    # dimension shifting: ext^{i+1}(M, N) = ext^i (first syzygy of M, N)
    gens = orbit_spec.generators
    for _ in range(12):
        M = gens[rng.randrange(len(gens))]
        N = gens[rng.randrange(len(gens))]
        i = rng.randrange(1, 4)
        assert ext(M, N, i + 1).dim == ext(syzygy(M), N, i).dim

    # stable hom vs exhaustive enumeration on algebras of dim at most 6
    F2 = prime_field(2)
    kx2 = nakayama_cyclic((2,), F2)
    kx3 = nakayama_cyclic((3,), F2)
    quiver = Quiver(["u", "v"], [Arrow("a", "u", "v")])
    ha2 = compute_basis(quiver, [], F2, 3)
    pools = [
        [simple_module(kx2, "0")] + [P for _, P in projectives(kx2)],
        [_jordan(kx3, 1), _jordan(kx3, 2)] + [P for _, P in projectives(kx3)],
        [simple_module(ha2, "u"), simple_module(ha2, "v")]
        + [P for _, P in projectives(ha2)],
    ]
    for pool in pools:
        for A in pool:
            for B in pool:
                hb, sb = brute_quiver_stable_dims(A, B)
                assert hom(A, B).dim == hb
                assert stable_hom(A, B).dim == sb

    # approximation universality on 100 random spec/target instances
    from singcat.tilting import left_approximation, right_approximation
    from dense_reference import row_space_contains
    QQ = rational_field()
    algs = [nakayama_cyclic(k, QQ) for k in ((2,), (4,), (3, 3))]
    small_pools = []
    for alg in algs:
        pool = [S for _, S in
                ((v, simple_module(alg, v)) for v in alg.quiver.vertices)]
        pool += [P for _, P in projectives(alg)]
        pool += [syzygy(S) for S in pool[:2] if syzygy(S).total_dim]
        small_pools.append((alg, [M for M in pool if M.total_dim]))
    for _ in range(100):
        alg, pool = small_pools[rng.randrange(len(small_pools))]
        k = rng.randrange(1, 4)
        gens_pick = [pool[rng.randrange(len(pool))] for _ in range(k)]
        spec = SubcatSpec(alg, gens_pick, 1)
        N = pool[rng.randrange(len(pool))]
        f = right_approximation(spec, N)
        g = left_approximation(spec, N)
        for G in gens_pick:
            hf = hom(G, f.src)
            tN = hom(G, N)
            mat = Matrix.from_rows(QQ, [list(tN.coords(h.compose(f)))
                                        for h in hf.basis], tN.dim)
            for b in tN.basis:
                assert row_space_contains(mat, list(tN.coords(b)))
            hg = hom(g.tgt, G)
            tG = hom(N, G)
            mat = Matrix.from_rows(QQ, [list(tG.coords(g.compose(h)))
                                        for h in hg.basis], tG.dim)
            for b in tG.basis:
                assert row_space_contains(mat, list(tG.coords(b)))

    # resolutions through the subcategory: rank-checked exactness
    alg = orbit_spec.algebra
    for v in alg.quiver.vertices:
        E = simple_module(alg, v)
        res = d_resolution(orbit_spec, E)
        for T in res.terms:
            assert add_membership(T, orbit_spec.generators)
        def mrank(f):
            return sum(rank(f.mat(w)) for w in alg.quiver.vertices)
        assert mrank(res.aug) == E.total_dim
        prev = res.aug
        for i, d in enumerate(res.diffs):
            assert d.compose(prev).is_zero()
            assert mrank(d) == res.terms[i].total_dim - mrank(prev)
            prev = d
        assert mrank(prev) == res.terms[-1].total_dim

    # syzygy functor on stable homs: bijective exactly when every first
    # extension against a projective vanishes
    QQ = rational_field()
    kx3q = nakayama_cyclic((3,), QQ)
    pairs = [(_jordan(kx3q, 1), _jordan(kx3q, 2)),
             (_jordan(kx3q, 2), _jordan(kx3q, 1)),
             (_jordan(kx3q, 1), _jordan(kx3q, 1)),
             (_jordan(kx3q, 2), _jordan(kx3q, 2))]

    def omega_bijective(X, Y):
        V = stable_hom(X, Y)
        W = stable_hom(syzygy(X), syzygy(Y))
        if V.dim != W.dim:
            return False
        if V.dim == 0:
            return True
        rows = [list(W.coords_mod(syzygy_morphism(f)))
                for f in V.basis_classes()]
        return rank(Matrix.from_rows(X.algebra.field, rows, W.dim)) == V.dim

    for X, Y in pairs:
        assert all(ext(X, P, 1).dim == 0 for _, P in projectives(kx3q))
        assert omega_bijective(X, Y)
    ha2q = compute_basis(Quiver(["u", "v"], [Arrow("a", "u", "v")]), [], QQ, 3)
    Su = simple_module(ha2q, "u")
    assert any(ext(Su, P, 1).dim != 0 for _, P in projectives(ha2q))
    assert not omega_bijective(Su, Su)
    record_criterion(8)


def test_criterion_9_field_independence(record_criterion):
    def signature(field):
        _, spec = nakayama2_tilde(KS, 4, field)
        sig = {}
        sig["table"] = [stable_iso(syzygy(spec.by_label(a), 2),
                                   spec.by_label(b)) for a, b in SYZYGY_TABLE]
        sig["landings"] = [
            (is_projective(syzygy(spec.by_label(a), 2)),
             is_isomorphic(syzygy(spec.by_label(a), 2), spec.by_label(b)))
            for a, b in PROJECTIVE_LANDINGS]
        sig["proj"] = sorted(l for l, g in zip(spec.labels, spec.generators)
                             if is_projective(g))
        rep = verify_cluster_tilting(spec)
        sig["verdict"] = rep.verdict
        sig["checks"] = {k: c.ok for k, c in rep.checks.items()}
        M = spec.by_label("(0,0,0)")
        sig["stab"] = [[stab_hom(StableObject(M, 2 * t),
                                 StableObject(M, 2 * s), spec).dim
                        for s in range(3)] for t in range(3)]
        sk = skeleton(spec, claimed_count=4)
        sig["skel"] = (sk.count, sk.count_discrepancy,
                       tuple(tuple(r) for r in sk.hom_matrix),
                       sorted(l for l, _ in sk.zero_classes))
        gor = is_iwanaga_gorenstein(spec.algebra)
        sig["gor"] = (gor.verdict, gor.witness,
                      gor.injective_pd[gor.witness].status)
        return sig

    base = signature(rational_field())
    assert base["skel"][0] == 3
    for p in (101, 2):
        assert signature(prime_field(p)) == base
    record_criterion(9)

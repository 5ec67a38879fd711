from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from singcat.exact_linalg import (
    Matrix, kernel_basis, prime_field, rank, rational_field, rref, sparse_rank,
)
from singcat import homspace, rep
from singcat.families import InvalidTriple, interval_module, nakayama2_tilde
from singcat.homology import ext, ext_dim, syzygy
from singcat.homspace import (
    HomSpace,
    _projective_end_rows,
    _stable_dim,
    add_membership,
    hom,
    hom_dim,
    is_isomorphic,
    stable_end_dim,
    stable_hom,
    stable_iso,
)
from singcat.quiver_algebra import (
    MAX_RELATION_LENGTH,
    Arrow,
    Quiver,
    compute_basis,
    nakayama2_infinite,
    nakayama_cyclic,
    orbit_grid_algebra,
    truncate,
    valid_triples_window,
)
from singcat.rep import (
    AlgebraMismatch,
    RepMorphism,
    Representation,
    _path_images,
    cokernel,
    direct_sum,
    dual_module,
    image,
    injective_module,
    injectives,
    is_projective,
    kernel,
    projective_cover,
    projective_module,
    projectives,
    simple_module,
    zero_rep,
)
from singcat.tilting import SubcatSpec, left_approximation, right_approximation

from builders import is_canonical_scalar, uniserial
from dense_reference import dense_solve_left, dense_solve_right
from pairwise_reference import (
    commuting_system_dense, hom_basis_full, hom_dim_full, morphism_to_vec,
)

KS = (3, 2, 3, 3)


def _canon(ks, a, b):
    """Orbit vertex of the grid point (a, b): a reduced mod the period."""
    s = (a % len(ks)) - a
    return f"({a + s},{b + s})"


def proj_vertex(t, ks=KS):
    # a projective triple (l1,l2,l3) is the projective at the grid point (l2,l3)
    return _canon(ks, t[1], t[2])


def test_projective_supports(orbit):
    expected = {
        "(0,0)": {"(0,0)": 1, "(3,4)": 1, "(2,4)": 1},
        "(0,1)": {"(0,1)": 1, "(0,0)": 1},
        "(0,2)": {"(0,2)": 1, "(0,1)": 1, "(0,0)": 1},
        "(1,1)": {"(1,1)": 1, "(0,1)": 1},
        "(1,2)": {"(1,2)": 1, "(0,2)": 1, "(1,1)": 1, "(0,1)": 1},
        "(1,3)": {"(1,3)": 1, "(1,2)": 1, "(1,1)": 1},
        "(2,2)": {"(2,2)": 1, "(1,2)": 1, "(0,2)": 1},
        "(2,3)": {"(2,3)": 1, "(1,3)": 1, "(2,2)": 1, "(1,2)": 1},
        "(2,4)": {"(2,4)": 1, "(2,3)": 1, "(2,2)": 1},
        "(3,3)": {"(3,3)": 1, "(2,3)": 1, "(1,3)": 1},
        "(3,4)": {"(3,4)": 1, "(2,4)": 1, "(3,3)": 1, "(2,3)": 1},
    }
    for v in orbit.quiver.vertices:
        P = projective_module(orbit, v)
        assert {w: d for w, d in P.dims.items() if d} == expected[v]


def test_hom_out_of_projective_is_evaluation(orbit):
    mods = [simple_module(orbit, "(1,3)"), interval_module(orbit, (0, 0, 0)),
            interval_module(orbit, (1, 1, 2)), projective_module(orbit, "(2,3)")]
    for M in mods:
        for v in orbit.quiver.vertices:
            assert hom(projective_module(orbit, v), M).dim == M.dims[v]


def test_hom_identity_total(orbit):
    total = 0
    for _, Pu in projectives(orbit):
        for _, Pv in projectives(orbit):
            total += hom(Pu, Pv).dim
    assert total == orbit.dimension


def test_kernel_image_cokernel_ranks(orbit):
    S = simple_module(orbit, "(1,2)")
    cov, eps = projective_cover(S)
    K, inc = kernel(eps)
    assert cov.rep.total_dim == 4
    assert K.total_dim == 3
    assert inc.compose(eps).is_zero()
    img, _, _ = image(eps)
    assert is_isomorphic(img, S)
    C, _ = cokernel(eps)
    assert C.total_dim == 0
    # rank-nullity at every vertex for an arbitrary hom element
    M = interval_module(orbit, (1, 1, 3))
    N = interval_module(orbit, (1, 2, 3))
    H = hom(M, N)
    assert H.dim == 1
    f = H.basis[0]
    Kf, _ = kernel(f)
    If, _, _ = image(f)
    Cf, _ = cokernel(f)
    assert Kf.total_dim + If.total_dim == M.total_dim
    assert Cf.total_dim == N.total_dim - If.total_dim


def test_morphism_checks(orbit):
    M = projective_module(orbit, "(1,2)")
    ident = RepMorphism.identity(M)
    assert ident.is_iso()
    with pytest.raises(ValueError):
        # a random non-commuting matrix family is rejected
        bad = {v: ident.mats[v] for v in orbit.quiver.vertices}
        bad["(1,1)"] = bad["(1,1)"].scale(orbit.field.of_int(2))
        RepMorphism(M, M, bad)


def test_direct_sum_and_membership(orbit):
    P = projective_module(orbit, "(1,2)")
    S = simple_module(orbit, "(1,3)")
    D = direct_sum([P, S])
    assert D.total_dim == P.total_dim + S.total_dim
    assert add_membership(D, [P, S])
    assert add_membership(P, [D])
    assert not add_membership(D, [P])
    assert is_projective(P)
    assert not is_projective(S)
    assert is_projective(zero_rep(orbit))
    assert not add_membership(S, [p for _, p in projectives(orbit)])


def _block_diagonal(f, blocks):
    """Reference block-diagonal matrix, filled entry by entry."""
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[f.zero] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for k in range(b.cols):
                out[r0 + i][c0 + k] = b.entries[i][k]
        r0 += b.rows
        c0 += b.cols
    return Matrix(f, rows, cols, out)


def _summand_lists(alg):
    P = projective_module(alg, "(1,2)")
    Q = projective_module(alg, "(0,1)")
    S = simple_module(alg, "(1,3)")
    Z = zero_rep(alg)
    # projectives and simples vanish at most vertices; Z vanishes everywhere
    return [[P], [S], [Z], [P, S], [S, P, Q], [Z, P, Z, S], [P, P, Q, S, Z]]


@pytest.mark.parametrize("fld", [rational_field(), prime_field(2)],
                         ids=["Q", "F2"])
def test_direct_sum_matches_block_diagonal_reference(fld):
    alg = orbit_grid_algebra(KS, fld)
    for reps in _summand_lists(alg):
        D = direct_sum(reps)
        assert D.algebra is alg
        for v in alg.quiver.vertices:
            assert D.dims[v] == sum(r.dims[v] for r in reps)
        for a in alg.quiver.arrows:
            want = _block_diagonal(fld, [r.action[a.id] for r in reps])
            got = D.action[a.id]
            assert got == want
            # zeros are the field's own zero scalar, of its type
            assert all(type(x) is type(fld.zero) for row in got.entries for x in row)


def test_constructor_rewrites_integral_fractions_and_wrap_does_not():
    """The public constructor makes the caller's scalars canonical: an
    integral Fraction becomes an int and a non-integral one stays.
    ``_wrap`` keeps its data as given, and a matrix with nothing to rewrite
    is kept itself.  Equal values give one content, so one record."""
    f = rational_field()
    alg = nakayama_cyclic((3,), f)
    z = Fraction(0)
    m = Matrix(f, 3, 3, [[z, Fraction(2), z], [z, z, Fraction(3, 2)],
                         [z, z, z]])
    M = Representation(alg, {"0": 3}, {"a0": m})
    got = M.action["a0"]
    assert got == Matrix(f, 3, 3, [[0, 2, 0], [0, 0, Fraction(3, 2)],
                                   [0, 0, 0]])
    assert [type(x) for r in got.entries for x in r] == [int] * 5 + [
        Fraction] + [int] * 3
    assert Representation(alg, M.dims, M.action).action["a0"] is got
    W = Representation._wrap(alg, M.dims, {"a0": m})
    assert W.action["a0"] is m
    assert rep._record(W) is rep._record(M)


def _chained_vstack(f, mats, cols):
    acc = Matrix.zeros(f, 0, cols)
    for m in mats:
        acc = Matrix(f, acc.rows + m.rows, cols, acc.entries + m.entries)
    return acc


def _chained_hstack(f, mats, rows):
    acc = Matrix.zeros(f, rows, 0)
    for m in mats:
        acc = Matrix(f, rows, acc.cols + m.cols,
                     [ra + rb for ra, rb in zip(acc.entries, m.entries)])
    return acc


@pytest.mark.parametrize("fld", [rational_field(), prime_field(2)],
                         ids=["Q", "F2"])
def test_approximations_match_chained_stacking(fld):
    alg, spec = nakayama2_tilde(KS, 4, fld)
    gens = spec.generators[:8]
    spec8 = SubcatSpec(alg, gens, spec.d)
    # three to eight pieces each way, and one target with none
    targets = [projective_module(alg, "(1,2)"), injective_module(alg, "(0,0)"),
               gens[4], direct_sum([gens[1], gens[3]]),
               simple_module(alg, "(1,3)")]
    counts = [(sum(hom(g, N).dim for g in gens), sum(hom(N, g).dim for g in gens))
              for N in targets]
    assert counts == [(4, 3), (3, 3), (4, 3), (4, 8), (0, 0)]
    for N in targets:
        right = right_approximation(spec8, N)
        pieces = [b for g in gens for b in hom(g, N).basis]
        srcs = [g for g in gens for _ in hom(g, N).basis]
        assert right.tgt is N
        assert right.src.dims == (direct_sum(srcs) if srcs else zero_rep(alg)).dims
        for v in alg.quiver.vertices:
            assert right.mats[v] == _chained_vstack(
                fld, [b.mats[v] for b in pieces], N.dims[v])

        left = left_approximation(spec8, N)
        pieces = [b for g in gens for b in hom(N, g).basis]
        tgts = [g for g in gens for _ in hom(N, g).basis]
        assert left.src is N
        assert left.tgt.dims == (direct_sum(tgts) if tgts else zero_rep(alg)).dims
        for v in alg.quiver.vertices:
            assert left.mats[v] == _chained_hstack(
                fld, [b.mats[v] for b in pieces], N.dims[v])


def test_interval_calibration_matches_projectives(orbit):
    trs = valid_triples_window(KS, 0, 4)
    assert len(trs) == 22
    for t in trs:
        M = interval_module(orbit, t)
        assert M.total_dim > 0
        if t[0] == t[2] + 1 - KS[t[2] % 4]:
            assert is_isomorphic(M, projective_module(orbit, proj_vertex(t)))


def test_interval_hom_interlacing(orbit):
    """Hom dimensions between intervals count the interlacing shifts."""
    trs = valid_triples_window(KS, 0, 4)
    mods = {t: interval_module(orbit, t) for t in trs}
    for s in trs:
        for t in trs:
            expected = sum(
                1 for k in range(-2, 3)
                if s[0] <= t[0] + 4 * k <= s[1] <= t[1] + 4 * k <= s[2] <= t[2] + 4 * k)
            assert hom(mods[s], mods[t]).dim == expected, (s, t)


SERIES = [ks for length in range(1, 5) for ks in product((2, 3), repeat=length)]


def _double_syzygy_triple(ks, t):
    """Where two syzygy steps send a non-projective interval, normalized."""
    n = len(ks)
    l1, l2, l3 = t
    s = (l3 + 1 - ks[l3 % n], l1 - 1, l2 - 1)
    shift = (s[0] % n) - s[0]
    return (s[0] + shift, s[1] + shift, s[2] + shift)


@pytest.mark.parametrize("field", [rational_field(), prime_field(2)],
                         ids=["Q", "F2"])
@pytest.mark.parametrize("ks", SERIES, ids=lambda ks: "".join(map(str, ks)))
def test_interval_support_rule_oracles(ks, field):
    """Projectives, the double syzygy shift and interlacing hom counts."""
    orbit = orbit_grid_algebra(ks, field)
    n = len(ks)
    trs = valid_triples_window(ks, 0, n)
    mods = {t: interval_module(orbit, t) for t in trs}
    for t in trs:
        if t[0] == t[2] + 1 - ks[t[2] % n]:
            P = projective_module(orbit, proj_vertex(t, ks))
            assert is_isomorphic(mods[t], P), t
        elif t[0] < n:
            target = _double_syzygy_triple(ks, t)
            probe = mods.get(target) or interval_module(orbit, target)
            assert stable_iso(syzygy(mods[t], 2), probe), t
    for s in trs:
        for t in trs:
            expected = sum(
                1 for k in range(-2, 3)
                if s[0] <= t[0] + k * n <= s[1] <= t[1] + k * n <= s[2] <= t[2] + k * n)
            assert hom(mods[s], mods[t]).dim == expected, (s, t)


def test_interval_on_window_matches_orbit(orbit, QQ):
    window, safe = truncate(nakayama2_infinite(KS, QQ), 3)
    margin = MAX_RELATION_LENGTH * window.meta["depth"]
    trs = valid_triples_window(KS, window.meta["lo"] + margin,
                               window.meta["hi"] - margin)
    assert len(trs) == 16
    for t in trs:
        W = interval_module(window, t)
        support = {v for v, d in W.dims.items() if d}
        assert support <= safe, t
        folded = {_canon(KS, *window.meta["coords"][v]): W.dims[v] for v in support}
        O = interval_module(orbit, t)
        assert folded == {v: d for v, d in O.dims.items() if d}, t


def test_interval_validation(orbit):
    with pytest.raises(InvalidTriple):
        interval_module(orbit, (1, 0, 0))
    with pytest.raises(InvalidTriple):
        interval_module(orbit, (0, 0, 3))
    with pytest.raises(InvalidTriple):
        interval_module(orbit, (0, 0))
    other = nakayama_cyclic((2, 2), rational_field())
    with pytest.raises(InvalidTriple):
        interval_module(other, (0, 0, 0))


def test_interval_shift_by_period(orbit):
    assert is_isomorphic(interval_module(orbit, (4, 4, 4)),
                         interval_module(orbit, (0, 0, 0)))
    assert is_isomorphic(interval_module(orbit, (5, 5, 6)),
                         interval_module(orbit, (1, 1, 2)))


def test_interval_over_prime_fields():
    for p in (2, 101):
        alg = orbit_grid_algebra(KS, prime_field(p))
        M = interval_module(alg, (0, 0, 0))
        assert {v: d for v, d in M.dims.items() if d} == {"(0,0)": 1}
        N = interval_module(alg, (1, 2, 3))
        assert hom(M, M).dim == 1
        assert N.total_dim == sum(N.dims.values())


def test_stable_iso_controls(orbit):
    M0 = interval_module(orbit, (0, 0, 0))
    P = projective_module(orbit, "(0,1)")
    assert stable_iso(M0, direct_sum([M0, P]))
    assert not stable_iso(M0, interval_module(orbit, (1, 1, 2)))
    assert stable_iso(P, zero_rep(orbit))


def test_stable_iso_skips_hom_m_n_when_hom_n_m_vanishes(monkeypatch):
    """With Hom(N, M) = 0 there is no composite either way, so hom(M, N)
    is never built.  Over Nakayama (3, 2), S(1) and M(0, 2) pass every gate
    before the trace test: both have syzygy S(0), and both stable
    endomorphism spaces are the scalars."""
    alg = nakayama_cyclic((3, 2), rational_field())
    M, N = uniserial(alg, 1, 1), uniserial(alg, 0, 2)
    assert hom(N, M).dim == 0 and not is_projective(M)
    assert syzygy(M).dims == syzygy(N).dims and M.dims != N.dims
    assert stable_end_dim(M) == stable_end_dim(N)
    # the cover rows have their own Hom spaces; build them beforehand
    _projective_end_rows(M)
    _projective_end_rows(N)
    calls = []
    real = homspace.hom

    def counting(X, Y):
        calls.append((X, Y))
        return real(X, Y)
    monkeypatch.setattr(homspace, "hom", counting)
    assert not stable_iso(M, N)
    assert calls == [(N, M)]


def test_duality_is_involutive(orbit):
    from singcat.quiver_algebra import opposite_algebra
    op = opposite_algebra(orbit)
    for v in ("(0,0)", "(1,2)", "(3,4)"):
        P = projective_module(op, v)
        I = injective_module(orbit, v)
        assert is_isomorphic(dual_module(op, I), P)
    assert sum(I.total_dim for _, I in injectives(orbit)) == orbit.dimension


def test_dual_rejects_wrong_algebra(orbit):
    M = projective_module(orbit, "(0,0)")
    with pytest.raises(AlgebraMismatch):
        dual_module(orbit, M)


def test_projective_cover_of_interval(orbit):
    M = interval_module(orbit, (1, 1, 2))
    cov, eps = projective_cover(M)
    assert cov.vertices == ["(1,2)"]
    K, _ = kernel(eps)
    assert {v: d for v, d in K.dims.items() if d} == {"(0,1)": 1, "(0,2)": 1}


def test_hom_coords_roundtrip(orbit):
    M = projective_module(orbit, "(2,3)")
    N = interval_module(orbit, (1, 2, 3))
    H = hom(M, N)
    rng = random.Random(1)
    f = orbit.field
    for _ in range(10):
        coeffs = [f.of_int(rng.randrange(-3, 4)) for _ in range(H.dim)]
        g = H.element(coeffs)
        assert list(H.coords(g)) == coeffs


# ---------------------------------------------------------------------------
# generator images by path prefix, and commuting constraints from nonzeros

FIELDS = [rational_field(), prime_field(2), prime_field(101)]


def _twisted(M, rng):
    """M in a random basis: A' = S_u A S_w^-1 with S_v random invertible."""
    f = M.algebra.field
    S, Sinv = {}, {}
    for v, d in M.dims.items():
        while True:
            m = Matrix.from_rows(f, [[f.of_int(rng.randrange(-3, 4))
                                      for _ in range(d)] for _ in range(d)], d)
            if rank(m) == d:
                break
        S[v] = m
        Sinv[v] = dense_solve_right(m, Matrix.identity(f, d))
    action = {}
    for a in M.algebra.quiver.arrows:
        action[a.id] = S[a.src].mul(M.action[a.id]).mul(Sinv[a.tgt])
    return Representation(M.algebra, M.dims, action, check=True)


def _test_modules(fld):
    """Modules with zero-dimensional vertices, loops and a sink vertex."""
    rng = random.Random(5)
    out = []
    orb = orbit_grid_algebra(KS, fld)
    out += [simple_module(orb, "(1,2)"), interval_module(orb, (1, 1, 2)),
            _twisted(projective_module(orb, "(2,3)"), rng),
            _twisted(interval_module(orb, (1, 2, 3)), rng)]
    kx = nakayama_cyclic((4,), fld)
    # the plain Jordan block has a zero row and a zero column: on (P, P) the
    # constraint with neither term gets no column
    out += [projective_module(kx, "0"), _twisted(projective_module(kx, "0"), rng),
            _twisted(syzygy(simple_module(kx, "0")), rng)]
    a2 = compute_basis(Quiver(["u", "v"], [Arrow("a", "u", "v")]), [], fld, 3)
    # the sink v: its generator's only path is the trivial one
    out += [_twisted(projective_module(a2, "u"), rng), injective_module(a2, "v"),
            simple_module(a2, "v")]
    return out, rng


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: repr(f))
def test_path_images_match_path_matrices(fld):
    mods, rng = _test_modules(fld)
    seen_zero_dim = seen_sink = False
    for M in mods:
        alg = M.algebra
        for v in alg.quiver.vertices:
            row = [fld.of_int(rng.randrange(-3, 4)) for _ in range(M.dims[v])]
            imgs = _path_images(M, v, row)
            assert list(imgs) == alg.paths_from(v)
            for key, img in imgs.items():
                ref = Matrix.from_rows(fld, [row], M.dims[v]).mul(
                    M.path_matrix(v, key[1]))
                assert img == ref.entries[0]
                assert len(img) == M.dims[alg.key_target(key)]
            seen_zero_dim |= M.dims[v] == 0
            seen_sink |= list(imgs) == [(v, ())]
    assert seen_zero_dim and seen_sink


def _hom_sources(fld):
    """(kind, source, targets) over each algebra of ``_test_modules``, plus
    k[x]/(x^3) in a random basis, whose loop has diagonal entries."""
    mods, rng = _test_modules(fld)
    mods.append(_twisted(projective_module(nakayama_cyclic((3,), fld), "0"),
                         rng))
    groups: dict[int, list] = {}
    for M in mods:
        groups.setdefault(id(M.algebra), []).append(M)
    out = []
    for group in groups.values():
        alg = group[0].algebra
        v = alg.quiver.vertices[-1]
        targets = group + [zero_rep(alg)]
        # a stepped module, and a fresh module of its content
        rep._cover_step(group[0])
        twin = Representation._wrap(alg, group[0].dims, group[0].action)
        out += [("unstepped", Representation._wrap(alg, M.dims, M.action),
                 targets) for M in group]
        out += [("stepped", group[0], targets), ("twin", twin, targets),
                ("syzygy", syzygy(group[-1]), targets),
                ("injective", injective_module(alg, v), targets),
                ("projective", projective_module(alg, v), targets),
                ("zero", zero_rep(alg), targets)]
    return out


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: repr(f))
def test_hom_matches_dense_reference(fld):
    """hom_dim and the hom basis, both read from the source's presentation,
    against the dense commuting system, from every kind of source."""
    kinds = set()
    for kind, M, targets in _hom_sources(fld):
        for N in targets:
            want = hom_dim_full(M, N)
            assert hom_dim(M, N) == want == hom(M, N).dim
            kinds.add((kind, want > 0))
    assert {k for k, nonzero in kinds if nonzero} == {
        "unstepped", "stepped", "twin", "syzygy", "injective", "projective"}
    assert ("zero", False) in kinds


def _residue_cokernel(f):
    """The cokernel by reducing every unit vector modulo the image rows, one
    pivot row at a time, and acting on lifted unit vectors through 1-row
    products: the plain construction, kept as a reference."""
    alg = f.src.algebra
    fld = alg.field
    proj_mats, nonpivs = {}, {}
    for v in alg.quiver.vertices:
        red, piv = rref(f.mats[v])
        n = f.tgt.dims[v]
        nonpiv = nonpivs[v] = [j for j in range(n) if j not in piv]
        cols = []
        for j in range(n):
            resid = [fld.zero] * n
            resid[j] = fld.one
            for i, p in enumerate(piv):
                c = resid[p]
                if c:
                    for jj in range(n):
                        resid[jj] = fld.sub(resid[jj],
                                            fld.mul(c, red.entries[i][jj]))
            cols.append([resid[q] for q in nonpiv])
        proj_mats[v] = Matrix.from_rows(fld, cols, len(nonpiv))
    action = {}
    for a in alg.quiver.arrows:
        n_src = f.tgt.dims[a.src]
        rows = []
        for q in nonpivs[a.src]:
            e = [fld.zero] * n_src
            e[q] = fld.one
            acted = Matrix.from_rows(fld, [e], n_src).mul(f.tgt.action[a.id])
            rows.append(list(acted.mul(proj_mats[a.tgt]).entries[0]))
        action[a.id] = Matrix.from_rows(fld, rows, proj_mats[a.tgt].cols)
    dims = {v: m.cols for v, m in proj_mats.items()}
    return dims, action, proj_mats


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: repr(f))
def test_cokernel_matches_residue_reference(fld):
    mods, rng = _test_modules(fld)
    mods = mods[:7]  # the orbit and k[x]/(x^4) modules
    maps = []
    for M in mods:
        maps.append(projective_cover(M)[1])
        for N in mods:
            if M.algebra is N.algebra:
                H = hom(M, N)
                maps += H.basis
                maps.append(H.element([fld.of_int(rng.randrange(-3, 4))
                                       for _ in range(H.dim)]))
    proper = False
    for f in maps:
        C, proj = cokernel(f)
        dims, action, proj_mats = _residue_cokernel(f)
        assert C.dims == dims
        assert C.action == action
        assert proj.mats == proj_mats
        assert proj.src is f.tgt and proj.tgt is C
        assert f.compose(proj).is_zero()
        proper |= 0 < C.total_dim < f.tgt.total_dim
    assert proper


# ---------------------------------------------------------------------------
# add-membership by the trace criterion, against the splitting system


def _splitting_membership(M, gens):
    """Add-membership by the splitting system, kept as a reference.

    M is in add G iff the evaluation map e: S -> M of the universal right
    approximation splits: some s: M -> S commutes with the actions and has
    s.e = id_M.  Unknowns are all of Hom_k(M, S); the commuting constraints
    and the entries of s.e - id_M are solved together by the dense
    reference solver.
    """
    if M.total_dim == 0:
        return True
    if not gens:
        return False
    alg = M.algebra
    f = alg.field
    # a zero generator adds no copy to the approximation's source
    nonzero = [g for g in gens if g.total_dim]
    if not nonzero:
        return False
    e = right_approximation(SubcatSpec(alg, nonzero, 1), M)
    S = e.src
    if S.total_dim == 0:
        return False
    for v in alg.quiver.vertices:
        if rank(e.mats[v]) != M.dims[v]:
            return False
    width_rhs = sum(d * d for d in M.dims.values())
    rows, ncols, off = commuting_system_dense(M, S)
    for r in rows:
        r.extend([f.zero] * width_rhs)
    target = [f.zero] * ncols
    for v in alg.quiver.vertices:
        E = e.mats[v]
        for i in range(M.dims[v]):
            for k in range(M.dims[v]):
                for j in range(S.dims[v]):
                    if E.entries[j][k]:
                        rows[off[v] + i * S.dims[v] + j][len(target)] = E.entries[j][k]
                target.append(f.one if i == k else f.zero)
    A = Matrix.from_rows(f, rows, len(target))
    b = Matrix.from_rows(f, [target], len(target))
    return dense_solve_left(A, b) is not None


def _jordan(alg, i):
    f = alg.field
    return Representation(alg, {"0": i}, {"a0": Matrix.from_rows(
        f, [[f.one if c == r + 1 else f.zero for c in range(i)]
            for r in range(i)], i)})


def _membership_cases(fld):
    """(M, gens) pairs: Jordan modules of k[x]/(x^n), 2 <= n <= 5, alone and
    in direct sums, with and without a projective summand; the zero module;
    generators with zero Hom to M; orbit-algebra generators and their
    syzygies."""
    rng = random.Random(9)
    cases = []
    for n in range(2, 6):
        alg = nakayama_cyclic((n,), fld)
        # random bases up to n = 4; over Q they make large fractions
        J = [None] + [_jordan(alg, i) if n == 5 else _twisted(_jordan(alg, i), rng)
                      for i in range(1, n + 1)]
        P = J[n]
        sums = [direct_sum([J[a], J[b]])
                for a in range(1, n + 1) for b in range(a, n + 1)]
        for M in J[1:] + sums + [zero_rep(alg)]:
            for _ in range(2):
                k = rng.randrange(1, 3)
                gens = [J[rng.randrange(1, n + 1)] for _ in range(k)]
                if rng.random() < 0.5:
                    gens = [direct_sum(gens)]
                cases.append((M, gens))
            cases.append((M, [J[rng.randrange(1, n + 1)], zero_rep(alg)]))
        # a projective summand, without and with the projective as a generator
        for M in J[1:n]:
            a = rng.randrange(1, n + 1)
            cases.append((direct_sum([M, P]), [J[a]]))
            cases.append((direct_sum([M, P]), [J[a], P]))
        cases.append((J[1], []))
    # generators with zero Hom to M: simples and intervals at other vertices
    orb = orbit_grid_algebra(KS, fld)
    S12 = simple_module(orb, "(1,2)")
    far = [simple_module(orb, "(2,3)"), interval_module(orb, (2, 3, 3))]
    cases += [(S12, far), (S12, far + [S12]),
              (direct_sum([S12, far[0]]), far),
              (direct_sum([S12, far[0]]), far + [S12])]
    _, spec = nakayama2_tilde(KS, 4, fld)
    G = spec.generators
    for i in range(0, len(G), 4):
        g = G[i]
        om = syzygy(g)
        cases += [(g, G), (g, G[:i] + G[i + 1:]), (om, G), (om, [g]),
                  (direct_sum([om, projective_module(spec.algebra, "(0,0)")]), G)]
    return cases


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: repr(f))
def test_add_membership_matches_splitting_reference(fld):
    seen = set()
    for M, gens in _membership_cases(fld):
        want = _splitting_membership(M, gens)
        assert add_membership(M, gens) == want
        seen.add(want)
        if M.total_dim and gens:
            seen.add(("zero hom", any(hom(g, M).dim == 0 for g in gens)))
    assert seen == {True, False, ("zero hom", True), ("zero hom", False)}


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: repr(f))
def test_hom_basis_matches_dense_kernel(fld):
    """Each basis map commutes, the maps are independent and number
    dim Hom(M, N) by the dense commuting system, and every map of the dense
    kernel's basis has coordinates that give it back."""
    mods, rng = _test_modules(fld)
    for M, gens in _membership_cases(fld)[::10]:
        mods += [m for m in [M] + gens if all(m is not x for x in mods)]
    for M in mods:
        for N in mods:
            if M.algebra is not N.algebra:
                continue
            H = HomSpace(M, N)
            for b in H.basis:
                RepMorphism(M, N, b.mats, check=True)
            vecs = [morphism_to_vec(b) for b in H.basis]
            width = sum(M.dims[v] * N.dims[v] for v in M.dims)
            assert rank(Matrix.from_rows(fld, vecs, width)) == H.dim
            assert H.dim == hom_dim_full(M, N)
            for g in hom_basis_full(M, N):
                assert H.element(H.coords(g)).mats == g.mats


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: repr(f))
def test_coords_of_a_non_morphism_raise(fld):
    """A map that agrees with a morphism on the top generators but not on a
    radical vector is no morphism: its generator images lie in the span of
    the basis, and only the recombination check rejects it."""
    orb = orbit_grid_algebra(KS, fld)
    M = projective_module(orb, "(1,2)")
    N = projective_module(orb, "(1,2)")
    H = hom(M, N)
    f = H.basis[0]
    # (0,2) carries no top generator of P((1,2)), only the path to it
    w = "(0,2)"
    assert M.dims[w] and N.dims[w]
    mats = dict(f.mats)
    row = [fld.one] + [fld.zero] * (N.dims[w] - 1)
    mats[w] = Matrix.from_rows(fld, [
        [fld.add(a, b) for a, b in zip(r, row)] for r in f.mats[w].entries],
        N.dims[w])
    g = RepMorphism(M, N, mats, check=False)
    assert not g._commutes()
    assert H._vec(g) == H._vec(f)
    with pytest.raises(ValueError, match="outside the hom space"):
        H.coords(g)


# ---------------------------------------------------------------------------
# dimensions from ranks, against the spaces built with bases


def _dimension_modules(fld):
    """Modules grouped by algebra.  Four per algebra are spread over the
    modules of the membership cases (Jordan modules of k[x]/(x^n), n <= 5,
    in twisted bases and in sums, orbit-algebra intervals and syzygies);
    each comes with its first syzygy, and the group has the zero module, up
    to two projectives and a sum with a projective summand."""
    by_alg: dict[int, list] = {}
    for M, gens in _membership_cases(fld):
        mods = by_alg.setdefault(id(M.algebra), [])
        mods += [m for m in [M] + gens
                 if m.total_dim and all(m is not x for x in mods)]
    groups = []
    for mods in by_alg.values():
        alg = mods[0].algebra
        base = mods[::-(-len(mods) // 4)]
        P = [p for _, p in projectives(alg)[:2]]
        groups.append(base + [syzygy(m) for m in base] + P
                      + [zero_rep(alg), direct_sum([base[0], P[0]])])
    return groups


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: repr(f))
def test_dimensions_from_ranks_match_bases(fld):
    stable_seen, ext_seen = set(), set()
    for mods in _dimension_modules(fld):
        for M in mods:
            for N in mods:
                assert hom_dim(M, N) == hom(M, N).dim
                for i in range(4):
                    d = ext_dim(M, N, i)
                    assert d == ext(M, N, i).dim
                    if i:
                        ext_seen.add(d > 0)
                d = _stable_dim(M, N)
                assert d == stable_hom(M, N).dim
                stable_seen.add(d > 0)
    assert stable_seen == {True, False}
    assert ext_seen == {True, False}


def test_projective_hom_memo_holds_ints_by_vertex(orbit):
    """dim Hom(A, P_v) of a stable dimension is ``hom_dim``'s memo in A's
    record, an int under the content key of P_v."""
    orbit.clear_cache()
    A = interval_module(orbit, (1, 1, 3))
    B = interval_module(orbit, (1, 2, 3))
    assert _stable_dim(A, B) == stable_hom(A, B).dim
    memo = rep._record(A).memo
    by_vertex = {v: memo.get(("hom", rep._record(projective_module(orbit, v))
                              .content)) for v in orbit.quiver.vertices}
    verts = rep._step(B).vertices
    assert verts and all(by_vertex[v] is not None for v in verts)
    for v, d in by_vertex.items():
        if d is not None:
            assert type(d) is int
            assert d == hom(A, projective_module(orbit, v)).dim


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: repr(f))
def test_projective_endomorphism_memo_holds_scalar_rows(fld):
    """P(M, M) is memoised in M's record as {column: scalar} dicts and
    nothing else, each map read at M's top generators; its rank is
    dim End(M) - dim stable End(M), which cross-checks the stable dimension
    read from ranks against one built from bases."""
    for mods in _dimension_modules(fld):
        for M in mods:
            rows = _projective_end_rows(M)
            assert rep._record(M).memo["proj_end"] is rows
            assert _projective_end_rows(M) is rows
            assert type(rows) is list
            # one column per coordinate of each top generator's vertex
            width = sum(M.dims[v] for v, _ in rep._step(M).gens)
            for r in rows:
                assert type(r) is dict and r
                for c, x in r.items():
                    assert type(c) is int and 0 <= c < width
                    assert is_canonical_scalar(fld, x) and x
            rank_p = sparse_rank(fld, [dict(r) for r in rows], width)
            assert rank_p == len(rows)
            assert rank_p == hom_dim(M, M) - stable_end_dim(M)
            assert stable_end_dim(M) == stable_hom(M, M).dim

from __future__ import annotations

import random

import pytest

from singcat import homspace, rep, tilting
from singcat.exact_linalg import Matrix, prime_field, rank, rational_field
from singcat.families import nakayama2_tilde
from singcat.homology import ext, syzygy
from singcat.homspace import add_membership, hom, is_isomorphic, stable_hom
from singcat.quiver_algebra import nakayama_cyclic
from singcat.rep import (
    RepMorphism,
    direct_sum,
    is_projective,
    kernel,
    projective_cover,
    projective_module,
    projectives,
    simple_module,
)
from singcat.tilting import (
    ApproximationNotEpi,
    ApproximationNotMono,
    Check,
    FinalTermNotInSubcategory,
    IncompleteIndecList,
    SubcatSpec,
    _is_exact,
    d_coresolution,
    d_resolution,
    left_approximation,
    right_approximation,
    standard_angle,
    verify_cluster_tilting,
    verify_dZ_closure,
    verify_gen_cogen,
    verify_rigid,
)

from builders import uniserial
from dense_reference import row_space_contains


def factors_through(phi, f):
    """Does phi: g -> N factor as g -> f.src -> N through f?"""
    H = hom(phi.src, f.src)
    target = hom(phi.src, f.tgt)
    if target.dim == 0:
        return True
    rows = [list(target.coords(b.compose(f))) for b in H.basis]
    mat = Matrix(phi.src.algebra.field, len(rows), target.dim, rows)
    return row_space_contains(mat, target.coords(phi))


def test_kx2_pair_is_rigid_only_in_degree_zero(kx2):
    S = simple_module(kx2, "0")
    P = projective_module(kx2, "0")
    spec = SubcatSpec(kx2, [S, P], 2, labels=["S", "P"])
    check = verify_rigid(spec)
    assert not check.ok
    assert check.witness == ("S", "S", 1)


def test_repeated_generator_label_is_rejected(kx2):
    # reports key their entries by label, so a repeat would merge two
    # generators' entries
    S = simple_module(kx2, "0")
    P = projective_module(kx2, "0")
    with pytest.raises(ValueError, match="repeated generator label 'S'"):
        SubcatSpec(kx2, [S, P], 1, labels=["S", "S"])


def test_kx2_all_indecomposables_verify_fully(kx2):
    S = simple_module(kx2, "0")
    P = projective_module(kx2, "0")
    spec = SubcatSpec(kx2, [S, P], 1, labels=["S", "P"])
    report = verify_cluster_tilting(spec, indec_list=[S, P])
    assert report.verdict == "verified"
    assert report.checks["rigid"].ok
    assert report.checks["orthogonality_equality"].ok


def test_kx2_projectives_alone_fail_full_mode(kx2):
    """With d=1 the orthogonality condition is vacuous, so every
    indecomposable would have to lie in add(P); the simple does not."""
    S = simple_module(kx2, "0")
    P = projective_module(kx2, "0")
    spec = SubcatSpec(kx2, [P], 1, labels=["P"])
    report = verify_cluster_tilting(spec, indec_list=[S, P])
    assert report.verdict == "refuted"
    assert is_isomorphic(report.counterexample, S)


def test_full_mode_rejects_incomplete_indec_list(kx2):
    S = simple_module(kx2, "0")
    P = projective_module(kx2, "0")
    spec = SubcatSpec(kx2, [S, P], 1, labels=["S", "P"])
    with pytest.raises(IncompleteIndecList):
        verify_cluster_tilting(spec, indec_list=[S])
    # right total dimension, but S + S is not the projective
    with pytest.raises(IncompleteIndecList):
        verify_cluster_tilting(spec, indec_list=[S, direct_sum([S, S])])


@pytest.mark.parametrize("fld", [rational_field(), prime_field(2),
                                 prime_field(101)], ids=["Q", "F2", "F101"])
def test_full_mode_refutes_a_one_sided_orthogonal_module(fld):
    """Over Nakayama (3,3,3) with d = 2, C = {M(0,1), M(0,2), M(0,3),
    M(1,3), M(2,3)} passes the certificate checks.  Ext^1(C, M(2,2)) = 0,
    but M(2,2) is not in add C, so C^perp is not add C; Ext^1(M(2,2),
    M(0,2)) is nonzero, so M(2,2) is orthogonal on one side only."""
    alg = nakayama_cyclic((3, 3, 3), fld)
    C = [uniserial(alg, i, l)
         for i, l in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))]
    spec = SubcatSpec(alg, C, 2)
    W = uniserial(alg, 2, 2)
    assert [ext(g, W, 1).dim for g in C] == [0] * 5
    assert ext(W, C[1], 1).dim and not add_membership(W, C)
    assert verify_cluster_tilting(spec).verdict == "certificate_only"
    indec = [uniserial(alg, i, l) for i in range(3) for l in range(1, 4)]
    report = verify_cluster_tilting(spec, [W] + indec)
    assert report.verdict == "refuted"
    assert report.counterexample is W
    check = report.checks["orthogonality_equality"]
    assert not check.ok and check.note.endswith("right, Ext(C, L) = 0")
    # the full list alone is refuted too, at a module orthogonal on the left
    report = verify_cluster_tilting(spec, indec)
    assert report.verdict == "refuted"
    assert "left" in report.checks["orthogonality_equality"].note


def test_warm_left_approximation_transposes_no_generator(orbit_spec,
                                                        monkeypatch):
    """The dual spec is built once and kept on the spec: a second left
    approximation transposes only its own module and maps."""
    N = simple_module(orbit_spec.algebra, "(0,1)")
    left_approximation(orbit_spec, N)
    gen_mats = {id(m) for g in orbit_spec.generators
                for m in g.action.values() if m.rows and m.cols}
    transposed = []
    transpose = Matrix.transpose

    def recording(self):
        transposed.append(self)
        return transpose(self)

    monkeypatch.setattr(Matrix, "transpose", recording)
    f = left_approximation(orbit_spec, N)
    assert transposed and not any(id(m) in gen_mats for m in transposed)
    assert all(rank(f.mats[v]) == N.dims[v] for v in N.dims)


def test_hereditary_single_projective_does_not_cogenerate(hereditary_a2):
    Pu = projective_module(hereditary_a2, "u")
    spec = SubcatSpec(hereditary_a2, [Pu], 1, labels=["Pu"])
    checks = verify_gen_cogen(spec)
    assert not checks["cogenerating"].ok
    # the simple at u admits no map at all into P(u), so its injective
    # envelope I(u) fails; a simple is never the first failure
    assert checks["cogenerating"].witness == "I(u)"


def test_kx2_projectives_cogenerate(kx2):
    # self-injective, so add(P) cogenerates even though it fails full mode
    P = projective_module(kx2, "0")
    spec = SubcatSpec(kx2, [P], 1, labels=["P"])
    checks = verify_gen_cogen(spec)
    assert checks["generating"].ok
    assert checks["cogenerating"].ok


def test_orbit_window_spec_passes_certificate_mode(orbit_spec):
    report = verify_cluster_tilting(orbit_spec)
    assert report.verdict == "certificate_only"
    assert all(c.ok for c in report.checks.values())


def test_passing_checks_build_no_hom_basis_and_test_each_syzygy_once(
        orbit_spec, monkeypatch):
    """A passing generation/cogeneration check compares Hom dimensions only,
    and the closure check tests each distinct d-th syzygy content that is
    not projective once."""
    homs, approximations, members = [], [], []
    init = homspace.HomSpace.__init__
    approximate = tilting.right_approximation
    member = tilting.stable_add_membership

    def counting_init(self, M, N):
        homs.append((M, N))
        init(self, M, N)

    def counting_approximation(spec, N):
        approximations.append(N)
        return approximate(spec, N)

    def counting_member(X, gens):
        members.append(X)
        return member(X, gens)

    monkeypatch.setattr(homspace.HomSpace, "__init__", counting_init)
    monkeypatch.setattr(tilting, "right_approximation",
                        counting_approximation)
    monkeypatch.setattr(tilting, "stable_add_membership", counting_member)
    assert verify_gen_cogen(orbit_spec) == {"generating": Check(True),
                                            "cogenerating": Check(True)}
    assert homs == [] and approximations == []
    assert verify_dZ_closure(orbit_spec) == Check(True)
    syzygies = [syzygy(g, orbit_spec.d) for g in orbit_spec.generators]
    distinct = {rep._record(X).content for X in syzygies
                if not is_projective(X)}
    tested = [rep._record(X).content for X in members]
    assert len(tested) == len(set(tested)) and set(tested) == distinct
    assert len(members) == 7


def test_orbit_spec_stays_valid_after_adding_projectives(orbit_spec):
    alg = orbit_spec.algebra
    extra = [p for _, p in projectives(alg)]
    names = [f"P{v}" for v, _ in projectives(alg)]
    bigger = SubcatSpec(alg, orbit_spec.generators + extra, 2,
                        labels=orbit_spec.labels + names)
    assert verify_rigid(bigger).ok
    assert verify_dZ_closure(bigger).ok


def test_first_syzygies_are_stably_orthogonal_to_generators(orbit_spec):
    """Rigidity in degree one, read through the syzygy functor."""
    gens = orbit_spec.generators
    for g in gens[:6]:
        og = syzygy(g, 1)
        for h in gens[:6]:
            assert stable_hom(og, h).dim == ext(g, h, 1).dim == 0


def test_right_approximation_of_a_generator_splits(orbit_spec):
    g = orbit_spec.generators[5]
    f = right_approximation(orbit_spec, g)
    assert all(rank(f.mats[v]) == g.dims[v] for v in g.dims)
    ident = hom(g, g).basis
    assert any(not b.is_zero() for b in ident)
    assert factors_through(ident[0], f)


def test_left_approximation_of_a_generator_splits(orbit_spec):
    g = orbit_spec.generators[5]
    f = left_approximation(orbit_spec, g)
    assert all(rank(f.mats[v]) == g.dims[v] for v in g.dims)


def test_approximation_universality_on_random_instances():
    """Every map from a generator factors through the right approximation,
    and every map to a generator factors through the left one."""
    from singcat.exact_linalg import rational_field
    QQ = rational_field()
    algebras = [nakayama_cyclic(ks, QQ) for ks in ((2,), (4,), (3, 3))]
    rng = random.Random(7)
    for _ in range(25):
        alg = rng.choice(algebras)
        verts = list(alg.quiver.vertices)
        pool = [simple_module(alg, v) for v in verts]
        pool += [projective_module(alg, v) for v in verts]
        pool += [syzygy(simple_module(alg, v), rng.randrange(1, 3))
                 for v in verts]
        gens = rng.sample(pool, k=rng.randrange(1, min(4, len(pool)) + 1))
        gens = [g for g in gens if g.total_dim] or [pool[0]]
        spec = SubcatSpec(alg, gens, rng.choice((1, 2)))
        N = direct_sum(rng.sample(pool, k=rng.randrange(1, 3)))
        f = right_approximation(spec, N)
        for g in gens:
            for phi in hom(g, N).basis:
                assert factors_through(phi, f)
        # dual side: psi: N -> g must be (left approx) then (something)
        ell = left_approximation(spec, N)
        for g in gens:
            tgt = hom(N, g)
            if tgt.dim == 0:
                continue
            H = hom(ell.tgt, g)
            rows = [list(tgt.coords(ell.compose(b))) for b in H.basis]
            mat = Matrix(alg.field, len(rows), tgt.dim, rows)
            for psi in tgt.basis:
                assert row_space_contains(mat, tgt.coords(psi))


def test_resolution_of_a_generator_is_a_single_term(orbit_spec):
    E = simple_module(orbit_spec.algebra, "(0,0)")
    assert add_membership(E, orbit_spec.generators)
    res = d_resolution(orbit_spec, E)
    assert len(res.terms) == 1
    assert res.diffs == []
    assert res.aug.is_iso()


def test_resolution_of_an_outside_simple_has_two_terms(orbit_spec):
    E = simple_module(orbit_spec.algebra, "(1,2)")
    assert not add_membership(E, orbit_spec.generators)
    res = d_resolution(orbit_spec, E)
    assert len(res.terms) == 2
    for T in res.terms:
        assert add_membership(T, orbit_spec.generators)
    # exactness bookkeeping: a length-L resolution forces ext vanishing
    # in degrees 1..d-L against every generator
    L = len(res.terms) - 1
    for g in orbit_spec.generators[:8]:
        for t in range(1, orbit_spec.d - L + 1):
            assert ext(g, E, t).dim == 0


def test_resolution_stops_at_the_degree_cap(kx2):
    P = projective_module(kx2, "0")
    S = simple_module(kx2, "0")
    spec = SubcatSpec(kx2, [P], 1, labels=["P"])
    with pytest.raises(FinalTermNotInSubcategory):
        d_resolution(spec, S)


def test_resolution_needs_an_onto_approximation(kx2):
    S = simple_module(kx2, "0")
    spec = SubcatSpec(kx2, [S], 1, labels=["S"])
    with pytest.raises(ApproximationNotEpi):
        d_resolution(spec, projective_module(kx2, "0"))


def test_coresolution_of_an_outside_simple(orbit_spec):
    E = simple_module(orbit_spec.algebra, "(1,2)")
    cores = d_coresolution(orbit_spec, E)
    assert 1 <= len(cores.terms) <= orbit_spec.d
    for T in cores.terms:
        assert add_membership(T, orbit_spec.generators)


def test_coresolution_needs_a_one_to_one_approximation(kx2):
    S = simple_module(kx2, "0")
    spec = SubcatSpec(kx2, [S], 1, labels=["S"])
    with pytest.raises(ApproximationNotMono):
        d_coresolution(spec, projective_module(kx2, "0"))


def test_standard_angle_of_the_base_interval(orbit_spec):
    X = orbit_spec.by_label("(0,0,0)")
    ang = standard_angle(orbit_spec, X)
    assert len(ang.objects) == 4
    assert ang.objects[-1] is X
    assert is_isomorphic(ang.objects[0], orbit_spec.by_label("(2,3,3)"))


def test_standard_angle_with_projective_second_syzygy(orbit_spec):
    X = orbit_spec.by_label("(2,2,2)")
    ang = standard_angle(orbit_spec, X)
    assert is_projective(ang.objects[0])


def test_standard_angle_for_d_equal_one(kx2):
    S = simple_module(kx2, "0")
    P = projective_module(kx2, "0")
    spec = SubcatSpec(kx2, [S, P], 1, labels=["S", "P"])
    ang = standard_angle(spec, S)
    assert len(ang.objects) == 3
    assert [T.total_dim for T in ang.objects] == [1, 2, 1]
    assert is_isomorphic(ang.objects[0], S)


def test_is_exact_checks_composites_and_every_object(kx4):
    f = kx4.field
    o, z = f.one, f.zero
    S = simple_module(kx4, "0")
    S2, S3 = direct_sum([S, S]), direct_sum([S, S, S])

    def unit_map(src, tgt, rows):
        return RepMorphism(src, tgt, {"0": Matrix.from_rows(f, rows, tgt.dims["0"])})

    into1 = unit_map(S, S2, [(o, z)])
    onto1, onto2 = unit_map(S2, S, [(o,), (z,)]), unit_map(S2, S, [(z,), (o,)])
    # 0 -> rad P -> P -> S -> 0
    _, eps = projective_cover(S)
    _, inc = kernel(eps)
    assert _is_exact([inc, eps])
    assert _is_exact([into1, onto2])
    # ranks add up everywhere, but the composite is the identity of S
    assert not _is_exact([into1, onto1])
    # 0 -> S -> S^3 -> S -> 0 composes to zero and is exact at both ends
    assert not _is_exact([unit_map(S, S3, [(o, z, z)]),
                          unit_map(S3, S, [(z,), (o,), (z,)])])
    # one-to-one on S but not onto S^2, and the other way round
    assert not _is_exact([into1])
    assert not _is_exact([onto2])

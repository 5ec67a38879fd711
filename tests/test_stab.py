from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from singcat import homology, homspace, rep, stab
from singcat.exact_linalg import Matrix, prime_field, rank, rational_field
from singcat.homology import ext, ext_dim, syzygy, syzygy_morphism
from singcat.homspace import is_isomorphic, stable_hom
from singcat.families import nakayama2_tilde
from singcat.quiver_algebra import nakayama_cyclic
from singcat.rep import (
    Representation,
    injective_module,
    is_projective,
    projective_module,
    projectives,
    regular_module,
    simple_module,
)
from singcat.stab import (
    GpCertificate,
    OrbitNotResolved,
    StableObject,
    gp_certificate,
    gp_intersection_check,
    is_iwanaga_gorenstein,
    skeleton,
    stab_hom,
    stabilize_angle,
    standard_triangle,
)
from singcat.tilting import SubcatSpec, standard_angle

from builders import jordan_module, jordan_spec


def test_shift_arithmetic_on_stable_objects(kx2):
    S = simple_module(kx2, "0")
    x = StableObject(S, 3)
    assert x.suspend().shift == 2
    assert x.loop().shift == 4
    assert x.suspend().module is S


def test_truncated_polynomial_skeletons_match_brute_force():
    """For k[x]/(x^n) the stable category has modules M_1..M_{n-1}, the
    syzygy swaps M_i with M_{n-i}, and the class count is always n-1."""
    from singcat.exact_linalg import rational_field
    QQ = rational_field()
    for n in (2, 3, 4, 5):
        alg = nakayama_cyclic((n,), QQ)
        spec = jordan_spec(alg, n)
        rep = skeleton(spec)
        assert [lbl for lbl, _ in rep.zero_classes] == [f"M{n}"]
        assert rep.count == n - 1
        for i in range(1, n):
            om = syzygy(jordan_module(alg, i), 1)
            assert is_isomorphic(om, jordan_module(alg, n - i))
        # stable hom dims against the closed formula, via the skeleton matrix
        def sdim(i, j):
            return min(i, j) - max(0, i + j - n)
        sizes = [c.representative.module.total_dim for c in rep.classes]
        for a, i in enumerate(sizes):
            for b, j in enumerate(sizes):
                assert rep.hom_matrix[a][b] == sdim(i, j)
        assert all(rep.hom_matrix[a][a] >= 1 for a in range(rep.count))


def test_hereditary_skeleton_is_empty(hereditary_a2):
    Pu = projective_module(hereditary_a2, "u")
    Pv = projective_module(hereditary_a2, "v")
    Su = simple_module(hereditary_a2, "u")
    Sv = simple_module(hereditary_a2, "v")
    spec = SubcatSpec(hereditary_a2, [Pu, Pv, Su, Sv], 1,
                      labels=["Pu", "Pv", "Su", "Sv"])
    rep = skeleton(spec)
    assert rep.count == 0
    assert rep.hom_matrix == []
    assert sorted(lbl for lbl, _ in rep.zero_classes) == [
        "Pu", "Pv", "Su", "Sv"]
    assert all(c.status == "finite" for _, c in rep.zero_classes)


def test_orbit_skeleton_classes_and_zero_classes(orbit_spec):
    rep = skeleton(orbit_spec, claimed_count=4)
    assert rep.count == 3
    assert rep.claimed_count == 4
    assert rep.count_discrepancy
    assert rep.discrepancy_note is not None
    assert "3" in rep.discrepancy_note and "4" in rep.discrepancy_note
    # one 3-cycle of second syzygies carries every surviving generator
    assert [c.orbit_length for c in rep.classes] == [3, 3, 3]
    assert [c.shift_period for c in rep.classes] == [6, 6, 6]
    first = rep.classes[0].cycle_labels
    assert first == ["(0,0,0)", "(2,3,3)", "(1,1,2)"]
    assert rep.hom_matrix == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    nonproj_zero = sorted(l for l, c in rep.zero_classes if c.n > 0)
    assert nonproj_zero == ["(1,2,2)", "(2,2,2)", "(3,3,3)", "(3,3,4)"]
    proj_zero = sorted(l for l, c in rep.zero_classes if c.n == 0)
    assert proj_zero == sorted(
        ["(0,0,1)", "(0,1,1)", "(0,0,2)", "(0,1,2)", "(0,2,2)", "(1,1,3)",
         "(1,2,3)", "(1,3,3)", "(2,2,4)", "(2,3,4)", "(2,4,4)"])


def test_orbit_skeleton_membership_covers_every_generator(orbit_spec):
    rep = skeleton(orbit_spec)
    assert set(rep.membership) == set(orbit_spec.labels)
    for lbl in orbit_spec.labels:
        kind, idx = rep.membership[lbl]
        if kind == "zero":
            assert idx is None
        else:
            assert 0 <= idx < rep.count
    # tail generators land on the cycle with the shift bookkeeping
    assert rep.membership["(3,4,4)"] == ("class", 0)
    assert rep.membership["(1,1,1)"][0] == "class"
    tail_lines = [s for s in rep.identification if "(3,4,4)" in s]
    assert tail_lines and "-6" in tail_lines[0]


def test_orbit_skeleton_count_without_claim_is_not_flagged(orbit_spec):
    rep = skeleton(orbit_spec)
    assert rep.claimed_count is None
    assert not rep.count_discrepancy
    assert rep.discrepancy_note is None


def test_claim_tags_on_the_spec_are_read(orbit_spec):
    tagged = SubcatSpec(orbit_spec.algebra, orbit_spec.generators, 2,
                        labels=orbit_spec.labels,
                        claims=["skeleton_count=4"])
    rep = skeleton(tagged)
    assert rep.claimed_count == 4
    assert rep.count_discrepancy


def test_all_shifts_variant_triples_the_count(orbit_spec):
    rep = skeleton(orbit_spec, all_shifts=True)
    assert rep.count == 6
    shifts = sorted(c.representative.shift for c in rep.classes)
    assert shifts == [0, 0, 0, 1, 1, 1]


def test_stab_hom_detects_identified_and_distinct_shifts(orbit_spec):
    M = orbit_spec.by_label("(0,0,0)")
    for t in (0, 1, 2, 3, 4):
        h = stab_hom(StableObject(M, 0), StableObject(M, 2 * t), orbit_spec)
        assert h.status == "certified"
        assert h.dim == (1 if t % 3 == 0 else 0)
    end = stab_hom(StableObject(M, 0), StableObject(M, 0), orbit_spec)
    assert end.route == "identity_end"
    # the clean-tail criterion fails on this orbit (odd stages are dirty),
    # which is exactly why the periodicity routes exist
    assert end.criterion_holds is False
    zero = stab_hom(StableObject(M, 0), StableObject(M, 2), orbit_spec)
    assert zero.route == "zero_tail"


def test_stab_hom_vanishes_against_finite_dimension_classes(orbit_spec):
    M = orbit_spec.by_label("(0,0,0)")
    Z = orbit_spec.by_label("(2,2,2)")
    h = stab_hom(StableObject(Z, 0), StableObject(M, 0), orbit_spec)
    assert (h.status, h.dim, h.route) == ("certified", 0, "side_vanishes")
    h = stab_hom(StableObject(M, 0), StableObject(Z, 4), orbit_spec)
    assert (h.status, h.dim) == ("certified", 0)


def test_stab_hom_respects_the_loop_identification(orbit_spec):
    """(X, n) and (loop X, n-1) have the same Homs against every test."""
    M = orbit_spec.by_label("(0,0,0)")
    OX = syzygy(M, 1)
    tests = [StableObject(M, 0), StableObject(orbit_spec.by_label("(2,3,3)"), 0),
             StableObject(orbit_spec.by_label("(1,1,2)"), 2)]
    for T in tests:
        a = stab_hom(StableObject(M, 2), T, orbit_spec)
        b = stab_hom(StableObject(OX, 1), T, orbit_spec)
        assert a.status == b.status == "certified"
        assert a.dim == b.dim


def test_clean_tail_certification_is_uniform_in_the_target():
    """Over k[x]/(x^3) the source-side criterion certifies at stage 0 no
    matter which generator sits on the other side."""
    from singcat.exact_linalg import rational_field
    alg = nakayama_cyclic((3,), rational_field())
    spec = jordan_spec(alg, 3)
    M1, M2 = spec.generators[0], spec.generators[1]
    stages = []
    for y in (M1, M2):
        h = stab_hom(StableObject(M1, 0), StableObject(y, 0), spec)
        assert h.route == "orthogonal_tail"
        assert h.criterion_holds
        stages.append(h.stage)
    assert stages == [0, 0]
    assert stab_hom(StableObject(M1, 0), StableObject(M2, 0), spec).dim == 1


@pytest.mark.parametrize("fld", [rational_field(), prime_field(101)],
                         ids=["Q", "F101"])
def test_skeleton_hom_routes_walk_each_side_once(monkeypatch, fld):
    """The (route, dim, stage) tally of every skeleton Hom entry, with each
    stab_hom call walking at most two syzygy orbits, X's and Y's."""
    tally, walks = Counter(), []
    real_walk, real_hom = stab.pd_certificate, stab.stab_hom

    def counted_walk(*args):
        walks.append(args[0])
        return real_walk(*args)

    def tallied_hom(*args):
        walks.clear()
        h = real_hom(*args)
        assert len(walks) <= 2
        tally[h.route, h.dim, h.stage] += 1
        return h
    monkeypatch.setattr(stab, "pd_certificate", counted_walk)
    monkeypatch.setattr(stab, "stab_hom", tallied_hom)

    def routes(spec, **kw):
        tally.clear()
        skeleton(spec, **kw)
        return dict(tally)
    _, tilde = nakayama2_tilde((3, 2, 3, 3), 4, fld)
    assert routes(tilde) == {("identity_end", 1, 0): 3, ("zero_tail", 0, 0): 6}
    assert routes(tilde, all_shifts=True) == {("identity_end", 1, 0): 6,
                                              ("zero_tail", 0, 0): 30}
    kx5 = jordan_spec(nakayama_cyclic((5,), fld), 5)
    assert routes(kx5) == {("orthogonal_tail", 1, 0): 12,
                           ("orthogonal_tail", 2, 0): 4}


@pytest.mark.parametrize("fld", [rational_field(), prime_field(101)],
                         ids=["Q", "F101"])
def test_skeleton_walks_each_orbit_once(monkeypatch, fld):
    """One orbit walk per (content, horizon): the Hom entries of a skeleton
    read the certificates of its generators' walks, so the walks and the
    stable-class tests inside them stay at one per orbit member.  Of the
    22 generators of a2-tilde-3233, (0,0,0) and (4,4,4) share one content,
    and two more contents are seeded by earlier generators' walks, so 19
    are walked."""
    calls = Counter()
    real_walk, real_match = homology._walk_orbit, homology.stable_iso

    def walk(*args):
        calls["walks"] += 1
        return real_walk(*args)

    def match(*args):
        calls["matches"] += 1
        return real_match(*args)
    monkeypatch.setattr(homology, "_walk_orbit", walk)
    monkeypatch.setattr(homology, "stable_iso", match)

    def counts(spec, **kw):
        calls.clear()
        skeleton(spec, **kw)
        return calls["walks"], calls["matches"]
    walks, matches = counts(nakayama2_tilde((3, 2, 3, 3), 4, fld)[1])
    assert walks <= 19 and matches <= 232
    # with all_shifts, the shifted objects' certificates were seeded by
    # their generators' walks
    walks, matches = counts(nakayama2_tilde((3, 2, 3, 3), 4, fld)[1],
                            all_shifts=True)
    assert walks == 19 and matches <= 280
    walks, matches = counts(jordan_spec(nakayama_cyclic((5,), fld), 5))
    assert walks <= 5 and matches <= 8


@pytest.mark.parametrize("fld", [rational_field(), prime_field(101)],
                         ids=["Q", "F101"])
def test_seeded_orbit_certificates_match_fresh_walks(fld):
    """Each orbit member a walk passes gets the certificate a walk of its
    own would give: checked against a walk of the same matrices over a
    freshly built algebra, where no content has a record."""
    _, spec = nakayama2_tilde((3, 2, 3, 3), 4, fld)
    skeleton(spec, all_shifts=True)
    fresh_alg = nakayama2_tilde((3, 2, 3, 3), 4, fld)[0]
    seen, kinds = set(), Counter()
    for g in spec.generators:
        cur = g
        while getattr(cur, "_syzygy_step", None) is not None:
            cur = cur._syzygy_step[1]
            record = rep._record(cur)
            cert = record.memo.get(("pd", 24))
            if cert is None or record.content in seen:
                continue
            seen.add(record.content)
            kinds[cert.status, cert.preperiod or 0] += 1
            fresh = Representation(fresh_alg, cur.dims, cur.action)
            assert homology._walk_orbit(fresh, 24) == cert
    assert kinds["finite", 0] and kinds["infinite_periodic", 0]
    assert sum(n for (status, pre), n in kinds.items()
               if status == "infinite_periodic" and pre) > 0


def test_stab_hom_with_tiny_horizon_is_undetermined(orbit_spec):
    M = orbit_spec.by_label("(0,0,0)")
    h = stab_hom(StableObject(M, 0), StableObject(M, 0), orbit_spec,
                 horizon=1)
    assert h.status == "undetermined"
    assert h.dim is None


def test_skeleton_raises_when_the_orbit_leaves_the_list(orbit_spec):
    alg = orbit_spec.algebra
    lone = SubcatSpec(alg, [orbit_spec.by_label("(0,0,0)")], 2,
                      labels=["(0,0,0)"])
    with pytest.raises(OrbitNotResolved):
        skeleton(lone)


def test_skeleton_raises_at_a_hopeless_horizon(orbit_spec):
    with pytest.raises(OrbitNotResolved):
        skeleton(orbit_spec, horizon=1)


def test_zero_class_certificates_are_sound(orbit_spec):
    rep = skeleton(orbit_spec)
    for lbl, cert in rep.zero_classes:
        assert cert.status == "finite"
        g = orbit_spec.by_label(lbl)
        assert is_projective(syzygy(g, cert.n))
    for c in rep.classes:
        from singcat.homology import pd_certificate
        assert pd_certificate(c.representative.module).status == \
            "infinite_periodic"


def test_syzygy_permutes_skeleton_classes(orbit_spec):
    """Advancing a class representative by the degree shifts it one spot
    along its cycle, so the induced map on classes is a bijection."""
    rep = skeleton(orbit_spec)
    images = []
    for c in rep.classes:
        im = syzygy(c.representative.module, orbit_spec.d)
        hits = [idx for idx, o in enumerate(rep.classes)
                if stable_hom(im, o.representative.module).dim > 0
                and stable_hom(o.representative.module, im).dim > 0]
        assert len(hits) == 1
        images.append(hits[0])
    assert sorted(images) == list(range(rep.count))


def test_standard_triangle_signs_and_shifts(orbit_spec):
    E = orbit_spec.by_label("(0,0,0)")
    tr = standard_triangle(E)
    assert [o.shift for o in tr.objects] == [0, 0, 0]
    assert tr.connecting_sign == 1
    assert tr.objects[2].module is E
    comp = tr.maps[0].compose(tr.maps[1])
    assert comp.is_zero()
    shifted = standard_triangle(E, k=1)
    assert [o.shift for o in shifted.objects] == [-1, -1, -1]
    assert shifted.connecting_sign == -1
    # odd shift negates the maps but exactness data is unchanged
    assert shifted.maps[0].compose(shifted.maps[1]).is_zero()
    assert not shifted.maps[1].is_zero()
    double = standard_triangle(E, k=2)
    assert double.connecting_sign == 1


@pytest.mark.parametrize("fld", [rational_field(), prime_field(101)],
                         ids=repr)
def test_standard_triangle_is_the_stabilized_one_angle(fld):
    """The triangle of E's cover sequence and E's standard 1-angle pushed
    into the stabilization agree at every shift: modules, shifts, map
    matrices and connecting sign."""
    _, spec = nakayama2_tilde((3, 2, 3, 3), 4, fld)
    ends = [E for E in spec.generators if not is_projective(E)]
    assert ends
    for E in ends:
        for k in range(4):
            tr = standard_triangle(E, k)
            ang = stabilize_angle(standard_angle(spec, E, 1), k)
            assert [(o.module.dims, o.module.action, o.shift)
                    for o in tr.objects] == [
                (o.module.dims, o.module.action, o.shift)
                for o in ang.objects]
            assert [m.mats for m in tr.maps] == [m.mats for m in ang.maps]
            assert (tr.connecting_sign, tr.k) == (ang.connecting_sign, k)


def test_pushing_an_angle_into_the_stabilization(orbit_spec):
    ang = standard_angle(orbit_spec, orbit_spec.by_label("(4,4,4)"))
    st = stabilize_angle(ang, k=3)
    assert len(st.objects) == len(ang.objects)
    assert all(o.shift == -3 for o in st.objects)
    assert st.connecting_sign == -1
    for a, b in zip(st.maps, st.maps[1:]):
        assert a.compose(b).is_zero()
    plain = stabilize_angle(ang)
    assert plain.connecting_sign == 1
    assert plain.maps[0] is ang.maps[0]


def test_gorenstein_verdicts_on_the_small_algebras(kx2, hereditary_a2):
    g = is_iwanaga_gorenstein(kx2)
    assert g.verdict == "gorenstein"
    assert g.bound == 0
    h = is_iwanaga_gorenstein(hereditary_a2)
    assert h.verdict == "gorenstein"
    assert h.bound <= 1


def test_orbit_algebra_is_not_gorenstein(orbit_spec):
    report = is_iwanaga_gorenstein(orbit_spec.algebra)
    assert report.verdict == "not_gorenstein"
    assert "(3,4)" in report.witnesses
    assert report.injective_pd["(3,4)"].status == "infinite_periodic"
    # that injective is the interval module (3,4,4)
    I = injective_module(orbit_spec.algebra, "(3,4)")
    assert is_isomorphic(I, orbit_spec.by_label("(3,4,4)"))


def test_gp_certificates_on_the_small_algebras(kx2, hereditary_a2):
    S = simple_module(kx2, "0")
    cert = gp_certificate(S)
    assert cert.status == "gp_certified"
    assert (cert.preperiod, cert.period) == (0, 1)
    assert gp_certificate(projective_module(kx2, "0")).status == \
        "gp_certified"
    bad = gp_certificate(simple_module(hereditary_a2, "u"))
    assert bad.status == "not_gp"
    assert bad.witness == (1, "v")


def test_gp_witness_for_the_base_interval(orbit_spec):
    cert = gp_certificate(orbit_spec.by_label("(0,0,0)"))
    assert cert.status == "not_gp"
    assert cert.witness == (6, "(0,1)")
    deg, v = cert.witness
    M = orbit_spec.by_label("(0,0,0)")
    assert ext(M, projective_module(orbit_spec.algebra, v), deg).dim == 1
    for i in range(1, deg):
        for w, P in projectives(orbit_spec.algebra):
            assert ext(M, P, i).dim == 0


def test_gp_intersection_report_on_kx2(kx2):
    S = simple_module(kx2, "0")
    P = projective_module(kx2, "0")
    spec = SubcatSpec(kx2, [S, P], 1, labels=["S", "P"])
    rep = gp_intersection_check(spec)
    assert rep.gp_labels == ["S", "P"]
    assert rep.rigid.ok and rep.closure.ok
    assert rep.sigma_bijective
    assert rep.hypothesis == "certified"


def test_gp_intersection_report_on_the_orbit_algebra(orbit_spec):
    rep = gp_intersection_check(orbit_spec)
    assert rep.hypothesis == "failed"
    assert rep.gorenstein.verdict == "not_gorenstein"
    # only the projective generators certify; all survivors carry witnesses
    proj_labels = sorted(
        l for l, c in skeleton(orbit_spec).zero_classes if c.n == 0)
    assert sorted(rep.gp_labels) == proj_labels
    assert rep.rigid.ok and rep.closure.ok
    assert rep.sigma_bijective
    for lbl in ("(0,0,0)", "(2,3,3)", "(1,1,2)", "(2,2,2)"):
        assert rep.statuses[lbl].status == "not_gp"


def test_random_shift_pairs_certify_consistently(orbit_spec):
    rng = random.Random(11)
    M = orbit_spec.by_label("(0,0,0)")
    for _ in range(12):
        s = 2 * rng.randrange(0, 6)
        t = 2 * rng.randrange(0, 6)
        h = stab_hom(StableObject(M, s), StableObject(M, t), orbit_spec)
        assert h.status == "certified"
        assert h.dim == (1 if (s - t) % 6 == 0 else 0)


# Regression guards on the mod A work of one skeleton.  A stable-class
# match first looks for an isomorphism: equal matrices, then a vector of
# one Hom space whose generator images span the target over its radical
# (_iso_certificate), which stable_iso keeps for its trace test.  On the
# Jordan spec every match has equal matrices, so no Hom space is built and
# no certificate is sought.  In a monomial basis change of it (a
# permutation times nonzero scalars, as perfbench applies) every match has
# such a vector, so the trace test never runs and no basis map is built.
# Stable-class pairs are rejected by their syzygy dimension vectors before
# any Hom system, and Ext^1-cleanliness is memoised per module, so ext_dim
# runs once per cycle member.
KX5_SKELETON_EXT_DIM_CALLS = 8
KX5_TWISTED_SKELETON_HOM_CALLS = 6
KX5_TWISTED_SKELETON_ISO_CERTIFICATE_CALLS = 6
SCALARS = (1, -1, 2, -2, 3, -3)


def twisted_jordan_module(alg, i, rng):
    """jordan_module(alg, i) in a monomial basis: entry (r, c) of the
    shift becomes s[r] / s[c] * A[p(r)][p(c)]."""
    f = alg.field
    A = jordan_module(alg, i).action["a0"].entries
    p = rng.sample(range(i), i)
    s = [f.of_int(rng.choice(SCALARS)) for _ in range(i)]
    rows = [[f.div(f.mul(s[r], A[p[r]][p[c]]), s[c]) for c in range(i)]
            for r in range(i)]
    return Representation(alg, {"0": i}, {"a0": Matrix.from_rows(f, rows, i)})


def _kx5_skeleton_calls(monkeypatch, twist=None, **homes) -> dict:
    """Calls of each named function (keyword: its defining module) during
    one kx5 F_101 skeleton, on generators twisted by the seed ``twist``."""
    calls = dict.fromkeys(homes, 0)
    for fname, home in homes.items():
        orig = getattr(home, fname)

        def counting(*args, _orig=orig, _name=fname):
            calls[_name] += 1
            return _orig(*args)

        for name, mod in list(sys.modules.items()):
            if (name.split(".")[0] == "singcat"
                    and getattr(mod, fname, None) is orig):
                monkeypatch.setattr(mod, fname, counting)
    alg = nakayama_cyclic((5,), prime_field(101))
    if twist is None:
        spec = jordan_spec(alg, 5)
    else:
        rng = random.Random(twist)
        spec = SubcatSpec(alg, [twisted_jordan_module(alg, i, rng)
                                for i in range(1, 6)], 1)
    report = skeleton(spec)
    assert report.count == 4
    return calls


def test_kx5_skeleton_hom_call_budget(monkeypatch):
    calls = _kx5_skeleton_calls(monkeypatch, hom=homspace)
    assert calls["hom"] == 0


def test_kx5_skeleton_ext_dim_and_stable_iso_budgets(monkeypatch):
    calls = _kx5_skeleton_calls(monkeypatch, ext_dim=homology,
                                _iso_certificate=homspace)
    assert 0 < calls["ext_dim"] <= KX5_SKELETON_EXT_DIM_CALLS
    assert calls["_iso_certificate"] == 0


@pytest.mark.parametrize("twist", [1, 2, 3])
def test_twisted_kx5_skeleton_budgets_and_no_trace_test(monkeypatch, twist):
    calls = _kx5_skeleton_calls(monkeypatch, twist, hom=homspace,
                                _iso_certificate=homspace,
                                _identity_in_trace=homspace,
                                _presented_map=homspace, ext_dim=homology)
    assert 0 < calls["hom"] <= KX5_TWISTED_SKELETON_HOM_CALLS
    assert (0 < calls["_iso_certificate"]
            <= KX5_TWISTED_SKELETON_ISO_CERTIFICATE_CALLS)
    assert 0 < calls["ext_dim"] <= KX5_SKELETON_EXT_DIM_CALLS
    assert calls["_identity_in_trace"] == 0
    # each certificate reads its Hom vectors and builds no basis map
    assert calls["_presented_map"] == 0


def test_ext1_clean_is_a_bool_memo(monkeypatch):
    alg = nakayama_cyclic((4,), prime_field(101))
    mods = [jordan_module(alg, i) for i in range(1, 5)]
    mods += [syzygy(m) for m in mods]  # the last is the zero module

    def memo(M):
        return rep._record(M).memo["ext1_clean"]
    for M in mods:
        clean = stab._ext1_clean(M)
        assert type(memo(M)) is bool
        assert memo(M) is clean
    def recomputed(*args):
        raise AssertionError("memoised Ext^1 recomputed")
    monkeypatch.setattr(stab, "ext_dim", recomputed)
    assert [stab._ext1_clean(M) for M in mods] == list(map(memo, mods))
    monkeypatch.undo()
    for M in mods:
        assert memo(M) == (ext_dim(M, regular_module(alg), 1) == 0)

from __future__ import annotations

import ast
import dataclasses
import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest

import singcat
from singcat import homology, homspace, rep
from singcat.exact_linalg import (
    InternalCheckFailed, Matrix, prime_field, rational_field,
)
from singcat.families import interval_module, nakayama2_tilde
from singcat.quiver_algebra import (
    InvalidKupisch, nakayama_cyclic, orbit_grid_algebra,
    valid_triples_window,
)
from singcat.rep import (
    RepMorphism,
    Representation,
    is_projective,
    projective_module,
    simple_module,
)
from singcat.homology import (
    _stride,
    ext,
    pd_certificate,
    resolve,
    syzygy,
    syzygy_morphism,
)
from singcat.homspace import (
    _stable_dim,
    hom,
    is_isomorphic,
    stable_end_dim,
    stable_hom,
    stable_iso,
)
from singcat.stab import skeleton
from singcat.tilting import SubcatSpec

from builders import jordan_module, uniserial
from dense_reference import dense_solve_left, dense_solve_right
from pairwise_reference import (
    dual_map_matrix, omega_stabilizes_strided, summand_offsets,
)

KS = (3, 2, 3, 3)


def test_resolution_is_a_complex(orbit):
    S = simple_module(orbit, "(1,2)")
    res = resolve(S, 3)
    assert res.covers[0].vertices == ["(1,2)"]
    for i in range(1, 4):
        d = res.diff(i)
        if i == 1:
            assert d.compose(res.eps[0]).is_zero()
        else:
            assert d.compose(res.diff(i - 1)).is_zero()


def test_double_syzygy_table(orbit):
    M = lambda *t: interval_module(orbit, t)
    rows = [
        ((4, 4, 4), (2, 3, 3)), ((2, 3, 3), (1, 1, 2)), ((1, 1, 2), (0, 0, 0)),
        ((3, 4, 4), (2, 2, 3)), ((2, 2, 3), (1, 1, 1)), ((1, 1, 1), (0, 0, 0)),
        ((3, 3, 4), (2, 2, 2)), ((3, 3, 3), (1, 2, 2)),
    ]
    for src, tgt in rows:
        assert stable_iso(syzygy(M(*src), 2), M(*tgt)), (src, tgt)
    # the two remaining nonprojective triples land on projectives
    assert is_isomorphic(syzygy(M(2, 2, 2), 2), projective_module(orbit, "(1,1)"))
    assert is_isomorphic(syzygy(M(1, 2, 2), 2), projective_module(orbit, "(0,1)"))


def test_syzygy_orbit_of_unit_interval(orbit):
    M0 = interval_module(orbit, (0, 0, 0))
    cert = pd_certificate(M0, 24)
    assert (cert.status, cert.preperiod, cert.period) == (
        "infinite_periodic", 0, 6)
    orb = [syzygy(M0, j) for j in range(6)]
    assert [r.total_dim for r in orb] == [1, 2, 2, 1, 2, 2]
    # the odd members are not intervals; checked by their supports
    assert stable_iso(orb[2], interval_module(orbit, (2, 3, 3)))
    assert stable_iso(orb[3], simple_module(orbit, "(1,3)"))
    assert stable_iso(orb[4], interval_module(orbit, (1, 1, 2)))
    W = orb[5]
    assert {v: d for v, d in W.dims.items() if d} == {"(0,1)": 1, "(0,2)": 1}
    # the 2-step orbit: Omega^2 acts on the 6-cycle with period 3
    assert _stride(cert, 2) == (0, 3)


def _orbit_inputs(fld):
    """The uniserials of the cyclic Nakayama algebras with at most three
    vertices and Kupisch lengths 2..4, then the a2-tilde-3233 generators."""
    for n in (1, 2, 3):
        for ks in itertools.product((2, 3, 4), repeat=n):
            try:
                alg = nakayama_cyclic(ks, fld)
            except InvalidKupisch:
                continue
            for i, k in enumerate(ks):
                yield from (uniserial(alg, i, l) for l in range(1, k + 1))
    yield from nakayama2_tilde((3, 2, 3, 3), 4, fld)[1].generators


REFERENCE_KIND = {"finite": "zero", "infinite_periodic": "cycle",
                  "undetermined": "undetermined"}


@pytest.mark.parametrize("fld", [rational_field(), prime_field(101)],
                         ids=["Q", "F101"])
def test_stride_matches_the_strided_walk(fld):
    # where the d-step walk resolves, the 1-step orbit read through _stride
    # gives the same kind, preperiod and period; where it does not, the
    # 1-step walk resolves, if at all, past the last full stride it took
    for M in _orbit_inputs(fld):
        for horizon in range(25):
            cert = pd_certificate(M, horizon)
            kind = REFERENCE_KIND[cert.status]
            for d in range(1, 5):
                ref = omega_stabilizes_strided(M, horizon, d)
                if kind == "cycle":
                    p, L = _stride(cert, d)
                    derived, first = ("cycle", p, L), d * (p + L)
                else:
                    derived, first = (kind, None, None), cert.n
                if ref["kind"] != "undetermined":
                    assert (ref["kind"], ref.get("preperiod"),
                            ref.get("period")) == derived, (M.dims, horizon, d)
                elif kind != "undetermined":
                    assert first > horizon // d * d, (M.dims, horizon, d)


def test_pd_certificate_is_frozen_and_memoised_per_horizon(orbit,
                                                          monkeypatch):
    orbit.clear_cache()
    M0 = interval_module(orbit, (0, 0, 0))
    walks = []
    real = homology._walk_orbit

    def walk(M, horizon):
        walks.append(horizon)
        return real(M, horizon)
    monkeypatch.setattr(homology, "_walk_orbit", walk)
    cert = pd_certificate(M0, 24)
    assert pd_certificate(M0, 24) is cert
    assert pd_certificate(M0, 5).status == "undetermined"
    assert pd_certificate(M0, 5) is pd_certificate(M0, 5)
    assert walks == [24, 5]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.status = "finite"
    # the record holds certificates of plain values, no module
    certs = {k[1]: c for k, c in rep._record(M0).memo.items()
             if k[0] == "pd"}
    assert set(certs) == {24, 5}
    assert all(v is None or isinstance(v, (int, str))
               for c in certs.values() for v in dataclasses.astuple(c))


def test_pd_certificates(orbit):
    M = lambda *t: interval_module(orbit, t)
    for t, n in [((2, 2, 2), 2), ((1, 2, 2), 2), ((3, 3, 4), 4), ((3, 3, 3), 4)]:
        c = pd_certificate(M(*t), 24)
        assert (c.status, c.n) == ("finite", n), t
    c = pd_certificate(M(0, 0, 0), 24)
    assert c.status == "infinite_periodic"
    assert (c.preperiod, c.period) == (0, 6)
    for v in ("(0,0)", "(2,3)"):
        c = pd_certificate(projective_module(orbit, v), 24)
        assert (c.status, c.n) == ("finite", 0)
    tiny = pd_certificate(M(0, 0, 0), 3)
    assert tiny.status == "undetermined"
    assert tiny.horizon == 3
    # with no steps to take, a zero or projective module still has pd 0,
    # since it is stably zero before the first step
    for X in (rep.zero_rep(orbit), projective_module(orbit, "(0,0)")):
        for horizon in (0, -1):
            c = pd_certificate(X, horizon)
            assert (c.status, c.n) == ("finite", 0)
    c = pd_certificate(M(0, 0, 0), 0)
    assert (c.status, c.horizon) == ("undetermined", 0)


def test_ext_vanishing_and_counterexample(orbit):
    M0 = interval_module(orbit, (0, 0, 0))
    P01 = projective_module(orbit, "(0,1)")
    # the first nonvanishing ext against a projective sits in degree 6
    first = None
    for i in range(1, 8):
        for v in orbit.quiver.vertices:
            if ext(M0, projective_module(orbit, v), i).dim:
                first = (i, v)
                break
        if first:
            break
    assert first == (6, "(0,1)")
    assert ext(M0, P01, 6).dim == 1
    W = syzygy(M0, 5)
    assert ext(W, P01, 1).dim == 1


def test_ext_dimension_shift(orbit):
    M = interval_module(orbit, (2, 3, 3))
    N = interval_module(orbit, (1, 1, 1))
    for i in range(1, 4):
        assert ext(M, N, i + 1).dim == ext(syzygy(M), N, i).dim


def test_ext_degree_zero_is_hom(orbit):
    M = interval_module(orbit, (1, 1, 2))
    N = interval_module(orbit, (0, 0, 0))
    assert ext(M, N, 0).dim == hom(M, N).dim
    with pytest.raises(ValueError):
        ext(M, N, -1)


def test_generators_are_rigid(orbit):
    trs = valid_triples_window(KS, 0, 4)
    mods = {t: interval_module(orbit, t) for t in trs}
    for s in trs:
        for t in trs:
            assert ext(mods[s], mods[t], 1).dim == 0, (s, t)


def test_ext_cocycles_are_closed(orbit):
    M0 = interval_module(orbit, (0, 0, 0))
    P01 = projective_module(orbit, "(0,1)")
    e = ext(M0, P01, 6)
    res = resolve(M0, 7)
    for c in e.cocycles:
        assert res.diff(7).compose(c).is_zero()


def test_ext_dim_covers_each_syzygy_below_the_degree_once(orbit, monkeypatch):
    # Ext^i is read from the cover step of Omega^{i-1} M and from the
    # presentation of Omega^i M, so M is covered i + 1 times over an
    # algebra with no records: Omega^0 .. Omega^i, none beyond; but
    # Omega^6 M has the content of M, whose step it reuses
    real = rep._build_step
    covered = []

    def counting(M):
        covered.append(M)
        return real(M)
    monkeypatch.setattr(rep, "_build_step", counting)
    for i in range(1, 7):
        covered.clear()
        orbit.clear_cache()
        P01 = projective_module(orbit, "(0,1)")
        M0 = interval_module(orbit, (0, 0, 0))
        assert homology.ext_dim(M0, P01, i) == (i == 6)
        assert len(covered) == min(i + 1, 6)


def test_stable_hom_quotient(orbit):
    M0 = interval_module(orbit, (0, 0, 0))
    assert stable_hom(M0, M0).dim == 1
    P = projective_module(orbit, "(1,2)")
    assert stable_hom(P, M0).dim == 0
    assert stable_hom(M0, P).dim == 0
    # stable classes survive a round trip through quotient coordinates
    A = interval_module(orbit, (1, 1, 3))
    B = interval_module(orbit, (1, 2, 3))
    V = stable_hom(A, B)
    rng = random.Random(2)
    f = orbit.field
    for _ in range(8):
        q = tuple(f.of_int(rng.randrange(-3, 4)) for _ in range(V.dim))
        assert V.coords_mod(V.class_rep(q)) == q


def test_stable_hom_composite_outside_hom_is_an_internal_fault(orbit, monkeypatch):
    A = interval_module(orbit, (1, 1, 3))
    B = interval_module(orbit, (1, 2, 3))
    f = orbit.field
    # nonzero at (1,2) only: it does not commute with the arrow to (1,3)
    ones = RepMorphism(A, B, {"(1,2)": Matrix.from_rows(f, [(f.one,)], 1)},
                       check=False)
    H = hom(A, B)
    monkeypatch.setattr(homspace, "echelon_solve", lambda a, b: None)
    with pytest.raises(InternalCheckFailed, match="outside Hom"):
        stable_hom(A, B)
    monkeypatch.undo()
    # a caller's morphism outside the hom space stays a ValueError
    with pytest.raises(ValueError, match="outside the hom space"):
        H.coords(ones)


def test_syzygy_morphism_functorial(orbit):
    A = interval_module(orbit, (1, 1, 3))
    B = interval_module(orbit, (1, 2, 3))
    H = hom(A, B)
    assert H.dim >= 1
    for g in H.basis:
        og = syzygy_morphism(g)
        assert og.src is syzygy(A)
        assert og.tgt is syzygy(B)
    # composing before or after taking syzygies agrees stably
    E = hom(B, A)
    if E.dim:
        for g in H.basis:
            for h in E.basis:
                lhs = syzygy_morphism(g.compose(h))
                rhs = syzygy_morphism(g).compose(syzygy_morphism(h))
                V = stable_hom(syzygy(A), syzygy(A))
                assert V.coords_mod(lhs) == V.coords_mod(rhs)


def test_stably_zero_detection(orbit):
    assert is_projective(projective_module(orbit, "(0,0)"))
    assert not is_projective(simple_module(orbit, "(1,3)"))
    z = pd_certificate(interval_module(orbit, (2, 2, 2)), 24)
    assert (z.status, z.n) == ("finite", 2)


def test_ext_cross_field():
    for fld in (prime_field(2), prime_field(101), rational_field()):
        alg = orbit_grid_algebra(KS, fld)
        M0 = interval_module(alg, (0, 0, 0))
        P01 = projective_module(alg, "(0,1)")
        assert ext(M0, P01, 6).dim == 1
        assert ext(M0, P01, 1).dim == 0
        c = pd_certificate(M0, 24)
        assert (c.status, c.preperiod, c.period) == ("infinite_periodic", 0, 6)


def test_truncated_polynomial_homological_oracle(kx4):
    """Over k[x]/(x^4): hom dims, syzygies, and stable hom by closed formula."""
    n = 4
    mods = {i: jordan_module(kx4, i) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert hom(mods[i], mods[j]).dim == min(i, j)
            expected = min(i, j) - max(0, i + j - n)
            assert stable_hom(mods[i], mods[j]).dim == expected
    for i in range(1, n):
        assert is_isomorphic(syzygy(mods[i]), mods[n - i])
        c = pd_certificate(mods[i], 12)
        assert c.status == "infinite_periodic"
        assert c.period in (1, 2)
    assert pd_certificate(mods[n], 12).status == "finite"


def test_hereditary_a2_homology(hereditary_a2):
    alg = hereditary_a2
    Su = simple_module(alg, "u")
    Pv = projective_module(alg, "v")
    c = pd_certificate(Su, 8)
    assert (c.status, c.n) == ("finite", 1)
    assert is_isomorphic(syzygy(Su), Pv)
    assert ext(Su, Pv, 1).dim == 1
    assert ext(Su, Su, 1).dim == 0


def test_operation_graph_freed_without_cyclic_gc():
    """Generators and their syzygies die by reference counting alone."""
    alg = nakayama_cyclic((4,), rational_field())
    gens = [jordan_module(alg, i) for i in range(1, 5)]
    gc.disable()
    try:
        report = skeleton(SubcatSpec(alg, gens, 1))
        assert report.count == 3
        refs = [weakref.ref(m) for g in gens for m in (g, syzygy(g, 1))]
        del report, gens
        alive = sum(r() is not None for r in refs)
        assert alive == 0, f"{alive} of {len(refs)} modules kept alive"
    finally:
        gc.enable()


def test_skeleton_leaves_no_cyclic_garbage():
    """The algebra's cached projectives hold no module that points back at
    it, so a whole k[x]/(x^5) skeleton is freed by reference counting."""
    gc.collect()
    gc.disable()
    try:
        alg = nakayama_cyclic((5,), rational_field())
        report = skeleton(SubcatSpec(alg, [jordan_module(alg, i)
                                           for i in range(1, 6)], 1))
        assert report.count == 4
        assert alg.cache and not any(isinstance(x, Representation)
                                     for x in alg.cache.values())
        del alg, report
        assert gc.collect() == 0
    finally:
        gc.enable()


def _kx4_modules(fld):
    """The Jordan modules over a fresh k[x]/(x^4), then their first syzygies."""
    alg = nakayama_cyclic((4,), fld)
    gens = [jordan_module(alg, i) for i in range(1, 5)]
    return gens + [syzygy(g, 1) for g in gens]


@pytest.mark.parametrize("fld", [rational_field(), prime_field(2)],
                         ids=["Q", "F2"])
def test_pair_memos_match_fresh_computation(fld, monkeypatch):
    n = len(_kx4_modules(fld))
    want = {}
    for i in range(n):
        for j in range(n):
            fresh = _kx4_modules(fld)
            A, B = fresh[i], fresh[j]
            # a fresh algebra: no record holds a pair entry yet
            assert not [k for k in rep._record(A).memo
                        if k[0] in ("stable", "match")]
            want[i, j] = (stable_hom(A, B).dim, stable_iso(A, B))
    mods = _kx4_modules(fld)
    # first calls: every stable dimension, then every verdict
    for (i, j), (dim, _) in want.items():
        assert _stable_dim(mods[i], mods[j]) == dim
    for (i, j), (_, match) in want.items():
        assert stable_iso(mods[i], mods[j]) == match
    # repeat calls are served from the memos alone
    def recomputed(*args):
        raise AssertionError("memoised pair recomputed")
    monkeypatch.setattr(homspace, "stable_hom", recomputed)
    monkeypatch.setattr(homspace, "hom_dim", recomputed)
    monkeypatch.setattr(homspace, "_stably_isomorphic", recomputed)
    for (i, j), (dim, match) in want.items():
        assert _stable_dim(mods[i], mods[j]) == dim
        assert stable_iso(mods[i], mods[j]) == match
        if i == j:
            assert stable_end_dim(mods[i]) == dim


def test_pair_memo_does_not_keep_its_key_alive():
    alg = nakayama_cyclic((4,), rational_field())
    A, B = jordan_module(alg, 1), jordan_module(alg, 3)
    gc.disable()
    try:
        assert _stable_dim(A, B) == 1
        assert stable_iso(A, B) is False
        # the syzygies differ in dimension, so the verdict reads no stable
        # dimension; the diagonal entry is asked for on its own
        stable_end_dim(A)
        ref = weakref.ref(B)
        key = rep._record(B).content
        del B
        assert ref() is None
        # A's record keeps B's entries under B's content key, not B
        memo = rep._record(A).memo
        assert {k for k in memo if k[0] == "stable"} == {
            ("stable", rep._record(A).content), ("stable", key)}
        assert memo[("match", key)] is False
    finally:
        gc.enable()


@pytest.mark.parametrize("fld", [rational_field(), prime_field(2),
                                 prime_field(101)], ids=["Q", "F2", "F101"])
def test_stably_zero_modules_are_one_class(fld, monkeypatch):
    """Projectives and the zero module are the zero object of the stable
    category: any two match, with no Hom system; a nonzero class matches
    none of them."""
    kx4 = nakayama_cyclic((4,), fld)
    tilde, spec = nakayama2_tilde((3, 2, 3, 3), 4, fld)
    cases = []
    for alg, nonzero in ((kx4, jordan_module(kx4, 1)),
                         (tilde, next(g for g in spec.generators
                                      if not is_projective(g)))):
        ps = [p for _, p in rep.projectives(alg)]
        zeros = ps + [projective_module(alg, v) for v in alg.quiver.vertices]
        zeros += [rep.zero_rep(alg), rep.zero_rep(alg), rep.direct_sum(ps)]
        cases.append((zeros, nonzero))
    def built(*args):
        raise AssertionError("Hom system built for a stably zero pair")
    monkeypatch.setattr(homspace, "hom_dim", built)
    monkeypatch.setattr(homspace, "hom", built)
    monkeypatch.setattr(homspace, "_iso_certificate", built)
    for zeros, nonzero in cases:
        for A in zeros:
            for B in zeros:
                assert stable_iso(A, B) is True
    monkeypatch.undo()
    for zeros, nonzero in cases:
        for Z in zeros:
            assert stable_iso(Z, nonzero) is False
            assert stable_iso(nonzero, Z) is False


@pytest.mark.parametrize("fld", [rational_field(), prime_field(101)],
                         ids=["Q", "F101"])
def test_public_stable_iso_rejects_sums_with_different_summands(fld):
    """Over Nakayama (3, 3), M(0,1) + M(0,1) + M(0,2) and M(0,1) + M(0,2)
    + M(0,2) have different summands, so they are not stably isomorphic;
    their syzygies differ in dimension vector, which decides the pair."""
    alg = nakayama_cyclic((3, 3), fld)
    S0, M02 = uniserial(alg, 0, 1), uniserial(alg, 0, 2)
    A, B = rep.direct_sum([S0, S0, M02]), rep.direct_sum([S0, M02, M02])
    assert singcat.stable_iso(A, B) is False
    assert singcat.stable_iso(B, A) is False


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: stable_iso is sound only when the non-projective parts "
    "are indecomposable or zero; these sums agree on every gate"))
def test_stable_iso_rejects_sums_that_agree_on_every_gate():
    """S(0) + S(0) + S(1) and S(0) + S(1) + S(1) over Nakayama (3, 3): the
    syzygy dimension vectors and stable endomorphism dimensions agree, and
    each sum lies in the stable add of the other."""
    alg = nakayama_cyclic((3, 3), rational_field())
    S0, S1 = uniserial(alg, 0, 1), uniserial(alg, 1, 1)
    assert not stable_iso(rep.direct_sum([S0, S0, S1]),
                          rep.direct_sum([S0, S1, S1]))


# The layers from the bottom up; the package namespace sits on top of all.
LAYERS = ("exact_linalg", "quiver_algebra", "rep", "homspace", "homology",
          "tilting", "stab", "families", "cli", "__init__")


def test_rep_imports_nothing_from_homology_and_nothing_in_a_function():
    """Every module imports only from the layers below it, so rep has no
    import of homology, and no module defers an import into a function
    body."""
    src = Path(rep.__file__).parent
    assert sorted(p.stem for p in src.glob("*.py")) == sorted(LAYERS)
    for level, name in enumerate(LAYERS):
        tree = ast.parse((src / f"{name}.py").read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(fn)
                         if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, (name, fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1 and node.module in LAYERS[:level], (
                    name, node.module)
            elif isinstance(node, ast.ImportFrom):
                assert not node.module.startswith("singcat"), (name, node.module)
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("singcat")
                               for a in node.names), name


# The helpers and attributes that read a map at its source's top generators.
SEAM_NAMES = {"_composite_rows", "_generator_row", "_identity_in_trace",
              "_homs_into", "_iso_certificate", "_presented_system",
              "_spans_top"}
SEAM_ATTRS = {"_bmat", "_images", "_pres", "_vec"}


def test_only_homspace_reads_maps_at_top_generators():
    """The layout of a Hom vector, the images of the source's top
    generators, is known to homspace alone: no other module names its
    reading helpers or reads those attributes of a Hom space, and homology
    imports no private name from it."""
    src = Path(rep.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "homspace":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id in SEAM_NAMES:
                found.append((path.stem, node.lineno, node.id))
            elif isinstance(node, ast.alias) and node.name in SEAM_NAMES:
                found.append((path.stem, "import", node.name))
            elif isinstance(node, ast.Attribute) and (
                    node.attr in SEAM_NAMES | SEAM_ATTRS):
                found.append((path.stem, node.lineno, node.attr))
            elif (isinstance(node, ast.ImportFrom) and path.stem == "homology"
                  and node.module == "homspace"):
                found += [(path.stem, "import", a.name) for a in node.names
                          if a.name.startswith("_")]
    assert not found, found


# The names through which a module is covered: the step builder, the
# per-module pair it is kept in, and the eliminations behind it.
STEP_NAMES = {"_build_step", "_syzygy_step", "_kernel_blocks",
              "kernel_and_section"}


def test_only_rep_steps_a_module():
    """A module is covered by ``rep`` alone: no other module names the step
    builder, the per-module step or the eliminations behind it, or calls
    ``Cover``; the layers above read ``rep.Step`` fields and ask ``rep``
    for the cover maps."""
    src = Path(rep.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "rep":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in STEP_NAMES:
                found.append((path.stem, getattr(node, "lineno", "import"),
                              name))
            elif isinstance(node, ast.Call) and "Cover" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                found.append((path.stem, node.lineno, "Cover(...)"))
    assert not found, found


def _dual_map_reference(cover_lo, cover_hi, d, N):
    """Precomposition with a whole differential d, summing path matrices."""
    alg = cover_lo.algebra
    f = alg.field
    row_off, col_off = [0], [0]
    for v in cover_lo.vertices:
        row_off.append(row_off[-1] + N.dims[v])
    for w in cover_hi.vertices:
        col_off.append(col_off[-1] + N.dims[w])
    out = [[f.zero] * col_off[-1] for _ in range(row_off[-1])]
    hi_offsets = summand_offsets(cover_hi)
    for j, w in enumerate(cover_hi.vertices):
        # summand j's generator, its trivial path, is its first row at w
        img = d.mats[w].entries[hi_offsets[j][w]]
        for k, v in enumerate(cover_lo.vertices):
            # the rows of P(u) at w are the basis paths from u to w
            base = sum(len(alg.basis(u, w)) for u in cover_lo.vertices[:k])
            block = Matrix.zeros(f, N.dims[v], N.dims[w])
            for idx, key in enumerate(alg.basis(v, w)):
                block = block.add(N.path_matrix(v, key[1]).scale(img[base + idx]))
            for a in range(N.dims[v]):
                for b in range(N.dims[w]):
                    out[row_off[k] + a][col_off[j] + b] = block.entries[a][b]
    return Matrix.from_rows(f, out, col_off[-1])


def _twisted_jordan(alg, i):
    """jordan_module(alg, i) in the basis given by the rows of S, which is 1
    on the diagonal and in the first column: the action is S.J.S^-1."""
    f = alg.field
    S = Matrix.from_rows(f, [[f.one if c in (0, r) else f.zero for c in range(i)]
                             for r in range(i)], i)
    act = S.mul(jordan_module(alg, i).action["a0"]).mul(
        dense_solve_right(S, Matrix.identity(f, i)))
    return Representation(alg, {"0": i}, {"a0": act}, check=True)


@pytest.mark.parametrize("fld", [rational_field(), prime_field(2),
                                 prime_field(101)], ids=repr)
def test_dual_map_from_generator_rows_matches_full_differential(fld):
    orb = orbit_grid_algebra(KS, fld)
    kx5 = nakayama_cyclic((5,), fld)
    cases = [(interval_module(orb, (0, 0, 0)),
              [projective_module(orb, "(0,1)"), interval_module(orb, (1, 2, 3)),
               simple_module(orb, "(1,2)")]),
             (interval_module(orb, (1, 1, 2)), [interval_module(orb, (0, 0, 0))]),
             (rep.direct_sum([interval_module(orb, t) for t in
                              ((0, 0, 0), (1, 1, 2), (1, 2, 3))]),
              [interval_module(orb, (1, 2, 3)), projective_module(orb, "(0,2)")]),
             (jordan_module(kx5, 2), [jordan_module(kx5, i) for i in range(1, 6)]),
             # two generators at one vertex: the second one's row is not 0
             (rep.direct_sum([jordan_module(kx5, 2), jordan_module(kx5, 3)]),
              [jordan_module(kx5, 3), jordan_module(kx5, 4)]),
             # dense path matrices, so summed blocks overlap and entries cancel
             (_twisted_jordan(kx5, 3), [_twisted_jordan(kx5, 4),
                                        _twisted_jordan(kx5, 5)])]

    def nonzeros(m):
        return [{j: x for j, x in enumerate(row) if x} for row in m.entries]

    checked = 0
    for M, targets in cases:
        res = resolve(M, 4)
        for i in range(1, 5):
            for N in targets:
                rows, ncols = dual_map_matrix(
                    res.covers[i - 1], res.covers[i], res.eps[i].mats,
                    res.incs[i - 1].mats, N)
                ref = _dual_map_reference(res.covers[i - 1], res.covers[i],
                                          res.diff(i), N)
                assert (len(rows), ncols) == (ref.rows, ref.cols)
                assert rows == nonzeros(ref)
                checked += not ref.is_zero()
            # a minimal resolution's differentials miss the trivial paths,
            # which the identity map hits at every generator
            C = res.covers[0]
            ident = RepMorphism.identity(C.rep)
            rows, ncols = dual_map_matrix(C, C, ident.mats, ident.mats, N)
            assert rows == [{j: fld.one} for j in range(ncols)]
            assert rows == nonzeros(_dual_map_reference(C, C, ident, N))
            # generator images that sum several paths, so blocks overlap
            E = hom(C.rep, C.rep)
            d = E.element([fld.of_int((-1) ** k) for k in range(E.dim)])
            rows, _ = dual_map_matrix(C, C, d.mats, ident.mats, N)
            assert rows == nonzeros(_dual_map_reference(C, C, d, N))
    assert checked


def _omega_by_dense_lift(f):
    """Omega(f) from a cover lift solved by the dense reference solver."""
    M, N = f.src, f.tgt
    (coverM, KM), (coverN, KN) = rep._cover_step(M), rep._cover_step(N)
    (epsM, incM), (epsN, incN) = rep._cover_maps(M), rep._cover_maps(N)
    fld = M.algebra.field
    xs = []
    for v, off in zip(coverM.vertices, summand_offsets(coverM)):
        # summand j's generator, its trivial path, is its row off[v] at v
        gen = epsM.mats[v].entries[off[v]]
        y = Matrix.from_rows(fld, [f.mats[v].act(gen)], N.dims[v])
        xs.append(dense_solve_left(epsN.mats[v], y).entries[0])
    lam = rep._gen_image_mats(M.algebra, coverM.vertices, coverN.rep, xs)
    return RepMorphism(KM, KN, {
        v: dense_solve_left(incN.mats[v], incM.mats[v].mul(lam[v]))
        for v in M.algebra.quiver.vertices}, check=True)


@pytest.mark.parametrize("fld", [rational_field(), prime_field(2),
                                 prime_field(101)], ids=repr)
def test_syzygy_morphism_matches_dense_lift_stably(fld):
    orb = orbit_grid_algebra(KS, fld)
    kx5 = nakayama_cyclic((5,), fld)
    mods = [interval_module(orb, t) for t in
            ((0, 0, 0), (1, 1, 2), (1, 1, 3), (1, 2, 3))]
    mods.append(rep.direct_sum(mods[:2]))
    pairs = [(A, B) for A in mods for B in mods]
    pairs += [(jordan_module(kx5, i), jordan_module(kx5, k))
              for i in range(1, 5) for k in range(1, 5)]
    rng = random.Random(3)
    nonzero = 0
    for A, B in pairs:
        H = hom(A, B)
        if H.dim == 0:
            continue
        W = stable_hom(syzygy(A), syzygy(B))
        maps = list(H.basis) + [H.element([fld.of_int(rng.randrange(-3, 4))
                                           for _ in range(H.dim)])]
        for g in maps:
            got = W.coords_mod(syzygy_morphism(g))
            assert got == W.coords_mod(_omega_by_dense_lift(g))
            nonzero += any(got)
    assert nonzero


@pytest.mark.parametrize("split", [
    # no section row at all: every row of the block counted in the kernel
    lambda m: ([(m.field.one,) * m.rows] * m.rows, []),
    # one section row short, its row counted in the kernel instead
    lambda m: ([(m.field.one,) * m.rows] * (m.rows - m.cols + 1),
               [(m.field.one,) * m.rows] * (m.cols - 1)),
], ids=("empty", "short"))
def test_cover_lift_without_a_section_is_an_internal_fault(
        orbit, monkeypatch, split):
    # Omega f lifts through the section of the target's cover map, which
    # the elimination of the onto guard gives: a section short of a row is
    # the guard's "not onto", raised before any lift.  B's content must not
    # have been stepped before, so the records go first
    orbit.clear_cache()
    A = interval_module(orbit, (1, 1, 3))
    B = interval_module(orbit, (1, 2, 3))
    g = hom(A, B).basis[0]
    assert getattr(B, "_syzygy_step", None) is None
    monkeypatch.setattr(rep, "kernel_and_section", split)
    with pytest.raises(InternalCheckFailed, match="cover map is not onto"):
        syzygy_morphism(g)

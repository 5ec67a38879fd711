"""Hom spaces read from the source's projective presentation.

``homspace.hom_dim(M, N)`` and ``homspace.hom(M, N)`` both solve one
system, sized by the tops of M and Omega M, from the presentation in M's
cover step (``rep.Step``).  They must give the dimension of the dense commuting
system (``pairwise_reference.hom_dim_full``), over every field, for
twisted modules, direct sums, quotients of projectives by random elements,
cached injectives, projective sources (no relations), zero modules and
content twins, which share one step.
"""

from __future__ import annotations

import gc
import random
import sys
import weakref
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcat import rep
from singcat.exact_linalg import prime_field, rational_field
from singcat.families import interval_module
from singcat.homology import syzygy
from singcat.homspace import hom, hom_dim
from singcat.quiver_algebra import (
    Arrow, PathWord, Quiver, RelationElement, compute_basis, nakayama_cyclic,
    orbit_grid_algebra, valid_triples_window,
)
from singcat.rep import (
    Cover, RepMorphism, Representation, cokernel, direct_sum,
    injective_mod_socle, injective_module, projective_module, zero_rep,
)

from builders import jordan_module, twisted, uniserial
from pairwise_reference import hom_dim_full, summand_offsets

FIELDS = {"Q": rational_field(), "F2": prime_field(2),
          "F101": prime_field(101)}
FAMILIES = ("jordan", "nakayama", "two-loops", "grid")


@lru_cache(maxsize=None)
def _family(name: str, field: str) -> tuple:
    """(algebra, a few indecomposable modules) of one family over a field."""
    fld = FIELDS[field]
    if name == "jordan":
        alg = nakayama_cyclic((5,), fld)
        mods = [jordan_module(alg, i) for i in range(1, 6)]
    elif name == "nakayama":
        alg = nakayama_cyclic((3, 2, 3), fld)
        mods = [uniserial(alg, i, l) for i in range(3) for l in (1, 2)]
    elif name == "two-loops":
        # k<x, y>/(x, y)^2: every non-simple indecomposable has two arrows
        # acting, so a relation has terms on both
        q = Quiver(["0"], [Arrow("x", "0", "0"), Arrow("y", "0", "0")])
        alg = compute_basis(q, [RelationElement([(fld.one, PathWord(q, "0", w))])
                                for w in ("xx", "xy", "yx", "yy")], fld, 3)
        mods = [projective_module(alg, "0"), rep.simple_module(alg, "0")]
    else:
        ks = (3, 2, 3, 3)
        alg = orbit_grid_algebra(ks, fld)
        mods = [interval_module(alg, t)
                for t in valid_triples_window(ks, 0, len(ks))[::3]]
    return alg, tuple(mods)


@st.composite
def hom_pairs(draw):
    """(kind of source, source, target) over one algebra.  The source is a
    fresh wrap, never stepped, but for kind "twin", which may be a shared
    base module, and kind "injective", a wrap of cached data; the target
    may be anything."""
    alg, base = _family(draw(st.sampled_from(FAMILIES)),
                        draw(st.sampled_from(sorted(FIELDS))))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    verts = alg.quiver.vertices

    def pick():
        g = draw(st.sampled_from(base))
        return twisted(g, rng) if draw(st.booleans()) else g

    def module(kind):
        if kind == "base":
            return pick()
        if kind == "sum":
            return direct_sum([pick(), pick()])
        if kind == "projective":
            return projective_module(alg, draw(st.sampled_from(verts)))
        if kind == "injective":
            return injective_module(alg, draw(st.sampled_from(verts)))
        if kind == "syzygy":
            return syzygy(pick(), 1)
        if kind == "quotient":
            # a sum of two P(v) modulo one or two random elements of its
            # radical: relations with several terms and coefficients other
            # than one
            P0 = Cover(alg, draw(st.lists(st.sampled_from(verts),
                                          min_size=2, max_size=2)))
            tops = {(v, o[v]) for v, o in zip(P0.vertices,
                                              summand_offsets(P0))}
            us = draw(st.lists(st.sampled_from(verts), min_size=1, max_size=2))
            xs = [[alg.field.zero if (u, i) in tops else alg.field.of_int(
                       draw(st.sampled_from([0, 1, -1, 2, 3])))
                   for i in range(P0.rep.dims[u])] for u in us]
            f = RepMorphism(Cover(alg, us).rep, P0.rep,
                            rep._gen_image_mats(alg, us, P0.rep, xs),
                            check=False)
            C = cokernel(f)[0]
            return twisted(C, rng) if draw(st.booleans()) else C
        return zero_rep(alg)

    kind = draw(st.sampled_from(
        ["base", "sum", "quotient", "projective", "injective", "syzygy",
         "zero", "twin"]))
    if kind == "twin":
        src = pick()
    elif kind == "injective":
        src = module(kind)
    else:
        M = module(kind)
        src = Representation._wrap(alg, M.dims, M.action)
    tgt = module(draw(st.sampled_from(
        ["base", "sum", "quotient", "projective", "injective", "syzygy",
         "zero"])))
    return kind, src, tgt


@settings(max_examples=150, deadline=None)
@given(hom_pairs())
def test_presented_hom_dim_matches_the_commuting_system(case):
    """hom_dim and the hom basis against the dense commuting system."""
    kind, M, N = case
    want = hom_dim_full(M, N)
    if kind == "twin":
        # a second module of the content of a stepped one reuses its step
        rep._cover_step(M)
        twin = Representation._wrap(M.algebra, M.dims, M.action)
        rep._cover_step(twin)
        assert rep._step(twin) is rep._step(M)
        M = twin
    assert hom_dim(M, N) == want
    if kind in ("projective", "zero"):
        assert rep._step(M).relations(M.algebra) == ()
    H = hom(M, N)
    assert H.dim == want
    for b in H.basis:
        RepMorphism(M, N, b.mats, check=True)
        assert H.element(H.coords(b)).mats == b.mats
    assert hom_dim(M, N) == want  # relations and path tables memoised


def test_relations_of_a_jordan_block():
    """k[x]/(x^3) over k[x]/(x^5): the cover is P(0), Omega is x^3 P(0),
    and its one top generator is the basis path x^3 (index 3)."""
    for fld in FIELDS.values():
        alg = nakayama_cyclic((5,), fld)
        M = jordan_module(alg, 3)
        cover = rep._cover_step(M)[0]
        assert cover.vertices == ["0"]
        ((u, terms),) = rep._step(M).relations(alg)
        assert u == "0" and terms == ((0, 3, fld.one),)
        assert alg.paths_from("0")[3] == ("0", ("a0",) * 3)
        for i in range(1, 6):
            assert hom_dim(M, jordan_module(alg, i)) == min(3, i)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_relation_coefficients_matter(field):
    """Over k<x, y>/(x, y)^2, P + P modulo (x + 3y, x + 2y) and modulo
    (x + y, x + y) differ: as 2 x 2 coefficient matrices the relations have
    ranks 2 and 1, which no change of generators alters.  Each quotient and
    its Hom dimensions into both must come out as the dense commuting
    system's."""
    alg, (P, S) = _family("two-loops", field)
    f = alg.field
    P0 = Cover(alg, ["0", "0"])
    quotients = []
    for b1, b2 in ((3, 2), (1, 1)):
        # basis rows at 0: e1, x e1, y e1, then e2, x e2, y e2
        x = [f.zero, f.one, f.of_int(b1), f.zero, f.one, f.of_int(b2)]
        g = RepMorphism(Cover(alg, ["0"]).rep, P0.rep,
                        rep._gen_image_mats(alg, ["0"], P0.rep, [x]),
                        check=False)
        quotients.append(cokernel(g)[0])
    targets = quotients + [P, S]
    for M in quotients:
        want = [hom_dim_full(M, N) for N in targets]
        assert len(rep._step(M).relations(alg)) == 1
        assert [hom_dim(M, N) for N in targets] == want
        assert [hom(M, N).dim for N in targets] == want
    assert hom_dim(quotients[0], S) == hom_dim(quotients[1], S)
    assert hom_dim(quotients[0], quotients[0]) != hom_dim(quotients[1],
                                                           quotients[0])


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_hom_dim_of_a_stepped_source_builds_no_commuting_system(
        field, monkeypatch):
    """One Hom system: there is no commuting system, and a source is
    covered once, on its first Hom space, whose presentation every later
    hom_dim, hom and syzygy step of the module reads."""
    assert not hasattr(rep, "_commuting_system")
    # a fresh algebra: the shared one may hold the step of M's content in
    # its record, and M would be covered no time at all
    alg, base = _family.__wrapped__("grid", field)
    covered = []
    real = rep._build_step

    def counting(M):
        covered.append(id(M))  # not M, which would keep it alive
        return real(M)
    monkeypatch.setattr(rep, "_build_step", counting)
    M = Representation._wrap(alg, base[2].dims, base[2].action)
    targets = list(base) + [projective_module(alg, v)
                            for v in alg.quiver.vertices]
    want = [hom_dim_full(M, N) for N in targets]
    assert [hom_dim(M, N) for N in targets] == want
    assert covered == [id(M)]
    assert [hom(M, N).dim for N in targets] == want
    assert rep._cover_step(M) is M._syzygy_step
    assert covered == [id(M)]


def test_cached_projectives_share_one_path_table():
    """Every wrap of a cached P(v) reads the record, with its path-action
    tables, kept beside its data in the algebra cache, and ``clear_cache``
    drops it."""
    alg = nakayama_cyclic((3, 2, 3), rational_field())
    M = uniserial(alg, 0, 2)
    rep._cover_step(M)
    P = projective_module(alg, "0")
    assert hom_dim(M, P) == hom(M, P).dim == 0
    record = projective_module(alg, "0")._memo
    tables = [t for k, t in record.memo.items() if k[0] == "paths"]
    assert record is P._memo and tables
    assert all(isinstance(t, tuple) for t in tables)
    assert record is alg.cache[("projective", "0")][2]
    gc.collect()
    gc.disable()
    try:
        # M's cover is P(0), whose wrap holds the record too
        del P, M
        alg.clear_cache()
        # our name and getrefcount's argument are all that hold it
        assert sys.getrefcount(record) == 2
    finally:
        gc.enable()


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_cached_injectives_share_one_presentation(field, monkeypatch):
    """I(v) and I(v)/soc are covered once per content: every later wrap of
    their cached data reads the presentation in the record kept beside it,
    which holds no module and no algebra, and ``clear_cache`` drops it."""
    alg = nakayama_cyclic((3, 2, 3), FIELDS[field])
    targets = [uniserial(alg, i, l) for i in range(3) for l in (1, 2)]
    covered = []
    real = rep._build_step

    def counting(M):
        covered.append(id(M))
        return real(M)
    monkeypatch.setattr(rep, "_build_step", counting)
    for build in (injective_module, injective_mod_socle):
        for v in alg.quiver.vertices:
            first = build(alg, v)
            want = [hom_dim_full(first, N) for N in targets]
            assert [hom_dim(first, N) for N in targets] == want
            again = build(alg, v)
            assert again is not first
            assert rep._step(again) is rep._step(first)
            assert [hom(again, N).dim for N in targets] == want
    # one cover per content: I(1)/soc has the matrices of I(0)
    assert len(covered) == 2 * len(alg.quiver.vertices) - 1
    assert rep._record(injective_mod_socle(alg, "1")) is rep._record(
        injective_module(alg, "0"))
    pres = rep._step(injective_module(alg, "0"))
    assert pres is alg.cache[("injective", "0")][2].memo["step"]
    ref = weakref.ref(alg)
    gc.collect()
    gc.disable()
    try:
        del targets, first, again
        alg.clear_cache()
        del alg
        assert ref() is None
        assert sys.getrefcount(pres) == 2
    finally:
        gc.enable()

"""Work on nonempty blocks only, against the forms that visit every block.

``top_generators``, ``projective_cover``, ``kernel``, ``direct_sum``,
``hom_dim``, the ``HomSpace`` basis and the epi test ``rep.is_onto`` (on a
map, and on its dual for one-to-one) skip every per-vertex or per-arrow
block with no rows or no columns.  Each is compared entry by entry with its full-loop form
(``pairwise_reference``, or a rank at every vertex) over Q, F_2 and F_101,
on the a2-tilde-3233 intervals and their syzygies, the simples of
hereditary A2, the zero module, sums with zero summands and pairs with
disjoint supports.
A count guard checks that the syzygy steps of the intervals, and Hom
between modules with disjoint supports, hand the elimination no empty
system.

The builders visit only a module's support and the arrows touching it.
The a2-tilde-3233 algebra beside a disjoint path of 21 more vertices gives
its generators, extended by zero, the same syzygies, orbit certificates
and Hom dimensions, and a cover step of each builds no more matrices there
than on the algebra alone.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcat import exact_linalg
from singcat.exact_linalg import Matrix, prime_field, rank, rational_field
from singcat.families import nakayama2_tilde
from singcat.homology import pd_certificate, syzygy
from singcat.homspace import HomSpace, hom, hom_dim
from singcat.quiver_algebra import (
    Arrow, PathWord, Quiver, RelationElement, compute_basis, nakayama_cyclic,
    opposite_algebra,
)
from singcat.rep import (
    Representation, RepMorphism, _build_step, _cover_step, direct_sum,
    dual_module, injective_module, is_onto, kernel, projective_cover,
    projective_module, simple_module, top_generators, zero_rep,
)
from singcat.tilting import _dual_map

from pairwise_reference import (
    direct_sum_full, hom_basis_full, hom_dim_full, is_mono_full, kernel_full,
    projective_cover_full, top_generators_full,
)

FIELDS = {"Q": None, "F2": 2, "F101": 101}


def _field(name):
    p = FIELDS[name]
    return rational_field() if p is None else prime_field(p)


def _hereditary_a2(fld):
    return compute_basis(Quiver(["u", "v"], [Arrow("a", "u", "v")]), [], fld, 3)


@lru_cache(maxsize=None)
def pool(family: str, field: str) -> tuple:
    """The modules of one family over one field, the zero module last."""
    fld = _field(field)
    if family == "a2-tilde":
        alg, spec = nakayama2_tilde((3, 2, 3, 3), 4, fld)
        mods = spec.generators + [syzygy(g) for g in spec.generators]
    else:
        alg = _hereditary_a2(fld)
        mods = [simple_module(alg, "u"), simple_module(alg, "v")]
    return tuple(mods + [zero_rep(alg)])


pools = st.builds(pool, st.sampled_from(("a2-tilde", "hereditary-a2")),
                  st.sampled_from(sorted(FIELDS)))


def _disjoint(M, N):
    return not any(M.dims[v] and N.dims[v] for v in M.algebra.quiver.vertices)


def _assert_same_module(got, dims, action):
    assert got.dims == dims
    assert got.action == action


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_top_and_cover_match_full_loop(data):
    M = data.draw(st.sampled_from(data.draw(pools)))
    assert top_generators(M) == top_generators_full(M)
    cover, eps = projective_cover(M)
    verts, P, mats = projective_cover_full(M)
    assert cover.vertices == verts
    _assert_same_module(cover.rep, P.dims, P.action)
    assert eps.mats == mats


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_epi_and_mono_match_full_loop(data):
    mods = data.draw(pools)
    M = data.draw(st.sampled_from(mods))
    kind = data.draw(st.sampled_from(("cover", "hom", "zero", "identity")))
    if kind == "cover":
        cover, f = projective_cover(M)
    elif kind == "identity":
        f = RepMorphism.identity(M)
    else:
        N = data.draw(st.sampled_from(mods))
        basis = hom(M, N).basis if kind == "hom" else []
        f = (data.draw(st.sampled_from(basis)) if basis
             else RepMorphism(M, N, {}, check=False))
    K, inc = kernel(f)
    dims, action, inc_mats = kernel_full(f)
    _assert_same_module(K, dims, action)
    assert inc.mats == inc_mats
    assert is_onto(f) == all(rank(f.mats[v]) == f.tgt.dims[v] for v in f.mats)
    # f is one-to-one iff its dual, every block transposed, is onto
    op = opposite_algebra(f.src.algebra)
    dual = _dual_map(f, dual_module(op, f.tgt), dual_module(op, f.src))
    assert is_onto(dual) == is_mono_full(f)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_direct_sum_matches_full_loop(data):
    mods = data.draw(pools)
    reps = data.draw(st.lists(st.sampled_from(mods), min_size=1, max_size=4))
    # a zero summand somewhere, or none
    if data.draw(st.booleans()):
        reps.insert(data.draw(st.integers(0, len(reps))), mods[-1])
    S = direct_sum(reps)
    ref = direct_sum_full(reps)
    _assert_same_module(S, ref.dims, ref.action)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hom_matches_full_loop(data):
    mods = data.draw(pools)
    M = data.draw(st.sampled_from(mods))
    N = data.draw(st.sampled_from(mods))
    assert hom_dim(M, N) == hom_dim_full(M, N)
    assert [b.mats for b in HomSpace(M, N).basis] \
        == [b.mats for b in hom_basis_full(M, N)]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_disjoint_supports_have_zero_hom(field):
    seen = 0
    for family in ("a2-tilde", "hereditary-a2"):
        mods = pool(family, field)
        for M in mods:
            for N in mods:
                if not _disjoint(M, N):
                    continue
                seen += 1
                assert hom_dim(M, N) == 0 == hom_dim_full(M, N)
                assert HomSpace(M, N).basis == [] == hom_basis_full(M, N)
    assert seen


def test_syzygy_steps_and_disjoint_hom_eliminate_no_empty_system(monkeypatch):
    alg, spec = nakayama2_tilde((3, 2, 3, 3), 4, rational_field())
    a2 = _hereditary_a2(rational_field())
    Su, Sv = simple_module(a2, "u"), simple_module(a2, "v")
    systems = []
    real = exact_linalg._eliminate

    def recording(field, sp, ncols):
        systems.append((len(sp), ncols))
        return real(field, sp, ncols)

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "singcat"
                and getattr(mod, "_eliminate", None) is real):
            monkeypatch.setattr(mod, "_eliminate", recording)
    for g in spec.generators:
        _cover_step(g)
    assert hom_dim(Su, Sv) == 0 and hom_dim(Sv, Su) == 0
    assert systems
    empty = [s for s in systems if not s[0] or not s[1]]
    assert not empty, f"{len(empty)} of {len(systems)} systems are empty"


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_duals_satisfy_the_opposite_relations(field):
    """dual_module wraps the transpose with no re-check: every dual of a
    projective and an injective still satisfies the opposite relations, and
    the dual of the dual gives back the module."""
    fld = _field(field)
    for alg in (nakayama2_tilde((3, 2, 3, 3), 4, fld)[0],
                nakayama_cyclic((4,), fld)):
        op = opposite_algebra(alg)
        for v in alg.quiver.vertices:
            for M in (projective_module(alg, v), injective_module(alg, v)):
                D = dual_module(op, M)
                D._check_relations()
                DD = dual_module(alg, D)
                assert DD.dims == M.dims and DD.action == M.action


PAD = 20


def _padded(alg):
    """alg beside a disjoint path pad0 -> ... -> pad20 whose arrows compose
    to zero."""
    q = alg.quiver
    pad = [f"pad{i}" for i in range(PAD + 1)]
    quiver = Quiver(q.vertices + pad, [Arrow(a.id, a.src, a.tgt) for a in q.arrows]
                    + [Arrow(f"p{i}", pad[i], pad[i + 1]) for i in range(PAD)])
    rels = [RelationElement([(c, PathWord(quiver, p.src, p.arrows))
                             for c, p in r.terms]) for r in alg.relations]
    rels += [RelationElement([(alg.field.one, PathWord(
        quiver, pad[i], [f"p{i}", f"p{i + 1}"]))]) for i in range(PAD - 1)]
    return compute_basis(quiver, rels, alg.field, 16)


@lru_cache(maxsize=None)
def padded_pair(field: str) -> tuple:
    """(generators, the same extended by zero to the padded algebra)."""
    alg, spec = nakayama2_tilde((3, 2, 3, 3), 4, _field(field))
    big = _padded(alg)
    return (tuple(spec.generators),
            tuple(Representation(big, g.dims, g.action) for g in spec.generators))


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_padding_changes_no_omega_orbit_or_hom(field):
    plain, padded = padded_pair(field)
    for g, G in zip(plain, padded):
        omega, Omega = syzygy(g), syzygy(G)
        assert Omega.dims == {**dict.fromkeys(G.dims, 0), **omega.dims}
        assert pd_certificate(G) == pd_certificate(g)
        assert [hom_dim(G, H) for H in padded] == [hom_dim(g, h) for h in plain]


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_cover_step_makes_the_same_matrix_calls_when_padded(field, monkeypatch):
    counts: dict[str, int] = {}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return wrapper

    for name in ("zeros", "identity", "from_rows"):
        monkeypatch.setattr(Matrix, name, staticmethod(
            counting(name, getattr(Matrix, name))))
    real = exact_linalg._empty
    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "singcat"
                and getattr(mod, "_empty", None) is real):
            monkeypatch.setattr(mod, "_empty", counting("_empty", real))

    def calls(M):
        # a fresh cache, so the step builds its cover's projectives too
        M.algebra.clear_cache()
        counts.clear()
        _build_step(M)
        return dict(counts)

    plain, padded = padded_pair(field)
    for g, G in zip(plain, padded):
        assert calls(G) == calls(g)

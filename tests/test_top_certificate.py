"""Maps out of M read at M's top generators.

With equal dimension vectors a map M -> N is an isomorphism exactly when
its images of M's top generators span N modulo rad N (Nakayama's lemma),
which ``homspace._spans_top`` tests on a Hom vector with no morphism
built.  It must agree with ``RepMorphism.is_iso`` on every basis map, and
on all the vectors together with the images of all the basis maps
(``images_span_full``), over twisted copies, non-isomorphic pairs with
equal dimension vectors, syzygies and sums, over Q, F_2 and F_101.  A
certified isomorphism builds no morphism.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcat import homspace
from singcat.exact_linalg import prime_field, rational_field
from singcat.families import interval_module
from singcat.homology import syzygy
from singcat.homspace import (
    _iso_certificate, _spans_top, _top_images, add_membership, hom,
    is_isomorphic, stable_add_membership, stable_iso,
)
from singcat.quiver_algebra import (
    nakayama_cyclic, orbit_grid_algebra, valid_triples_window,
)
from singcat.rep import direct_sum

from builders import jordan_module, twisted
from pairwise_reference import images_span_full

FIELDS = {"Q": rational_field(), "F2": prime_field(2), "F101": prime_field(101)}
KS = (3, 2, 3, 3)


@lru_cache(maxsize=None)
def _indecomposables(family: str, field: str) -> tuple:
    """Indecomposable modules of one algebra and their first syzygies,
    zeros dropped."""
    fld = FIELDS[field]
    if family == "jordan":
        alg = nakayama_cyclic((5,), fld)
        base = [jordan_module(alg, i) for i in range(1, 5)]
    else:
        alg = orbit_grid_algebra(KS, fld)
        base = [interval_module(alg, t)
                for t in valid_triples_window(KS, 0, len(KS)) if t[0] < 2]
    return tuple(base + [K for K in map(syzygy, base) if K.total_dim])


@lru_cache(maxsize=None)
def _pool(family: str, field: str) -> tuple:
    """The indecomposables and the sums of two of them."""
    ind = _indecomposables(family, field)
    return ind + tuple(direct_sum([a, b]) for i, a in enumerate(ind)
                       for b in ind[i:])


@st.composite
def equal_dim_pairs(draw):
    """(M, N) with equal dimension vectors: N is a twisted copy of M, or
    another pool module with M's dimension vector, twisted or not."""
    mods = _pool(draw(st.sampled_from(["jordan", "tilde"])),
                 draw(st.sampled_from(sorted(FIELDS))))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    M = draw(st.sampled_from(mods))
    same = [N for N in mods if N.dims == M.dims]
    N = draw(st.sampled_from(same))
    if N is M or draw(st.booleans()):
        N = twisted(N, rng)
    return M, N


@settings(max_examples=80, deadline=None)
@given(equal_dim_pairs())
def test_top_test_matches_invertible_basis_maps(pair):
    M, N = pair
    H = hom(M, N)
    isos = [b.is_iso() for b in H.basis]
    assert [_spans_top(N, H._images(x)) for x in H.vecs] == isos
    assert _spans_top(N, _top_images([H])) == images_span_full(H.basis, N)
    iso, built = _iso_certificate(M, N)
    assert iso == (M.action == N.action or any(isos))
    assert built is None or built.vecs == H.vecs
    assert is_isomorphic(M, N) == (
        True if iso else None if images_span_full(H.basis, N) else False)


def test_the_pool_has_non_isomorphic_pairs_of_equal_dimensions():
    """J1 + J3 and J2 + J2 over k[x]/(x^5), and equal-dimension intervals
    of the grid orbit, reach the False and the undetermined branches."""
    for field in FIELDS:
        verdicts = set()
        for family in ("jordan", "tilde"):
            mods = _pool(family, field)
            for M in mods:
                for N in mods:
                    if M is not N and M.dims == N.dims:
                        verdicts.add(is_isomorphic(M, N))
        assert {False, None} <= verdicts


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_certified_isomorphism_builds_no_morphism(field, monkeypatch):
    built = []
    real = homspace._presented_map

    def counting(*args):
        built.append(args)
        return real(*args)
    monkeypatch.setattr(homspace, "_presented_map", counting)
    rng = random.Random(3)
    for family in ("jordan", "tilde"):
        # an indecomposable's twisted copy has an invertible basis map
        for M in _indecomposables(family, field):
            T = twisted(M, rng)
            assert is_isomorphic(M, T) is True
            assert add_membership(T, [M]) and stable_add_membership(T, [M])
            assert stable_iso(T, M)
    assert built == []

"""The cover step's shared data and the isomorphism-first add-membership.

A ``Cover`` wraps dimensions and action cached per vertex tuple in its
algebra, which must equal a fresh direct sum of the P(v) and hold no
module; ``add_membership`` and ``stable_add_membership`` try an
isomorphism certificate to each generator before the trace test, and must
answer as the trace test alone does (``pairwise_reference``).
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

from singcat import homology, homspace, rep
from singcat.exact_linalg import prime_field, rational_field
from singcat.families import interval_module, nakayama2_tilde
from singcat.homology import syzygy
from singcat.homspace import add_membership, stable_add_membership
from singcat.quiver_algebra import (
    nakayama_cyclic, orbit_grid_algebra, valid_triples_window,
)
from singcat.rep import (
    Cover, Representation, direct_sum, projective_cover, projective_module,
    projectives,
)
from singcat.stab import skeleton

from builders import jordan_module, twisted
from pairwise_reference import (
    add_membership_by_trace, stable_add_membership_by_trace,
)

FIELDS = [rational_field(), prime_field(2), prime_field(101)]
KS = (3, 2, 3, 3)
TRIPLES = valid_triples_window(KS, 0, len(KS))


def _cover_tuples(alg) -> list[tuple]:
    return [k[1] for k in alg.cache if isinstance(k, tuple) and k[0] == "cover"]


@pytest.mark.parametrize("fld", [rational_field(), prime_field(101)],
                         ids=repr)
def test_projective_cover_is_the_modules_own_cover(fld):
    """``projective_cover(M)`` returns M's own cover, the one a resolution
    of M starts with."""
    _, spec = nakayama2_tilde(KS, len(KS), fld)
    for M in spec.generators[:6]:
        assert projective_cover(M)[0] is homology.resolve(M, 0).covers[0]


@pytest.mark.parametrize("fld", [rational_field(), prime_field(101)],
                         ids=repr)
def test_kernel_of_a_resolutions_cover_map_eliminates_nothing(fld,
                                                              monkeypatch):
    """The cover map of a resolution carries its step's eliminations, so
    its kernel, Omega M, is read with no elimination."""
    _, spec = nakayama2_tilde(KS, len(KS), fld)
    for M in spec.generators[:6]:
        res = homology.resolve(M, 0)
        calls = []
        monkeypatch.setattr(rep, "kernel_and_section", calls.append)
        K, _ = rep.kernel(res.eps[0])
        monkeypatch.undo()
        assert calls == []
        assert (K.dims, K.action) == (res.kernels[1].dims,
                                      res.kernels[1].action)


def test_cached_cover_matches_a_fresh_direct_sum():
    _, spec = nakayama2_tilde(KS, len(KS), rational_field())
    alg = spec.algebra
    assert skeleton(spec).count == 3
    # covers of sums of generators have several summands, some repeated
    G = spec.generators
    for pick in ([0, 5], [3, 3, 8], [1, 12, 20]):
        projective_cover(direct_sum([G[i] for i in pick]))
    tuples = _cover_tuples(alg)
    assert len(tuples) > 10 and max(map(len, tuples)) >= 3
    for verts in tuples:
        a, b = Cover(alg, verts), Cover(alg, verts)
        assert a.rep is not b.rep
        assert a.rep.dims is b.rep.dims and a.rep.action is b.rep.action
        summands = [projective_module(alg, v) for v in verts]
        fresh = direct_sum(summands)
        assert a.rep.dims == fresh.dims and a.rep.action == fresh.action
        # summand j's generator, its trivial path, is a top row at v_j
        gen_rows = [(v, sum(s.dims[v] for s in summands[:j]))
                    for j, v in enumerate(verts)]
        assert sorted(rep._top_rows(alg, a.rep.dims, a.rep.action)) == sorted(
            gen_rows)


def _record_entries(alg) -> tuple[list, list]:
    """(path-action tables, cover steps) kept in the records of the
    algebra cache, but the shared empty tuple of a vertex where a module is
    zero."""
    records = [r for r in alg.cache.values() if isinstance(r, rep._Record)]
    tables = [t for r in records for k, t in r.memo.items()
              if k[0] == "paths" and t]
    return tables, [r.memo["step"] for r in records if "step" in r.memo]


def test_dropping_the_algebra_frees_its_modules():
    """No record holds a module, so an algebra, its generators, their
    syzygies and the covers' modules die by reference counting, and so do
    the records with their path-action tables and cover steps."""
    gc.collect()
    gc.disable()
    try:
        alg, spec = nakayama2_tilde(KS, len(KS), rational_field())
        report = skeleton(spec)
        mods = [syzygy(g, k) for g in spec.generators for k in range(3)]
        covers = [rep._cover_step(M)[0].rep for M in mods]
        assert _cover_tuples(alg)
        tables, steps = _record_entries(alg)
        assert tables and all(isinstance(t, tuple) for t in tables)
        assert steps
        # one entry per record: modules of one content share it
        records = list({id(r): r for r in map(rep._record, mods)}.values())
        refs = [weakref.ref(x) for x in [alg] + mods + covers]
        del alg, spec, report, mods, covers
        alive = sum(r() is not None for r in refs)
        assert alive == 0, f"{alive} of {len(refs)} objects kept alive"
        kept = 0
        while records:
            # held by the list and getrefcount's argument alone
            kept += sys.getrefcount(records.pop()) > 2
        assert kept == 0, f"{kept} records kept alive"
        while tables:
            t = tables.pop()
            kept += sys.getrefcount(t) > 2
        assert kept == 0, f"{kept} path tables kept alive"
        while steps:
            kept += sys.getrefcount(steps.pop()) > 2
        assert kept == 0, f"{kept} cover steps kept alive"
    finally:
        gc.enable()


@lru_cache(maxsize=None)
def _family(name: str, field: str) -> tuple:
    """(indecomposable non-isomorphic base modules, projectives) over one
    algebra: the Jordan blocks of k[x]/(x^5), or the intervals of the
    (3, 2, 3, 3) grid orbit."""
    fld = {repr(f): f for f in FIELDS}[field]
    if name == "jordan":
        alg = nakayama_cyclic((5,), fld)
        base = [jordan_module(alg, i) for i in range(1, 6)]
    else:
        alg = orbit_grid_algebra(KS, fld)
        # the window's one triple with l1 = n, (4, 4, 4), is isomorphic to
        # (0, 0, 0) on the orbit algebra, so it is left out
        base = [interval_module(alg, t) for t in TRIPLES if t[0] < len(KS)]
    return tuple(base), tuple(p for _, p in projectives(alg))


@st.composite
def membership_cases(draw):
    """(kind, M, generators); every generator is a base module, twisted or
    not, and M is a twisted copy of one, one plus a projective, the sum of
    two, or a base module outside the list."""
    base, projs = _family(draw(st.sampled_from(["jordan", "tilde"])),
                          draw(st.sampled_from(sorted(map(repr, FIELDS)))))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    picked = draw(st.lists(st.integers(0, len(base) - 2), min_size=1,
                           max_size=3, unique=True))
    gens = [twisted(base[i], rng) if draw(st.booleans()) else base[i]
            for i in picked]
    kind = draw(st.sampled_from(["copy", "plus_projective", "sum", "outside"]))
    g = base[draw(st.sampled_from(picked))]
    if kind == "copy":
        M = twisted(g, rng)
    elif kind == "plus_projective":
        M = direct_sum([g, draw(st.sampled_from(projs))])
    elif kind == "sum":
        M = direct_sum([g, base[draw(st.sampled_from(picked))]])
    else:
        M = base[draw(st.sampled_from(
            [i for i in range(len(base)) if i not in picked]))]
    return kind, M, gens


@settings(max_examples=60, deadline=None)
@given(membership_cases())
def test_isomorphism_first_membership_matches_the_trace_test(case):
    kind, M, gens = case
    got = add_membership(M, gens)
    assert got == add_membership_by_trace(M, gens)
    stable = stable_add_membership(M, gens)
    assert stable == stable_add_membership_by_trace(M, gens)
    if kind in ("copy", "sum"):
        assert got and stable
    elif kind == "plus_projective":
        assert stable
    else:
        assert not got


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_isomorphism_certificate_settles_membership_first(fld, monkeypatch):
    alg = orbit_grid_algebra(KS, fld)
    base = [interval_module(alg, t) for t in TRIPLES]
    g = base[3]
    others = [h for h in base if h.dims != g.dims][:3]
    gens = others + [g]
    built = []
    real = homspace.hom

    def counting(A, B):
        built.append((A, B))
        return real(A, B)
    monkeypatch.setattr(homspace, "hom", counting)
    # equal matrices certify with no Hom space built
    M = Representation(alg, g.dims, g.action)
    assert add_membership(M, gens) and stable_add_membership(M, gens)
    assert built == []
    # a twisted copy is certified by the one basis of hom(g, T); over F_2
    # the only unit is 1, and the twist of a module with one basis vector
    # per vertex is g's matrices again
    T = twisted(g, random.Random(1))
    assert add_membership(T, gens)
    assert built == ([] if T.action == g.action else [(g, T)])
    assert (T.action == g.action) == (fld.p == 2)

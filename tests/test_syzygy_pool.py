"""The content records behind ``rep._step``, the one cover step of every
module.

A module whose content (dimension vector and arrow entries) was stepped
before over its algebra reads the step from the content's record, so its
cover step and memos are computed once per content, whether the earlier
module is still alive or not.  Answers must equal those of a fresh cover,
eps and kernel per module (``pairwise_reference.step_unpooled``), and an
orbit that closes in content must stay a chain of objects, freed by
reference counting.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcat import homology, rep
from singcat.exact_linalg import Matrix, prime_field, rational_field
from singcat.families import interval_module, nakayama2_tilde
from singcat.homology import ext_dim, pd_certificate, syzygy
from singcat.homspace import _stable_dim, hom_dim, stable_iso
from singcat.quiver_algebra import (
    BoundQuiverAlgebra, nakayama_cyclic, orbit_grid_algebra,
    valid_triples_window,
)
from singcat.rep import RepMorphism, Representation, direct_sum
from singcat.stab import OrbitNotResolved, skeleton
from singcat.tilting import SubcatSpec, verify_cluster_tilting

from builders import is_canonical_scalar, jordan_module, jordan_spec, twisted
from pairwise_reference import step_unpooled

FIELDS = [rational_field(), prime_field(2), prime_field(101)]
KS = (3, 2, 3, 3)
TRIPLES = valid_triples_window(KS, 0, len(KS))
def _modules(fld, family, picks, seed):
    """A fresh algebra, the picked modules and d.

    A pick is (summand indices, twist flag): the direct sum of one or two
    base modules, twisted when flagged.  Sums give syzygies with equal
    dimension vectors and different matrices, such as those of J_1 + J_3
    and J_2 + J_2 over k[x]/(x^5).
    """
    rng = random.Random(seed)
    if family == "jordan":
        alg = nakayama_cyclic((5,), fld)
        base = [jordan_module(alg, i) for i in range(1, 6)]
        d = 1
    else:
        alg = orbit_grid_algebra(KS, fld)
        base = [interval_module(alg, t) for t in TRIPLES]
        d = 2
    mods = []
    for idx, tw in picks:
        M = direct_sum([base[i] for i in idx]) if len(idx) > 1 else base[idx[0]]
        mods.append(twisted(M, rng) if tw else M)
    return alg, mods, d


def _answers(fld, family, picks, seed, pairs=6):
    """pd certificates and skeleton of the picked modules, and Ext^1, Ext^2,
    stable Hom dimensions and stable-class verdicts of the first ``pairs``."""
    alg, mods, d = _modules(fld, family, picks, seed)
    out = {"pd": [pd_certificate(M, 12) for M in mods], "ext": [],
           "stable": []}
    few = mods[:pairs]
    for A in few:
        for B in few:
            out["ext"].append((ext_dim(A, B, 1), ext_dim(A, B, 2)))
            out["stable"].append((_stable_dim(A, B), stable_iso(A, B)))
    labels = [f"g{k}" for k in range(len(mods))]
    try:
        r = skeleton(SubcatSpec(alg, mods, d, labels=labels), horizon=12)
    except OrbitNotResolved as e:
        out["skeleton"] = ("unresolved", e.label)
    else:
        out["skeleton"] = (
            r.count, r.hom_matrix, r.zero_classes, r.membership,
            r.identification,
            [(c.cycle_labels, c.orbit_length, c.shift_period,
              c.representative.shift) for c in r.classes])
    return out


def _recorded_and_fresh(*args, **kwargs):
    """The answers with the recorded step, and with ``step_unpooled`` bound
    in every namespace that binds ``rep._step``, rep's own included, so
    that no step is read from a record."""
    recorded = _answers(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        bound = [mod for name, mod in list(sys.modules.items())
                 if name.partition(".")[0] == "singcat"
                 and getattr(mod, "_step", None) is rep._step]
        assert rep in bound
        for mod in bound:
            mp.setattr(mod, "_step", step_unpooled)
        mp.setattr(rep, "_build_step", None)  # every step is step_unpooled's
        fresh = _answers(*args, **kwargs)
    return recorded, fresh


@settings(max_examples=30, deadline=None)
@given(fld=st.sampled_from(FIELDS), family=st.sampled_from(["jordan", "tilde"]),
       data=st.data())
def test_pooled_answers_match_fresh_kernels(fld, family, data):
    size = 5 if family == "jordan" else len(TRIPLES)
    index = st.integers(0, size - 1)
    picks = data.draw(st.lists(
        st.tuples(st.lists(index, min_size=1, max_size=2), st.booleans()),
        min_size=1, max_size=6))
    seed = data.draw(st.integers(0, 2 ** 16))
    recorded, fresh = _recorded_and_fresh(fld, family, picks, seed)
    assert recorded == fresh


@pytest.mark.parametrize("family,size", [("jordan", 5),
                                         ("tilde", len(TRIPLES))])
@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_pooled_skeleton_of_twisted_spec_matches_fresh_kernels(fld, family,
                                                                size):
    """Every generator, every other one twisted, in a shuffled order."""
    order = random.Random(size).sample(range(size), size)
    picks = [([i], k % 2 == 1) for k, i in enumerate(order)]
    recorded, fresh = _recorded_and_fresh(fld, family, picks, 7, pairs=3)
    assert recorded == fresh
    assert recorded["skeleton"][0] == (4 if family == "jordan" else 3)


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_equal_first_syzygies_share_one_record(fld, monkeypatch):
    alg = nakayama_cyclic((4,), fld)
    z, o = fld.zero, fld.one
    A = jordan_module(alg, 2)
    # J_2 in the reversed basis: other matrices, the same kernel of P -> J_2
    B = Representation(alg, {"0": 2},
                       {"a0": Matrix.from_rows(fld, [[z, z], [o, z]], 2)})
    assert A.action != B.action
    covers = []
    orig = rep._build_step

    def counting(M):
        covers.append(id(M))  # not M, which would keep it alive
        return orig(M)

    monkeypatch.setattr(rep, "_build_step", counting)
    K = syzygy(A)
    KB = syzygy(B)
    assert KB is not K and rep._record(KB) is rep._record(K)
    for k in range(1, 5):
        assert rep._record(syzygy(B, k)) is rep._record(syzygy(A, k))
    # one cover per content: A's, B's and their syzygies'
    contents = {rep._record(X).content
                for X in [A, B] + [syzygy(A, k) for k in range(1, 5)]}
    assert len(covers) == len(contents)
    # B's inclusion starts at B's own syzygy and ends in B's own cover
    cover, KB = rep._cover_step(B)
    eps, inc = rep._cover_maps(B)
    assert inc.src is KB and inc.tgt is cover.rep is eps.src and eps.tgt is B
    inc = RepMorphism(KB, cover.rep, inc.mats, check=True)
    assert inc.compose(RepMorphism(cover.rep, B, eps.mats,
                                   check=True)).is_zero()
    assert stable_iso(K, KB)


@pytest.mark.parametrize("n,i,period", [(4, 2, 1), (3, 1, 2), (5, 2, 2)])
def test_orbit_closing_in_content_stays_acyclic(n, i, period):
    alg = nakayama_cyclic((n,), rational_field())
    M = jordan_module(alg, i)
    orbit = [syzygy(M, k) for k in range(1, 3 * period + 2)]
    # the orbit closes in content ...
    assert orbit[period].action == orbit[0].action
    assert orbit[period].dims == orbit[0].dims
    # ... but every member is its own object, so the chain has no cycle
    assert len({id(K) for K in orbit}) == len(orbit)
    gc.collect()
    gc.disable()
    try:
        refs = [weakref.ref(K) for K in [M] + orbit]
        del M, orbit
        alive = sum(r() is not None for r in refs)
        assert alive == 0, f"{alive} of {len(refs)} modules kept alive"
    finally:
        gc.enable()


@pytest.mark.parametrize("n,i,period", [(4, 2, 1), (3, 1, 2), (5, 2, 2)])
@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_orbit_laps_reuse_the_twin_cover_step(fld, n, i, period,
                                              monkeypatch):
    """An orbit walk computes one cover per distinct content: each later
    lap reads its twin's step, with the twin's cover, eps, inclusion
    matrices and presentation, wrapped in fresh objects, and stays a chain
    of objects freed by reference counting."""
    alg = nakayama_cyclic((n,), fld)
    covers = []
    orig = rep._build_step

    def counting(M):
        covers.append(id(M))  # not M, which would keep it alive
        return orig(M)

    monkeypatch.setattr(rep, "_build_step", counting)
    J = jordan_module(alg, i)
    K = syzygy(J)
    laps = 3
    stepped = [K] + [syzygy(K, k) for k in range(1, laps * period)]
    last = syzygy(stepped[-1])
    contents = {rep._record(X).content for X in stepped}
    assert len(contents) == period
    assert len(covers) == len(contents | {rep._record(J).content})
    assert len({id(X) for X in stepped + [last]}) == laps * period + 1
    for k in range(period, laps * period):
        twin = rep._cover_step(stepped[k - period])
        lap = rep._cover_step(stepped[k])
        assert rep._record(stepped[k]) is rep._record(stepped[k - period])
        assert rep._step(stepped[k]) is rep._step(stepped[k - period])
        assert lap[0] is not twin[0] and lap[0].vertices == twin[0].vertices
        inc = rep._cover_maps(stepped[k])[1]
        assert all(inc.mats[v] is m
                   for v, m in rep._step(stepped[k - period]).inc.items())
        assert inc.src is lap[1] and lap[1] is not twin[1]
        assert lap[1].action is twin[1].action
    gc.collect()
    gc.disable()
    try:
        refs = [weakref.ref(X) for X in [J] + stepped + [last]]
        del J, K, stepped, last, twin, lap, inc
        alive = sum(r() is not None for r in refs)
        assert alive == 0, f"{alive} of {len(refs)} modules kept alive"
    finally:
        gc.enable()


# Each cover step of one a2-tilde-3233 skeleton is a _build_step call;
# with one record per content there are 31 (88 with a cover per module).
TILDE_SKELETON_COVER_STEPS = 31


def test_tilde_skeleton_cover_step_budget(monkeypatch):
    calls = []
    orig = rep._build_step

    def counting(M):
        calls.append(M)
        return orig(M)

    monkeypatch.setattr(rep, "_build_step", counting)
    _, spec = nakayama2_tilde(KS, len(KS), rational_field())
    assert skeleton(spec).count == 3
    assert len(calls) <= TILDE_SKELETON_COVER_STEPS


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_generator_whose_content_recurs_is_stepped_once(fld, monkeypatch):
    """A stepped generator's record serves a later syzygy with its
    content: the untwisted k[x]/(x^5) Jordan skeleton covers each of its 5
    contents once, and the orbit of J_2 over k[x]/(x^4), whose syzygy has
    J_2's matrices, is covered once."""
    covers = []
    orig = rep._build_step

    def counting(M):
        covers.append(rep._record(M).content)
        return orig(M)

    monkeypatch.setattr(rep, "_build_step", counting)
    assert skeleton(jordan_spec(nakayama_cyclic((5,), fld), 5)).count == 4
    assert len(covers) == len(set(covers)) == 5
    covers.clear()
    M = jordan_module(nakayama_cyclic((4,), fld), 2)
    cert = pd_certificate(M)
    assert (cert.status, cert.preperiod, cert.period) == (
        "infinite_periodic", 0, 1)
    assert syzygy(M).action == M.action and syzygy(M) is not M
    assert len(covers) == 1


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_hom_source_donates_its_step_to_a_content_twin(fld, monkeypatch):
    """A module covered as the source of a Hom space is stepped through
    its record: a content twin reuses the cover step, with no second
    projective cover, and its syzygy shares the record of M's."""
    alg = orbit_grid_algebra(KS, fld)
    M = interval_module(alg, (1, 1, 3))
    N = interval_module(alg, (1, 2, 3))
    covers = []
    orig = rep._build_step

    def counting(X):
        covers.append(id(X))  # not X, which would keep it alive
        return orig(X)

    monkeypatch.setattr(rep, "_build_step", counting)
    assert hom_dim(M, N) == 1
    assert covers == [id(M)]
    twin = Representation._wrap(alg, M.dims, M.action)
    K = syzygy(twin)
    assert covers == [id(M)]
    assert K is not syzygy(M) and K is twin._syzygy_step[1]
    assert rep._record(K) is rep._record(syzygy(M))


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_freed_module_leaves_its_step_to_a_later_twin(fld, monkeypatch):
    """A module stepped and then freed leaves its step in the record of its
    content: a module built afresh with that content is not covered
    again."""
    alg = nakayama_cyclic((5,), fld)
    covers = []
    orig = rep._build_step

    def counting(M):
        covers.append(id(M))  # not M, which would keep it alive
        return orig(M)

    monkeypatch.setattr(rep, "_build_step", counting)
    M = jordan_module(alg, 3)
    dims, action = M.dims, M.action
    rep._cover_step(M)
    assert len(covers) == 1
    ref = weakref.ref(M)
    del M
    assert ref() is None
    fresh = Representation(alg, dict(dims), dict(action))
    assert syzygy(fresh).total_dim == 2
    assert len(covers) == 1


def test_records_hold_no_module_morphism_cover_or_algebra():
    """Every value in a2-tilde-3233's cache after ``ct verify`` and
    ``skeleton`` over Q, the cached opposite algebra aside, reaches no
    module, morphism, cover or algebra, and every scalar it reaches is
    canonical: an int, or a Fraction that is not integral, and no float."""
    _, spec = nakayama2_tilde(KS, len(KS), rational_field())
    alg = spec.algebra
    assert verify_cluster_tilting(spec).verdict == "certificate_only"
    assert skeleton(spec).count == 3
    records = [x for x in alg.cache.values() if isinstance(x, rep._Record)]
    assert any("step" in r.memo for r in records)
    assert any(k != "step" for r in records for k in r.memo)
    forbidden = (Representation, RepMorphism, rep.Cover, BoundQuiverAlgebra)
    seen, stack, found = set(), [v for k, v in alg.cache.items()
                                 if k != "opposite"], []
    scalars = bad = 0
    while stack:
        x = stack.pop()
        # bools are memoised verdicts, not scalars
        if isinstance(x, (int, Fraction, float)) and type(x) is not bool:
            scalars += 1
            bad += not is_canonical_scalar(alg.field, x)
            continue
        if id(x) in seen or isinstance(x, str) or x is None:
            continue
        seen.add(id(x))
        if isinstance(x, forbidden):
            found.append(type(x).__name__)
            continue
        if isinstance(x, dict):
            stack += list(x.keys()) + list(x.values())
        elif isinstance(x, (tuple, list, set, frozenset)):
            stack += list(x)
        else:
            stack += [getattr(x, a) for a in getattr(x, "__slots__", ())
                      if hasattr(x, a)]
            stack += list(getattr(x, "__dict__", {}).values())
    assert not found, f"the cache reaches {sorted(set(found))}"
    assert scalars and not bad, f"{bad} of {scalars} scalars not canonical"


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_orbit_walk_over_stepped_contents_builds_no_morphism(fld,
                                                             monkeypatch):
    """An orbit walk reads each syzygy and its dimensions off the cover
    steps and builds no morphism: once every content of an orbit was
    stepped and its stable classes decided, walking the orbit of a fresh
    module of that content constructs no RepMorphism at all."""
    cases = [(interval_module(orbit_grid_algebra(KS, fld), t), 24)
             for t in ((0, 0, 0), (2, 2, 3), (1, 2, 2), (3, 3, 3))]
    cases.append((jordan_module(nakayama_cyclic((5,), fld), 2), 24))
    walked = [(M, h, pd_certificate(M, h)) for M, h in cases]
    built = []
    real = RepMorphism.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self))
        real(self, *args, **kwargs)
    monkeypatch.setattr(RepMorphism, "__init__", counting)
    for M, h, cert in walked:
        twin = Representation(M.algebra, M.dims, M.action)
        assert homology._walk_orbit(twin, h) == cert
        # the walk passed Omega^1 M at least: twin keeps its own syzygy
        assert "_syzygy_step" in vars(twin) and syzygy(twin) is not syzygy(M)
    assert built == []
    assert {c.status for _, _, c in walked} == {"finite",
                                                "infinite_periodic"}

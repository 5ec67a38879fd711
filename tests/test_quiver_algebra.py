from __future__ import annotations

import random

import pytest

from singcat.exact_linalg import prime_field, rational_field
from singcat.quiver_algebra import (
    Arrow,
    InvalidKupisch,
    NonHomogeneousRelation,
    NotFiniteDimensionalWithinBound,
    PathWord,
    Quiver,
    QuiverError,
    RelationElement,
    UnsupportedKupischValue,
    WindowTooSmall,
    compute_basis,
    nakayama2_infinite,
    nakayama_cyclic,
    opposite_algebra,
    orbit_grid_algebra,
    truncate,
    valid_triple,
    valid_triples_window,
)


def test_quiver_rejects_duplicate_ids():
    with pytest.raises(QuiverError):
        Quiver(["x", "x"], [])
    with pytest.raises(QuiverError):
        Quiver(["x", "y"], [Arrow("a", "x", "y"), Arrow("a", "y", "x")])


def test_pathword_composability():
    q = Quiver(["x", "y", "z"], [Arrow("a", "x", "y"), Arrow("b", "y", "z")])
    p = PathWord(q, "x", ["a", "b"])
    assert p.tgt == "z"
    assert len(p) == 2
    with pytest.raises(QuiverError):
        PathWord(q, "x", ["b"])
    with pytest.raises(QuiverError):
        PathWord(q, "y", ["a"])


def test_relation_element_validation():
    q = Quiver(["x", "y", "z"], [Arrow("a", "x", "y"), Arrow("b", "y", "z"),
                                 Arrow("c", "x", "z")])
    f = rational_field()
    with pytest.raises(QuiverError):
        RelationElement([])
    # single arrows are not admissible relation terms
    with pytest.raises(QuiverError):
        RelationElement([(f.one, PathWord(q, "x", ["c"]))])
    with pytest.raises(QuiverError):
        RelationElement([(f.zero, PathWord(q, "x", ["a", "b"]))])


def test_truncated_polynomial_dims():
    f = rational_field()
    for m in range(2, 7):
        alg = nakayama_cyclic((m,), f)
        assert alg.dimension == m
        assert [len(layer) for layer in alg.basis_by_len] == [1] * m


def test_kupisch_two_two():
    f = rational_field()
    alg = nakayama_cyclic((2, 2), f)
    assert alg.dimension == 4
    assert len(alg.basis("0", "1")) == 1
    assert len(alg.basis("0", "0")) == 1
    assert alg.basis("0", "0") == [("0", ())]


def test_kupisch_validation():
    f = rational_field()
    with pytest.raises(InvalidKupisch):
        nakayama_cyclic((), f)
    with pytest.raises(InvalidKupisch):
        nakayama_cyclic((2, 1), f)
    # successor length may drop by at most one around the cycle
    with pytest.raises(InvalidKupisch):
        nakayama_cyclic((4, 2), f)
    with pytest.raises(UnsupportedKupischValue):
        orbit_grid_algebra((4, 4), f)
    with pytest.raises(InvalidKupisch):
        orbit_grid_algebra((), f)


def test_orbit_algebra_shape(orbit):
    assert orbit.dimension == 34
    assert len(orbit.quiver.vertices) == 11
    assert len(orbit.quiver.arrows) == 14
    assert len(orbit.relations) == 10
    assert [len(layer) for layer in orbit.basis_by_len] == [11, 14, 9]
    two_term = [r for r in orbit.relations if len(r.terms) == 2]
    one_term = [r for r in orbit.relations if len(r.terms) == 1]
    assert len(two_term) == 3
    assert len(one_term) == 7
    commuting_at = sorted(r.src for r in two_term)
    assert commuting_at == ["(1,2)", "(2,3)", "(3,4)"]


def test_orbit_path_space_dims(orbit):
    by_source = {v: len(orbit.paths_from(v)) for v in orbit.quiver.vertices}
    assert by_source == {
        "(0,0)": 3, "(0,1)": 2, "(0,2)": 3, "(1,1)": 2, "(1,2)": 4,
        "(1,3)": 3, "(2,2)": 3, "(2,3)": 4, "(2,4)": 3, "(3,3)": 3,
        "(3,4)": 4,
    }


def test_orbit_commutation_and_zero_words(orbit):
    # both routes (1,2) -> (0,1) exist and agree in the quotient
    down = orbit.word_vector("(1,2)", ["(1,2)>(1,1)", "(1,1)>(0,1)"])
    left = orbit.word_vector("(1,2)", ["(1,2)>(0,2)", "(0,2)>(0,1)"])
    assert down == left
    assert len(down) == 1
    # only one route leaves (0,1), and it is a zero relation
    gone = orbit.word_vector("(0,1)", ["(0,1)>(0,0)", "(0,0)>(3,4)"])
    assert gone == {}


def test_orbit_product_associativity(orbit):
    keys = [k for layer in orbit.basis_by_len for k in layer]
    f = orbit.field

    def times(vec, key):
        out = {}
        for k1, c in vec.items():
            for k2, c2 in orbit.product(k1, key).items():
                cur = f.add(out.get(k2, f.zero), f.mul(c, c2))
                if cur:
                    out[k2] = cur
                elif k2 in out:
                    del out[k2]
        return out

    rng = random.Random(0)
    for _ in range(200):
        x, y, z = (rng.choice(keys) for _ in range(3))
        left = times(orbit.product(x, y), z)
        right = {}
        yz = orbit.product(y, z)
        for k2, c2 in yz.items():
            for k3, c3 in orbit.product(x, k2).items():
                cur = f.add(right.get(k3, f.zero), f.mul(c2, c3))
                if cur:
                    right[k3] = cur
                elif k3 in right:
                    del right[k3]
        assert left == right


def test_nonhomogeneous_relation_rejected():
    q = Quiver(["1", "2", "3", "4", "5"],
               [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "3", "4"),
                Arrow("d", "1", "5"), Arrow("e", "5", "4")])
    f = rational_field()
    long = PathWord(q, "1", ["a", "b", "c"])
    short = PathWord(q, "1", ["d", "e"])
    rel = RelationElement([(f.one, long), (f.neg(f.one), short)])
    with pytest.raises(NonHomogeneousRelation):
        compute_basis(q, [rel], f, 10)


@pytest.mark.parametrize("f", (rational_field(), prime_field(2)), ids=("Q", "F2"))
def test_relation_that_reduces_to_zero_adds_no_row(f):
    # xa = xb makes the degree-3 relation xay - xby reduce to 0 in one column
    q = Quiver(["u", "v", "w", "t"],
               [Arrow("x", "u", "v"), Arrow("a", "v", "w"), Arrow("b", "v", "w"),
                Arrow("y", "w", "t")])
    rels = [RelationElement([(f.one, PathWord(q, "u", ["x", "a"])),
                             (f.neg(f.one), PathWord(q, "u", ["x", "b"]))]),
            RelationElement([(f.one, PathWord(q, "u", ["x", "a", "y"])),
                             (f.neg(f.one), PathWord(q, "u", ["x", "b", "y"]))])]
    alg = compute_basis(q, rels, f, 5)
    # 4 vertices, 4 arrows, xb ay by, xby
    assert alg.dimension == 12
    assert [len(layer) for layer in alg.basis_by_len] == [4, 4, 3, 1]


def test_unbounded_path_algebra_detected():
    q = Quiver(["x"], [Arrow("t", "x", "x")])
    with pytest.raises(NotFiniteDimensionalWithinBound):
        compute_basis(q, [], rational_field(), 5)


def test_valid_triples_window_count():
    ks = (3, 2, 3, 3)
    trs = valid_triples_window(ks, 0, 4)
    assert len(trs) == 22
    assert trs == sorted(trs)
    proj = [t for t in trs if t[0] == t[2] + 1 - ks[t[2] % 4]]
    assert len(proj) == 11
    assert (0, 0, 0) in trs and (4, 4, 4) in trs
    assert not valid_triple(ks, (0, 0, 3))
    assert not valid_triple(ks, (1, 0, 2))


def test_opposite_algebra_roundtrip(orbit):
    op = opposite_algebra(orbit)
    assert op.dimension == orbit.dimension
    assert opposite_algebra(op) is orbit
    a = orbit.quiver.arrows[0]
    b = op.quiver.arrow_by_id[a.id]
    assert (b.src, b.tgt) == (a.tgt, a.src)


def test_trivial_path_is_first_at_every_vertex(orbit):
    # rep.projective_radical, and the cover generator rows that the tests
    # locate from summand offsets (pairwise_reference.summand_offsets),
    # read the trivial path (v, ()) as row 0 of P(v) at v, which holds
    # because compute_basis puts the length-0 paths first
    f = rational_field()
    quiver = Quiver(["u", "v"], [Arrow("a", "u", "v"), Arrow("b", "v", "u")])
    rels = [RelationElement([(f.one, PathWord(quiver, "u", ["a", "b"]))])]
    algebras = [nakayama_cyclic((3, 2, 3), f), orbit,
                truncate(nakayama2_infinite((3, 2, 3, 3), f), 3)[0],
                compute_basis(quiver, rels, f, 6), opposite_algebra(orbit)]
    for alg in algebras:
        for v in alg.quiver.vertices:
            assert alg.basis(v, v)[0] == (v, ())
            assert alg.paths_from(v)[0] == (v, ())


def test_truncate_window_and_safe_region():
    f = rational_field()
    pres = nakayama2_infinite((3, 2, 3, 3), f)
    with pytest.raises(WindowTooSmall):
        truncate(pres, 1)
    # margin 4 on both sides of a 2-period window leaves nothing
    with pytest.raises(WindowTooSmall):
        truncate(pres, 2, depth=2)
    alg, safe = truncate(pres, 3, depth=2)
    assert alg.meta["kind"] == "nakayama2-window"
    assert safe == {"(4,4)", "(4,5)", "(4,6)", "(5,5)", "(5,6)", "(5,7)",
                    "(6,6)", "(6,7)", "(7,7)"}
    for vid in safe:
        assert vid in alg.quiver.arrows_from
    # shifting the start relabels the window consistently
    alg2, safe2 = truncate(pres, 3, depth=2, start=1)
    assert safe2 == {"(8,8)", "(8,9)", "(8,10)", "(9,9)", "(9,10)", "(9,11)",
                     "(10,10)", "(10,11)", "(11,11)"}
    assert alg2.dimension == alg.dimension


def test_window_algebra_is_shift_of_orbit_locally():
    """Within the safe region the window algebra has the orbit's path counts."""
    f = rational_field()
    pres = nakayama2_infinite((3, 2, 3, 3), f)
    alg, safe = truncate(pres, 4, depth=2)
    orbit_counts = {
        "(0,0)": 3, "(0,1)": 2, "(0,2)": 3, "(1,1)": 2, "(1,2)": 4,
        "(1,3)": 3, "(2,2)": 3, "(2,3)": 4, "(2,4)": 3, "(3,3)": 3,
        "(3,4)": 4,
    }
    for vid in safe:
        a, b = map(int, vid.strip("()").split(","))
        shift = (a % 4) - a
        canon = f"({a + shift},{b + shift})"
        assert len(alg.paths_from(vid)) == orbit_counts[canon], vid

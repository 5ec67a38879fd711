"""The relation check of ``Representation`` against the product form.

``Representation._check_relations`` multiplies each relation path from its
first arrow, scales only by a coefficient other than one and adds only
across terms.  The reference below builds every term from the identity,
scales it and adds it to a zero matrix, and tests the sum with ``==
zero``.  Both must accept and reject the same modules, over monomial
relations and a commutative square with a coefficient other than one, and
a violating module is malformed input: ``ValueError``, exit 3 through the
command line.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcat.cli import (
    EXIT_INPUT, EXIT_OK, algebra_from_json, algebra_to_json, dumps_canonical,
    main, module_to_json,
)
from singcat.exact_linalg import Matrix, prime_field, rational_field
from singcat.rep import Representation, projectives

FIELDS = {"Q": rational_field(), "F2": prime_field(2), "F101": prime_field(101)}
ENTRIES = (0, 0, 0, 1, -1, 2, 3)


def _square_json(field_obj: dict, coef: str) -> dict:
    """The commutative square 0 -> 1 -> 3, 0 -> 2 -> 3 with ab = coef cd,
    and a loop at 3 cubed to zero, a monomial relation of one term."""
    return {
        "field": field_obj, "vertices": ["0", "1", "2", "3"],
        "arrows": [{"id": "a", "src": "0", "tgt": "1"},
                   {"id": "b", "src": "1", "tgt": "3"},
                   {"id": "c", "src": "0", "tgt": "2"},
                   {"id": "d", "src": "2", "tgt": "3"},
                   {"id": "x", "src": "3", "tgt": "3"}],
        "relations": [[{"coef": "1", "path": ["a", "b"]},
                       {"coef": f"-{coef}", "path": ["c", "d"]}],
                      [{"coef": "1", "path": ["x", "x", "x"]}]],
    }


def _monomial_json(field_obj: dict) -> dict:
    """A cyclic quiver 0 -> 1 -> 0 with every path of length 3 zero."""
    return {
        "field": field_obj, "vertices": ["0", "1"],
        "arrows": [{"id": "p", "src": "0", "tgt": "1"},
                   {"id": "q", "src": "1", "tgt": "0"}],
        "relations": [[{"coef": "1", "path": ["p", "q", "p"]}],
                      [{"coef": "1", "path": ["q", "p", "q"]}]],
    }


def _field_json(name: str) -> dict:
    return ({"kind": "rational"} if name == "Q"
            else {"kind": "prime", "p": FIELDS[name].p})


@lru_cache(maxsize=None)
def _algebra(kind: str, field: str):
    obj = (_square_json(_field_json(field), "3") if kind == "square"
           else _monomial_json(_field_json(field)))
    return algebra_from_json(obj)


def relations_hold_by_products(M: Representation) -> bool:
    """Each relation's matrix built from identity products, scaled and
    summed from zero, then tested entry by entry with ``== zero``."""
    f = M.algebra.field
    for r in M.algebra.relations:
        acc = Matrix.zeros(f, M.dims[r.src], M.dims[r.tgt])
        for coef, path in r.terms:
            m = Matrix.identity(f, M.dims[path.src])
            for aid in path.arrows:
                m = m.mul(M.action[aid])
            acc = acc.add(m.scale(coef))
        if not acc.is_zero():
            return False
    return True


@st.composite
def modules(draw):
    """(algebra, dims, action): small dimensions and sparse small entries,
    so both verdicts come up."""
    alg = _algebra(draw(st.sampled_from(["square", "monomial"])),
                   draw(st.sampled_from(sorted(FIELDS))))
    f = alg.field
    dims = {v: draw(st.integers(0, 2)) for v in alg.quiver.vertices}
    action = {}
    for a in alg.quiver.arrows:
        rows = [[f.of_int(draw(st.sampled_from(ENTRIES)))
                 for _ in range(dims[a.tgt])] for _ in range(dims[a.src])]
        action[a.id] = Matrix.from_rows(f, rows, dims[a.tgt])
    return alg, dims, action


@settings(max_examples=150, deadline=None)
@given(modules())
def test_relation_check_matches_the_product_form(case):
    alg, dims, action = case
    unchecked = Representation(alg, dims, action, check=False)
    if relations_hold_by_products(unchecked):
        M = Representation(alg, dims, action)
        assert M.action == unchecked.action
    else:
        with pytest.raises(ValueError, match="defining relation"):
            Representation(alg, dims, action)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_projectives_satisfy_the_relations(field):
    for kind in ("square", "monomial"):
        for _, P in projectives(_algebra(kind, field)):
            assert relations_hold_by_products(P)
            Representation(P.algebra, P.dims, P.action)


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_a_violating_module_is_malformed_input(tmp_path, capsys, field):
    """k at each vertex of the square, with a, b and d acting by one: the
    relation ab = 3 cd holds when c acts by 1/3, and breaks when c acts by
    zero or by one, which the constructor rejects and the command line
    reports with exit 3."""
    alg = _algebra("square", field)
    f = alg.field
    one = {"0": 1, "1": 1, "2": 1, "3": 1}

    def square_module(c):
        ent = {"a": f.one, "b": f.one, "c": c, "d": f.one, "x": f.zero}
        return Representation(alg, one, {
            a.id: Matrix.from_rows(f, [[ent[a.id]]], 1)
            for a in alg.quiver.arrows}, check=False)

    good = square_module(f.inv(f.of_int(3)))
    assert relations_hold_by_products(good)
    (tmp_path / "algebra.json").write_text(dumps_canonical(algebra_to_json(alg)))
    paths = {}
    for name, c in (("good", f.inv(f.of_int(3))), ("zero", f.zero),
                    ("unit", f.one)):
        M = square_module(c)
        assert relations_hold_by_products(M) == (name == "good")
        if name != "good":
            with pytest.raises(ValueError, match="defining relation"):
                Representation(alg, M.dims, M.action)
        paths[name] = tmp_path / f"m_{name}.json"
        paths[name].write_text(dumps_canonical(module_to_json(M, "algebra.json")))
    capsys.readouterr()
    assert main(["mod", "hom", str(paths["good"]), str(paths["good"])]) == EXIT_OK
    for name in ("zero", "unit"):
        assert main(["mod", "hom", str(paths[name]),
                     str(paths["good"])]) == EXIT_INPUT
        assert "defining relation" in capsys.readouterr().err

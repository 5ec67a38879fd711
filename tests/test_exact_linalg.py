import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcat.exact_linalg import (
    Field, FieldError, Matrix, _sparse_rows, echelon_solve, kernel_basis,
    prime_field, rank, rational_field, rref, sparse_rank, sparse_span_contains,
)

from builders import is_canonical_scalar
from dense_reference import (
    dense_kernel, dense_rref, dense_solve_left, row_space_contains,
)


def test_field_construction():
    assert prime_field(101).p == 101
    assert rational_field().kind == "rational"
    with pytest.raises(FieldError):
        Field("prime", 15)
    with pytest.raises(FieldError):
        Field("prime", 1)
    with pytest.raises(FieldError):
        Field("real")


def test_one_field_instance_per_field():
    assert rational_field() is Field("rational")
    assert prime_field(101) is Field("prime", 101)
    assert prime_field(101) is not prime_field(2)
    assert rational_field() != prime_field(2)
    assert pickle.loads(pickle.dumps(prime_field(7))) is prime_field(7)
    m = Matrix.identity(rational_field(), 2)
    assert copy.deepcopy(m).field is m.field


def test_field_arithmetic_round_trips():
    rng = random.Random(7)
    for f in (prime_field(101), prime_field(2), rational_field()):
        for _ in range(50):
            x = f.of_int(rng.randrange(-40, 40))
            y = f.of_int(rng.randrange(-40, 40))
            assert f.sub(f.add(x, y), y) == x
            if y != f.zero:
                assert f.div(f.mul(x, y), y) == x


def test_coefficient_strings():
    q = rational_field()
    assert q.from_str("-1") == Fraction(-1)
    assert q.from_str("2/3") == Fraction(2, 3)
    p = prime_field(7)
    assert p.from_str("-1") == 6
    assert p.from_str("2/3") == p.div(2, 3)
    for bad in ("1/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            q.from_str(bad)
    for bad in ("1/0", "1/7", "3/14"):
        with pytest.raises(ValueError, match="zero denominator"):
            p.from_str(bad)


@pytest.mark.parametrize("s, want", [
    ("7", 7), (" -3 ", -3), ("+3", 3), ("1_0", 10), ("-0", 0), ("3/1", 3),
    ("-4/2", -2), ("1e3", 1000), ("3/2", Fraction(3, 2)),
    ("1.5", Fraction(3, 2)),
])
def test_rational_coefficient_strings_are_canonical(s, want):
    got = rational_field().from_str(s)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("s", ["1/0", "0x1f", ""])
def test_malformed_rational_coefficient_strings(s):
    with pytest.raises(ValueError):
        rational_field().from_str(s)


_RATIONALS = st.one_of(st.integers(-12, 12),
                       st.builds(Fraction, st.integers(-12, 12),
                                 st.integers(1, 4)))


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS)
def test_rational_field_ops_return_canonical_scalars(a, b):
    """ints and raw Fractions, integral ones too, in; canonical scalars with
    Fraction's values out."""
    q = rational_field()
    fa, fb = Fraction(a), Fraction(b)
    out = [(q.add(a, b), fa + fb), (q.sub(a, b), fa - fb),
           (q.mul(a, b), fa * fb), (q.neg(a), -fa), (q.of_int(a), fa)]
    if b:
        out += [(q.inv(b), 1 / fb), (q.div(a, b), fa / fb)]
    for got, want in out:
        assert got == want and is_canonical_scalar(q, got)


@pytest.mark.parametrize("f", [rational_field(), prime_field(7)], ids=repr)
def test_loaded_zero_and_one_are_the_fields_own(f):
    """Parsed and converted zeros and ones are the shared ``zero`` and
    ``one``, so identity checks against them skip loaded entries too."""
    for s in ("0", "-0", "0/5", " 0 "):
        assert f.from_str(s) is f.zero
    assert f.of_int(0) is f.zero
    for s in ("1", "3/3"):
        assert f.from_str(s) is f.one
    assert f.of_int(1) is f.one
    assert f.from_str("2/3") == f.div(f.of_int(2), f.of_int(3))


@pytest.mark.parametrize("p", [2, 101])
def test_of_int_over_a_prime_field_takes_integers_only(p):
    f = prime_field(p)
    assert f.of_int(Fraction(-6, 2)) == -3 % p
    assert f.of_int(p + 1) is f.one
    for bad in (Fraction(3, 2), 1.5):
        with pytest.raises(FieldError, match="not an integer"):
            f.of_int(bad)
    # over Q a non-integer is a scalar like any other
    assert rational_field().of_int(Fraction(3, 2)) == Fraction(3, 2)


def test_rank_identity_and_forced():
    f101 = prime_field(101)
    assert rank(Matrix.identity(f101, 2)) == 2
    f2 = prime_field(2)
    assert rank(Matrix(f2, 1, 2, [[1, 1]])) == 1
    assert rank(Matrix.zeros(f2, 3, 4)) == 0


def test_kernel_basis_small_cases():
    f2 = prime_field(2)
    # v.[[1],[1]] = 0 forces v = (1,1)
    m = Matrix(f2, 2, 1, [[1], [1]])
    assert kernel_basis(m) == [(1, 1)]
    assert kernel_basis(Matrix.identity(f2, 3)) == []
    assert len(kernel_basis(Matrix.zeros(f2, 3, 4))) == 3


def _random_matrix(rng, f, rows, cols, span=5):
    return Matrix(f, rows, cols,
                  [[f.of_int(rng.randrange(-span, span)) for _ in range(cols)]
                   for _ in range(rows)])


def test_rank_transpose_invariance():
    rng = random.Random(11)
    for f in (prime_field(101), prime_field(2), rational_field()):
        for _ in range(20):
            m = _random_matrix(rng, f, 5, 5)
            assert rank(m) == rank(m.transpose())


def test_rank_plus_kernel_dimension():
    rng = random.Random(13)
    for f in (prime_field(101), prime_field(2), rational_field()):
        for _ in range(25):
            rows = rng.randrange(0, 6)
            cols = rng.randrange(0, 6)
            m = _random_matrix(rng, f, rows, cols)
            ker = kernel_basis(m)
            assert rank(m) + len(ker) == rows
            vecs = Matrix.from_rows(f, [list(v) for v in ker], rows)
            if ker:
                assert vecs.mul(m).is_zero()
                assert rank(vecs) == len(ker)


def test_rref_is_deterministic_and_reduced():
    f = prime_field(5)
    m = Matrix(f, 3, 4, [[0, 2, 1, 0], [0, 4, 2, 1], [1, 1, 1, 1]])
    r1, p1 = rref(m)
    r2, p2 = rref(m)
    assert r1 == r2 and p1 == p2
    for i, c in enumerate(p1):
        col = [r1.entries[j][c] for j in range(3)]
        assert col == [f.one if j == i else f.zero for j in range(3)]


def test_empty_shapes_are_legal():
    f = prime_field(2)
    m = Matrix.zeros(f, 0, 3)
    assert rank(m) == 0
    assert kernel_basis(m) == []
    n = Matrix.zeros(f, 3, 0)
    assert rank(n) == 0
    assert len(kernel_basis(n)) == 3
    prod = m.mul(n)
    assert (prod.rows, prod.cols) == (0, 0)


@pytest.mark.parametrize("rows,cols,entries", [
    (2, 3, [[1, 2, 3], [4, 5]]),       # ragged row
    (2, 3, [[1, 2], [4, 5, 6]]),       # ragged first row
    (2, 3, [[1, 2, 3]]),               # too few rows
    (1, 3, [[1, 2, 3], [4, 5, 6]]),    # too many rows
    (0, 3, [[]]),                      # a row where none is declared
    (2, 0, [[], [0]]),                 # a nonempty row in an Nx0 matrix
])
def test_matrix_rejects_wrong_shape(rows, cols, entries):
    f = prime_field(7)
    with pytest.raises(ValueError):
        Matrix(f, rows, cols, entries)


@pytest.mark.parametrize("f", (rational_field(), prime_field(2)), ids=("Q", "F2"))
@pytest.mark.parametrize("r,c", [(0, 3), (3, 0), (0, 0), (2, 3)])
def test_zeros_shapes(f, r, c):
    m = Matrix.zeros(f, r, c)
    assert (m.rows, m.cols) == (r, c)
    assert m.entries == ((f.zero,) * c,) * r
    assert all(type(row) is tuple for row in m.entries)
    # the rows are immutable, so one row tuple serves them all
    assert len({id(row) for row in m.entries}) == min(r, 1)
    assert m.is_zero() and rank(m) == 0
    assert len(kernel_basis(m)) == r
    assert m == Matrix(f, r, c, [[f.zero] * c for _ in range(r)])


# -- differential test of the sparse kernel against dense Gauss-Jordan ----

FIELDS = (rational_field(), prime_field(2), prime_field(101))


@pytest.mark.parametrize("f", FIELDS, ids=("Q", "F2", "F101"))
def test_empty_matrices_are_shared_per_field_and_shape(f):
    assert Matrix.zeros(f, 0, 3) is Matrix.from_rows(f, [], 3)
    assert Matrix.zeros(f, 2, 0) is Matrix.from_rows(f, [(), []])
    assert Matrix.identity(f, 0) is Matrix.zeros(f, 0, 0)
    assert Matrix.zeros(f, 0, 3) is not Matrix.zeros(f, 3, 0)
    assert Matrix.zeros(f, 0, 3).transpose() is Matrix.zeros(f, 3, 0)
    a = Matrix.identity(f, 2)
    assert a.mul(Matrix.zeros(f, 2, 0)) is Matrix.zeros(f, 2, 0)
    assert Matrix.zeros(f, 0, 2).mul(a) is Matrix.zeros(f, 0, 2)
    assert Matrix.zeros(f, 2, 0).field is f
    # an Nx0 matrix has empty rows only
    with pytest.raises(ValueError):
        Matrix.from_rows(f, [(), (f.one,)], 0)


@st.composite
def _matrices(draw, field=None, rows=None, cols=None):
    f = draw(st.sampled_from(FIELDS)) if field is None else field
    r = draw(st.integers(0, 8)) if rows is None else rows
    c = draw(st.integers(0, 8)) if cols is None else cols
    percent = draw(st.sampled_from((0, 10, 25, 50, 75, 100)))

    def cell():
        if draw(st.integers(0, 99)) >= percent:
            return f.zero
        n = draw(st.integers(-6, 6))
        if f.kind == "rational":
            return Fraction(n, draw(st.integers(1, 3)))
        return f.of_int(n)

    return Matrix(f, r, c, [[cell() for _ in range(c)] for _ in range(r)])


def _assert_canonical_scalars(m):
    """Over Q an int when integral and a Fraction otherwise; over F_p an
    int in [0, p)."""
    for row in m.entries:
        for x in row:
            assert is_canonical_scalar(m.field, x), x


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_rref_rank_kernel_match_dense_reference(m):
    want_rows, want_piv = dense_rref(m.field, m.entries)
    got, piv = rref(m)
    assert piv == want_piv
    assert got.entries == tuple(tuple(r) for r in want_rows)
    _assert_canonical_scalars(got)
    assert rank(m) == len(want_piv)
    assert sparse_rank(m.field, _sparse_rows(m.field, m.entries),
                       m.cols) == len(want_piv)
    ker = kernel_basis(m)
    assert ker == dense_kernel(m)
    if ker:
        _assert_canonical_scalars(Matrix.from_rows(m.field, ker, m.rows))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_span_contains_matches_dense_reference(data):
    m = data.draw(_matrices())
    if data.draw(st.booleans()):
        v = data.draw(_matrices(m.field, 1, m.rows)).mul(m).entries[0]
    else:
        v = data.draw(_matrices(m.field, 1, m.cols)).entries[0]
    target = _sparse_rows(m.field, [v])[0]
    got = sparse_span_contains(m.field, _sparse_rows(m.field, m.entries),
                               m.cols, target)
    assert got == row_space_contains(m, v)


def _triple_loop_mul(a, b):
    f = a.field
    out = [[f.zero] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] = f.add(out[i][j], f.mul(a.entries[i][k], b.entries[k][j]))
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_matches_triple_loop_reference(data):
    a = data.draw(_matrices())
    b = data.draw(_matrices(a.field, a.cols))
    got = a.mul(b)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.entries == tuple(tuple(r) for r in _triple_loop_mul(a, b))
    _assert_canonical_scalars(got)


@pytest.mark.parametrize("f", FIELDS, ids=("Q", "F2", "F101"))
@pytest.mark.parametrize("r,k,c", [(0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)])
def test_mul_empty_shapes(f, r, k, c):
    a = Matrix(f, r, k, [[f.of_int(i + j + 1) for j in range(k)] for i in range(r)])
    b = Matrix(f, k, c, [[f.of_int(i - j) for j in range(c)] for i in range(k)])
    got = a.mul(b)
    assert (got.rows, got.cols) == (r, c)
    assert got.entries == tuple(tuple(row) for row in _triple_loop_mul(a, b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_act_matches_triple_loop_reference(data):
    m = data.draw(_matrices())
    x = data.draw(_matrices(m.field, 1, m.rows))
    got = m.act(x.entries[0])
    assert type(got) is tuple
    assert got == tuple(_triple_loop_mul(x, m)[0])
    _assert_canonical_scalars(Matrix.from_rows(m.field, [got], m.cols))
    with pytest.raises(ValueError):
        m.act(x.entries[0] + (m.field.zero,))


@pytest.mark.parametrize("f", FIELDS, ids=("Q", "F2", "F101"))
def test_from_rows_shapes(f):
    with pytest.raises(ValueError):
        Matrix.from_rows(f, [])
    empty = Matrix.from_rows(f, [], 3)
    assert (empty.rows, empty.cols, empty.entries) == (0, 3, ())
    narrow = Matrix.from_rows(f, [(), ()])
    assert (narrow.rows, narrow.cols, narrow.entries) == (2, 0, ((), ()))
    rows = [(f.one, f.zero), [f.zero, f.one]]
    m = Matrix.from_rows(f, rows)
    assert m == Matrix.identity(f, 2)
    # a row tuple is kept as it is, not copied
    assert m.entries[0] is rows[0]
    with pytest.raises(ValueError):
        Matrix.from_rows(f, rows, 3)


@st.composite
def _echelon_problems(draw):
    """(basis, m): basis the rref rows or the kernel_basis of a random matrix,
    the rows of m in its span half the time and arbitrary otherwise."""
    a = draw(_matrices())
    f = a.field
    if draw(st.booleans()):
        red, piv = rref(a)
        basis = Matrix.from_rows(f, red.entries[:len(piv)], a.cols)
    else:
        basis = Matrix.from_rows(f, kernel_basis(a), a.rows)
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return basis, draw(_matrices(f, k, basis.rows)).mul(basis)
    return basis, draw(_matrices(f, k, basis.cols))


@settings(max_examples=300, deadline=None)
@given(_echelon_problems())
def test_echelon_solve_matches_solve_left(bm):
    basis, m = bm
    got = echelon_solve(basis, m)
    assert got == dense_solve_left(basis, m)
    if got is not None:
        _assert_canonical_scalars(got)
        assert got.mul(basis) == m


@pytest.mark.parametrize("f", FIELDS, ids=("Q", "F2", "F101"))
def test_echelon_solve_edge_cases(f):
    o, z = f.one, f.zero
    rowless = Matrix.from_rows(f, [], 3)
    assert echelon_solve(rowless, Matrix.zeros(f, 2, 3)) == Matrix.zeros(f, 2, 0)
    assert echelon_solve(rowless, Matrix.from_rows(f, [(z, o, z)])) is None
    empty = Matrix.from_rows(f, [], 0)
    assert echelon_solve(empty, Matrix.zeros(f, 2, 0)) == Matrix.zeros(f, 2, 0)
    basis = Matrix.from_rows(f, [(z, o, f.of_int(3))])
    assert echelon_solve(basis, Matrix.from_rows(f, [(z, f.of_int(2), f.of_int(6))])) \
        == Matrix.from_rows(f, [(f.of_int(2),)])
    assert echelon_solve(basis, Matrix.from_rows(f, [(o, z, z)])) is None
    with pytest.raises(ValueError, match="zero row"):
        echelon_solve(Matrix.from_rows(f, [(o, z, z), (z, z, z)]), Matrix.zeros(f, 1, 3))
    with pytest.raises(ValueError, match="column mismatch"):
        echelon_solve(basis, Matrix.zeros(f, 1, 2))

"""Exact scalar arithmetic and the matrix kernel everything else reduces to.

Two field kinds: the rationals and prime fields F_p (ints reduced into
[0, p)).  A rational is an int when it is integral and a
fractions.Fraction otherwise (``_rational``), never a float: most
scalars the package meets are integral, and int arithmetic skips
Fraction's constructor, its gcd and its slow hash.  Matrices are
stored dense; the one elimination routine, _eliminate, works on sparse
{column: value} rows, and every system reaches it through one of eight
entry points:

- on a Matrix: ``rank``, ``rref``, ``kernel_basis`` (the left kernel) and
  ``kernel_and_section`` (the left kernel and a one-sided inverse, from one
  elimination), which take its rows' nonzeros;
- on sparse rows, built sparse where the system is formed (the Hom
  constraints of a presented module and the trace tests):
  ``sparse_rank``, ``sparse_kernel`` (reduced with an implicit identity
  block) and ``sparse_span_contains``;
- ``echelon_solve``, which reads coordinates in a basis that is already
  echelon (the rows of kernel_basis or rref) at its leading columns, with
  no elimination, and checks them by recombining the basis.

Results are deterministic because the reduced row echelon form of a matrix
is unique: ranks and kernels are functions of the input alone, whatever the
elimination order.  Pivots are taken in the canonical order (leftmost
nonzero column, topmost unused row).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


class FieldError(ValueError):
    pass


class InternalCheckFailed(RuntimeError):
    """A computed result failed the exact check that guards it.

    This is a fault of the program, not of its input, so it is not a
    ValueError (which the CLI reports as malformed input).
    """


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


_FIELDS: dict = {}


class Field:
    """A field spec: kind 'rational' or 'prime' with modulus p.

    Scalars are plain ints in [0, p) for F_p.  For the rationals they are
    ints when integral and Fractions otherwise (``_rational``), so ``zero``
    and ``one`` are the ints 0 and 1.  The methods return every value in
    this canonical form, whatever form their arguments take.  There is one
    instance per field: ``Field("prime", 5)`` returns the same object every
    time, so every matrix over a field shares its ``zero`` (identity checks
    skip it) and its empty matrices (``empties``, one per shape; see
    ``Matrix``), equality is identity, and no field is ever garbage.
    """

    __slots__ = ("kind", "p", "zero", "one", "empties")

    def __new__(cls, kind: str, p: int | None = None):
        if kind == "rational":
            if p is not None:
                raise FieldError("rational field takes no modulus")
        elif kind == "prime":
            if p is None or not _is_prime(p):
                raise FieldError(f"modulus must be prime, got {p!r}")
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        fld = _FIELDS.get((kind, p))
        if fld is None:
            fld = _FIELDS[kind, p] = super().__new__(cls)
            fld.kind = kind
            fld.p = p
            fld.zero = 0
            fld.one = 1
            fld.empties = {}
        return fld

    def __reduce__(self):
        return Field, (self.kind, self.p)

    def __repr__(self) -> str:
        return "Field(rational)" if self.kind == "rational" else f"Field(F_{self.p})"

    def of_int(self, n: int):
        """n as a scalar of the field; over F_p, FieldError unless n is
        integral (an int, or a Fraction with denominator 1)."""
        x = Fraction(n)
        if self.kind == "rational":
            return _rational(x)
        if x.denominator != 1:
            raise FieldError(f"{n!r} is not an integer")
        return x.numerator % self.p

    def add(self, a, b):
        return _rational(a + b) if self.kind == "rational" else (a + b) % self.p

    def sub(self, a, b):
        return _rational(a - b) if self.kind == "rational" else (a - b) % self.p

    def mul(self, a, b):
        return _rational(a * b) if self.kind == "rational" else (a * b) % self.p

    def neg(self, a):
        return _rational(-a) if self.kind == "rational" else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        if self.kind == "rational":
            return _rational_inv(a)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_str(self, s: str):
        """Parse a decimal coefficient string, '2/3' style for rationals.

        Over Q the string is read by ``Fraction`` and an integral value
        comes back as an int ("3/1", "1e3").  A denominator that is zero in
        the field ("1/0", or "1/7" over F_7) is a ValueError, like any other
        malformed coefficient.
        """
        s = s.strip()
        try:
            if self.kind == "rational":
                return _rational(Fraction(s))
            if "/" in s:
                num, den = s.split("/")
                return self.div(int(num) % self.p, int(den) % self.p)
            return int(s) % self.p
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coefficient {s!r}") from None

    def to_str(self, a) -> str:
        return str(a)


def _rational(x):
    """x as a canonical rational: the int when x is integral, else x.

    The one normaliser over Q.  The field ops, ``Matrix.act``,
    ``_eliminate``, ``_sparse_rows`` and ``echelon_solve`` apply it (the
    hot loops of ``act`` and ``_eliminate`` inline it), so every entry
    point returns canonical scalars for any input.  int arithmetic on ints
    stays an int, so only a result with a Fraction operand can need it.
    """
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _rational_inv(a):
    """1/a over Q for a nonzero rational a, canonical: a itself for +-1,
    Fraction(1, a) for any other int, and the reciprocal of a Fraction,
    an int when its numerator is +-1.  No int / int ever runs."""
    if type(a) is int:
        return a if a == 1 or a == -1 else Fraction(1, a)
    return _rational(1 / a)


def rational_field() -> Field:
    return Field("rational")


def prime_field(p: int) -> Field:
    return Field("prime", p)


class Matrix:
    """Dense exact matrix over a Field, row-major tuple-of-tuples storage.

    Immutable after construction: the rows are tuples, so a row tuple passed
    in is kept as it is and may be shared between matrices (``zeros`` uses
    one row for all of its rows).  A 0xN or Nx0 matrix is legal and shows up
    constantly (zero modules, empty Hom spaces); ``zeros``, ``identity``,
    ``from_rows``, ``mul`` and ``transpose`` return one shared instance per
    field and shape for it.  Products (``act``, ``mul``) do arithmetic only on the nonzero
    entries of their factors.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int,
                 entries: Iterable[Iterable]):
        ent = tuple(map(tuple, entries))
        if len(ent) != rows:
            raise ValueError(f"entry shape does not match {rows}x{cols}")
        for r in ent:
            if len(r) != cols:
                raise ValueError(f"entry shape does not match {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = ent

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> Matrix:
        if not rows or not cols:
            return _empty(field, rows, cols)
        return Matrix(field, rows, cols, [(field.zero,) * cols] * rows)

    @staticmethod
    def identity(field: Field, n: int) -> Matrix:
        if not n:
            return _empty(field, 0, 0)
        z, o = field.zero, field.one
        return Matrix(field, n, n,
                      [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence], cols: int | None = None) -> Matrix:
        if cols is None:
            if not rows:
                raise ValueError("cols required for a rowless matrix")
            cols = len(rows[0])
        if not rows or not cols:
            if any(rows):
                raise ValueError(f"entry shape does not match {len(rows)}x0")
            return _empty(field, len(rows), cols)
        return Matrix(field, len(rows), cols, rows)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.entries!r})"

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(e == z for r in self.entries for e in r)

    def act(self, x: Sequence) -> tuple:
        """The row vector x times this matrix, as a tuple.

        The result accumulates a * (row k) over the nonzero a = x[k], only at
        that row's nonzeros; entries that are the field's zero are skipped
        by identity first.  Over Q a sum still at zero takes the product
        without an addition, and each updated sum is made canonical
        (``_rational``, inlined), so the result is canonical for any x.
        """
        if len(x) != self.rows:
            raise ValueError(f"cannot multiply a {len(x)}-vector by {self.rows}x{self.cols}")
        z, p = self.field.zero, self.field.p
        acc = [z] * self.cols
        for a, rk in zip(x, self.entries):
            if a is z or not a:
                continue
            if p is None:
                for j, b in enumerate(rk):
                    if b is not z and b:
                        y = a * b
                        s = acc[j]
                        if s is not z:
                            y += s
                        if type(y) is Fraction and y.denominator == 1:
                            y = y.numerator
                        acc[j] = y
            else:
                for j, b in enumerate(rk):
                    if b:
                        acc[j] = (acc[j] + a * b) % p
        return tuple(acc)

    def mul(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if not self.rows or not other.cols:
            return _empty(self.field, self.rows, other.cols)
        return Matrix(self.field, self.rows, other.cols,
                      [other.act(ri) for ri in self.entries])

    def add(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def scale(self, c) -> Matrix:
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.mul(c, a) for a in r] for r in self.entries])

    def transpose(self) -> Matrix:
        if not self.rows or not self.cols:
            return _empty(self.field, self.cols, self.rows)
        return Matrix(self.field, self.cols, self.rows,
                      [[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def _same_shape(self, other: Matrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def _empty(field: Field, rows: int, cols: int) -> Matrix:
    """The shared rows x cols matrix with rows or cols 0, kept on the field."""
    m = field.empties.get((rows, cols))
    if m is None:
        m = field.empties[rows, cols] = Matrix(field, rows, cols, ((),) * rows)
    return m


def canonical(m: Matrix) -> Matrix:
    """m with canonical scalars: over Q, every integral Fraction rewritten
    as an int; m itself when there is none, and always over F_p."""
    if m.field.p is not None or not any(
            type(x) is Fraction and x.denominator == 1
            for r in m.entries for x in r):
        return m
    return Matrix(m.field, m.rows, m.cols,
                  [[_rational(x) for x in r] for r in m.entries])


def _eliminate(field: Field, sp: list[dict], ncols: int) -> list[int]:
    """Reduce the sparse rows sp in place; returns the pivot column list.

    Each row is a {column: value} dict of its nonzeros, with columns below
    ncols; no value may be zero.  Only the rows with a nonzero in the pivot
    column are updated, and only at the pivot row's nonzeros; over Q the
    scaled pivot row and every updated entry are made canonical
    (``_rational``, inlined), and a pivot of 1 scales nothing.  The reduced
    form is unique, so the result does not depend on how it is reached; the
    pivot choice is the canonical one (scan columns left to right, take the
    topmost unused row with a nonzero entry).  On return the list holds the
    pivot rows first, in pivot order, then the rows that became zero.
    """
    n = len(sp)
    one, p = field.one, field.p
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == n:
            break
        for sel in range(r, n):
            if c in sp[sel]:
                break
        else:
            continue
        prow = sp[sel]
        sp[sel] = sp[r]
        lead = prow.pop(c)
        if p is None:
            if lead != 1:
                inv = _rational_inv(lead)
                for j, x in prow.items():
                    x *= inv
                    if type(x) is Fraction and x.denominator == 1:
                        x = x.numerator
                    prow[j] = x
        else:
            inv = pow(lead, p - 2, p)
            prow = {j: x * inv % p for j, x in prow.items()}
        sp[r] = prow  # without column c until every other row is cleared
        for row in sp:
            if c not in row:
                continue
            nci = -row.pop(c)
            if p is None:
                for j, y in prow.items():
                    x = row.get(j)
                    if x is None:
                        x = nci * y
                    else:
                        x += nci * y
                        if not x:
                            del row[j]
                            continue
                    if type(x) is Fraction and x.denominator == 1:
                        x = x.numerator
                    row[j] = x
            else:
                nci %= p
                for j, y in prow.items():
                    x = (row.get(j, 0) + nci * y) % p
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
        prow[c] = one
        pivots.append(c)
        r += 1
    return pivots


def _sparse_rows(field: Field, rows: Iterable[Sequence]) -> list[dict]:
    """Dense rows as {column: value} dicts of their nonzeros, canonical
    over Q (``_rational``)."""
    z = field.zero
    # most zeros are field.zero itself, which the identity test skips
    if field.p is None:
        return [{c: _rational(x) for c, x in enumerate(row)
                 if x is not z and x} for row in rows]
    return [{c: x for c, x in enumerate(row) if x is not z and x} for row in rows]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of m and its pivot column list.

    The rows are reduced sparse by ``_eliminate`` and written back dense,
    pivot rows first in pivot order, then the rows that became zero.
    """
    z = m.field.zero
    sp = _sparse_rows(m.field, m.entries)
    pivots = _eliminate(m.field, sp, m.cols)
    rows = []
    for d in sp:
        row = [z] * m.cols
        for j, x in d.items():
            row[j] = x
        rows.append(row)
    return Matrix(m.field, m.rows, m.cols, rows), pivots


def rank(m: Matrix) -> int:
    return len(_eliminate(m.field, _sparse_rows(m.field, m.entries), m.cols))


def sparse_rank(field: Field, rows: list[dict], ncols: int) -> int:
    """Rank of sparse rows, consumed (reduced in place by ``_eliminate``).

    ``rows`` are {column: value} dicts of nonzeros in columns below ncols,
    as ``sparse_kernel`` takes them, but no identity block is added: the
    kernel's dimension, len(rows) minus this rank, needs no basis.
    """
    return len(_eliminate(field, rows, ncols))


def _with_identity(field: Field, rows: list[dict], ncols: int) -> list[int]:
    """Reduce [rows | I] in place and return its pivots.

    The identity block is one entry {ncols + i: one} added to row i, never
    a dense block.  [rows | I] has full row rank, and each reduced row's
    identity part is the combination of the input rows that gives its
    rows-part: zero when the pivot lies in the identity block.
    """
    one = field.one
    for i, row in enumerate(rows):
        row[ncols + i] = one
    return _eliminate(field, rows, ncols + len(rows))


def _identity_part(field: Field, row: dict, ncols: int, n: int) -> tuple:
    vec = [field.zero] * n
    for j, x in row.items():
        if j >= ncols:
            vec[j - ncols] = x
    return tuple(vec)


def sparse_kernel(field: Field, rows: list[dict], ncols: int) -> list[tuple]:
    """Basis of the left kernel of sparse rows, as dense row tuples.

    ``rows`` are {column: value} dicts of nonzeros in columns below ncols,
    as ``_eliminate`` takes them; they are consumed (reduced in place).
    [m | I] is reduced (``_with_identity``); a row's m-part vanished iff
    its pivot lies in the identity block, and it is read off at columns
    ncols and up.  The basis has len(rows) - rank(m) vectors and is
    deterministic.
    """
    n = len(rows)
    pivots = _with_identity(field, rows, ncols)
    return [_identity_part(field, row, ncols, n)
            for row, c in zip(rows, pivots) if c >= ncols]


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of the left kernel {v : v.m = 0}, as row tuples.

    Size is always m.rows - rank(m).  The rows of m are taken sparse and
    reduced by ``sparse_kernel``; deterministic.
    """
    return sparse_kernel(m.field, _sparse_rows(m.field, m.entries), m.cols)


def kernel_and_section(m: Matrix) -> tuple[list[tuple], list[tuple]]:
    """(``kernel_basis(m)``, section rows), from one elimination of [m | I].

    The section rows are the identity parts of the reduced rows that pivot
    in m, one per pivot.  When m has full column rank they are m.cols rows
    s with s.m the identity, so a map onto at a vertex gets a section from
    the elimination that gives its kernel.
    """
    n = m.rows
    rows = _sparse_rows(m.field, m.entries)
    pivots = _with_identity(m.field, rows, m.cols)
    ker, sec = [], []
    for row, c in zip(rows, pivots):
        (ker if c >= m.cols else sec).append(
            _identity_part(m.field, row, m.cols, n))
    return ker, sec


def echelon_solve(basis: Matrix, m: Matrix) -> Matrix | None:
    """Solve x.basis = m when basis is echelon; None when m is outside its span.

    Each row of ``basis`` must lead with 1 in a column where every other row
    is 0, as the rows of ``kernel_basis`` and the nonzero rows of ``rref``
    do.  Then row i of x is row i of m read at those leading columns, with
    no elimination.  x is returned only if x.basis == m, so a vector outside
    the span, or a basis that breaks the precondition, gives None and never a
    wrong x.  A zero row in ``basis`` or a column mismatch is a ValueError.
    Over Q the entries of x are made canonical (``_rational``).
    """
    if basis.cols != m.cols:
        raise ValueError(f"column mismatch: {basis.cols} vs {m.cols}")
    z = basis.field.zero
    leads = []
    for row in basis.entries:
        for j, e in enumerate(row):
            if e is not z and e:
                leads.append(j)
                break
        else:
            raise ValueError("zero row in an echelon basis")
    xs = [tuple(r[j] for j in leads) for r in m.entries]
    if basis.field.p is None:
        xs = [tuple(map(_rational, x)) for x in xs]
    for x, r in zip(xs, m.entries):
        if basis.act(x) != r:
            return None
    return Matrix(basis.field, m.rows, basis.rows, xs)


def sparse_span_contains(field: Field, rows: list[dict], ncols: int,
                         target: dict) -> bool:
    """Is the sparse vector target in the span of the sparse rows?

    ``rows`` and ``target`` are {column: value} dicts of nonzeros in columns
    below ncols; the rows are consumed (reduced in place by
    ``_eliminate``).  As in ``echelon_solve``, target's coordinate on each
    reduced row is its entry at that row's pivot, where every other row is
    0, and target is in the span iff that combination gives it back.
    """
    pivots = _eliminate(field, rows, ncols)
    z, p = field.zero, field.p
    acc: dict = {}
    for row, c in zip(rows, pivots):
        a = target.get(c)
        if a is None:
            continue
        for j, x in row.items():
            y = acc.get(j, z) + a * x
            acc[j] = y if p is None else y % p
    return {j: x for j, x in acc.items() if x} == target

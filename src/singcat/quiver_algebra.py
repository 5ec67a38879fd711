"""Bound quiver algebras: presentations, path bases, and the Nakayama-family constructors.

A path basis is computed degree by degree.  At each length the candidate
paths are (basis path of the previous length) * (arrow), and the relation
instances ending at that length are row-reduced against them under the
length-lexicographic order induced by a fixed arrow enumeration.  The
resulting multiplication tables are what every representation-level
computation consumes.

Only homogeneous relations are supported (all paths inside one relation
element share a length); the graded elimination is not correct for mixed
lengths and every algebra in scope here is quadratic or monomial anyway.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exact_linalg import Field, Matrix, _eliminate


class QuiverError(ValueError):
    pass


class NotFiniteDimensionalWithinBound(ValueError):
    """A nonzero normal form of maximal length survived the length bound."""


class NonHomogeneousRelation(ValueError):
    pass


class InvalidKupisch(ValueError):
    pass


class UnsupportedKupischValue(ValueError):
    pass


class WindowTooSmall(ValueError):
    pass


class Arrow:
    __slots__ = ("id", "src", "tgt")

    def __init__(self, id: str, src: str, tgt: str):
        self.id = id
        self.src = src
        self.tgt = tgt

    def __repr__(self) -> str:
        return f"Arrow({self.id}: {self.src} -> {self.tgt})"


class Quiver:
    """A finite quiver: vertex id list plus arrow triples, all ids unique."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow]):
        if len(set(vertices)) != len(vertices):
            raise QuiverError("duplicate vertex ids")
        vset = set(vertices)
        ids = [a.id for a in arrows]
        if len(set(ids)) != len(ids):
            raise QuiverError("duplicate arrow ids")
        for a in arrows:
            if a.src not in vset or a.tgt not in vset:
                raise QuiverError(f"arrow {a.id} references unknown vertex")
        self.vertices = list(vertices)
        self.arrows = list(arrows)
        self.arrow_by_id = {a.id: a for a in arrows}
        self.arrows_from: dict[str, list[Arrow]] = {v: [] for v in vertices}
        self.arrows_into: dict[str, list[Arrow]] = {v: [] for v in vertices}
        for a in arrows:
            self.arrows_from[a.src].append(a)
            self.arrows_into[a.tgt].append(a)
        # the fixed enumeration used for length-lex normal forms
        self.arrow_index = {a.id: i for i, a in enumerate(arrows)}


class PathWord:
    """A trivial path at a vertex, or a composable arrow sequence.

    Arrows are written diagrammatically: the first arrow acts first.
    """

    __slots__ = ("src", "tgt", "arrows")

    def __init__(self, quiver: Quiver, src: str, arrows: Sequence[str] = ()):
        if src not in quiver.arrows_from:
            raise QuiverError(f"unknown vertex {src!r}")
        at = src
        for aid in arrows:
            a = quiver.arrow_by_id.get(aid)
            if a is None:
                raise QuiverError(f"unknown arrow {aid!r}")
            if a.src != at:
                raise QuiverError(f"arrows do not compose at {aid!r}")
            at = a.tgt
        self.src = src
        self.tgt = at
        self.arrows = tuple(arrows)

    def __len__(self) -> int:
        return len(self.arrows)

    def __repr__(self) -> str:
        return f"PathWord({self.src}, {list(self.arrows)})"


class RelationElement:
    """A linear combination of parallel paths, each of length at least 2."""

    def __init__(self, terms: Sequence[tuple[object, PathWord]]):
        if not terms:
            raise QuiverError("empty relation")
        src, tgt = terms[0][1].src, terms[0][1].tgt
        for coef, path in terms:
            if (path.src, path.tgt) != (src, tgt):
                raise QuiverError("relation paths are not parallel")
            if len(path) < 2:
                raise QuiverError("relation path shorter than 2")
        if all(not coef for coef, _ in terms):
            raise QuiverError("relation with all-zero coefficients")
        self.terms = [(coef, path) for coef, path in terms]
        self.src = src
        self.tgt = tgt

    def length(self) -> int:
        return max(len(p) for _, p in self.terms)


# A basis element is keyed by (source vertex, arrow id tuple); the empty
# tuple is the trivial path at that vertex.
PathKey = tuple[str, tuple[str, ...]]


class BoundQuiverAlgebra:
    """A quiver with homogeneous relations plus its computed path basis.

    Immutable after compute_basis.  ``mult`` maps (basis key, arrow id) to a
    sparse vector {basis key: coefficient} one degree up; walking a word
    through ``mult`` is how all products and module actions are evaluated.
    ``cache`` holds data derived from the algebra: the dimensions and
    actions of its projective, injective and regular modules and of the
    rad P(v) and I(v)/soc, and one record of memos per module content
    (``rep._Record``), which do not point back at it, and its opposite,
    which does (the two cache each other), so ``clear_cache`` lets an
    algebra whose opposite was built be freed without the cyclic collector.
    The records last as long as the algebra or until ``clear_cache``.
    """

    def __init__(self, quiver: Quiver, relations: Sequence[RelationElement],
                 field: Field, basis_by_len: list[list[PathKey]],
                 mult: dict[tuple[PathKey, str], dict[PathKey, object]]):
        self.quiver = quiver
        self.relations = list(relations)
        self.field = field
        self.basis_by_len = basis_by_len
        self.mult = mult
        self._key_tgt: dict[PathKey, str] = {}
        self._by_pair: dict[tuple[str, str], list[PathKey]] = {}
        self._from: dict[str, list[PathKey]] = {v: [] for v in quiver.vertices}
        for layer in basis_by_len:
            for key in layer:
                tgt = self._target_of(key)
                self._key_tgt[key] = tgt
                self._by_pair.setdefault((key[0], tgt), []).append(key)
                self._from[key[0]].append(key)
        self.meta: dict = {}
        self.cache: dict = {}

    def clear_cache(self) -> None:
        """Drop the derived objects, and those of the cached opposite."""
        cache, self.cache = self.cache, {}
        op = cache.get("opposite")
        if op is not None:
            op.clear_cache()

    def _target_of(self, key: PathKey) -> str:
        src, arrows = key
        return self.quiver.arrow_by_id[arrows[-1]].tgt if arrows else src

    @property
    def dimension(self) -> int:
        return sum(len(layer) for layer in self.basis_by_len)

    def basis(self, u: str, v: str) -> list[PathKey]:
        return list(self._by_pair.get((u, v), []))

    def paths_from(self, v: str) -> list[PathKey]:
        return list(self._from[v])

    def key_target(self, key: PathKey) -> str:
        return self._key_tgt[key]

    def mult_by_arrow(self, key: PathKey, arrow_id: str) -> dict[PathKey, object]:
        return self.mult.get((key, arrow_id), {})

    def word_vector(self, src: str, arrows: Sequence[str]) -> dict[PathKey, object]:
        """Normal form of an arbitrary path word, as a sparse basis vector."""
        return _walk(self.field, self.mult, {(src, ()): self.field.one}, arrows)

    def product(self, k1: PathKey, k2: PathKey) -> dict[PathKey, object]:
        """Product of two basis paths: zero unless they compose."""
        if self._key_tgt[k1] != k2[0]:
            return {}
        return _walk(self.field, self.mult, {k1: self.field.one}, k2[1])


def _walk(field: Field, mult: dict[tuple[PathKey, str], dict[PathKey, object]],
          vec: dict[PathKey, object], arrows: Sequence[str]) -> dict[PathKey, object]:
    """Multiply a sparse basis vector along an arrow word through ``mult``."""
    for aid in arrows:
        nxt: dict[PathKey, object] = {}
        for k, c in vec.items():
            for k2, c2 in mult.get((k, aid), {}).items():
                cur = field.add(nxt.get(k2, field.zero), field.mul(c, c2))
                if cur:
                    nxt[k2] = cur
                elif k2 in nxt:
                    del nxt[k2]
        vec = nxt
        if not vec:
            break
    return vec


def _lex_key(quiver: Quiver, key: PathKey) -> tuple:
    return (key[0], tuple(quiver.arrow_index[a] for a in key[1]))


def compute_basis(quiver: Quiver, relations: Sequence[RelationElement],
                  field: Field, length_bound: int) -> BoundQuiverAlgebra:
    """Path basis by length-graded elimination.

    Succeeds only if every path of length ``length_bound`` reduces to zero;
    otherwise NotFiniteDimensionalWithinBound is raised, since a surviving
    maximal normal form leaves finite-dimensionality uncertified.
    """
    for r in relations:
        lens = {len(p) for _, p in r.terms}
        if len(lens) != 1:
            raise NonHomogeneousRelation(
                "relation paths of mixed lengths are not supported")
    if length_bound < 1:
        raise QuiverError("length bound must be positive")

    by_len: list[list[PathKey]] = [[(v, ()) for v in quiver.vertices]]
    mult: dict[tuple[PathKey, str], dict[PathKey, object]] = {}
    rels_by_len: dict[int, list[RelationElement]] = {}
    for r in relations:
        rels_by_len.setdefault(r.length(), []).append(r)

    def key_tgt(key: PathKey) -> str:
        return quiver.arrow_by_id[key[1][-1]].tgt if key[1] else key[0]

    length = 0
    while by_len[-1]:
        length += 1
        prev = by_len[-1]
        cands: list[tuple[PathKey, str]] = []
        for key in prev:
            tgt = key_tgt(key)
            for a in quiver.arrows_from[tgt]:
                cands.append((key, a.id))
        cands.sort(key=lambda ka: (_lex_key(quiver, ka[0]),
                                   quiver.arrow_index[ka[1]]))
        col_of = {ka: i for i, ka in enumerate(cands)}

        # every relation instance ending in this degree: b.r with b a basis
        # path of the complementary length (b trivial when deg r == length)
        rows: list[dict] = []
        for d, rel_list in rels_by_len.items():
            if d > length:
                continue
            for r in rel_list:
                for bkey in by_len[length - d]:
                    if key_tgt(bkey) != r.src:
                        continue
                    row: dict[int, object] = {}
                    for coef, path in r.terms:
                        head = _walk(field, mult, {bkey: field.one},
                                     path.arrows[:-1])
                        last = path.arrows[-1]
                        for k, c in head.items():
                            col = col_of.get((k, last))
                            if col is None:
                                continue
                            x = field.add(row.get(col, field.zero),
                                          field.mul(coef, c))
                            if x:
                                row[col] = x
                            else:
                                row.pop(col, None)
                    if row:
                        rows.append(row)

        pivots = _eliminate(field, rows, len(cands))
        pivot_set = set(pivots)
        expand: dict[int, dict[PathKey, object]] = {}
        kept_key = {i: (cands[i][0][0], cands[i][0][1] + (cands[i][1],))
                    for i in range(len(cands)) if i not in pivot_set}
        # a reduced pivot row is 1 at its pivot and 0 at every other pivot
        for rrow, c in zip(rows, pivots):
            expand[c] = {kept_key[j]: field.neg(x)
                         for j, x in sorted(rrow.items()) if j != c}
        for i, (bkey, aid) in enumerate(cands):
            if i in pivot_set:
                mult[(bkey, aid)] = expand[i]
            else:
                mult[(bkey, aid)] = {kept_key[i]: field.one}
        new_layer = list(kept_key.values())
        by_len.append(new_layer)
        if length == length_bound and new_layer:
            raise NotFiniteDimensionalWithinBound(
                f"nonzero paths of length {length_bound} remain")

    return BoundQuiverAlgebra(quiver, relations, field, by_len[:-1], mult)


def default_length_bound(quiver: Quiver, kupisch: Sequence[int]) -> int:
    return len(quiver.vertices) * (max(kupisch) + 1)


def opposite_algebra(alg: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """Same vertices and arrow ids, reversed arrows and relation words.

    Cached both ways, so the opposite of the opposite is the original
    instance.
    """
    cached = alg.cache.get("opposite")
    if cached is not None:
        return cached
    q = alg.quiver
    opq = Quiver(list(q.vertices), [Arrow(a.id, a.tgt, a.src) for a in q.arrows])
    rels = []
    for r in alg.relations:
        rels.append(RelationElement(
            [(coef, PathWord(opq, p.tgt, list(reversed(p.arrows))))
             for coef, p in r.terms]))
    # any nonzero path length is bounded by the dimension
    op = compute_basis(opq, rels, alg.field, alg.dimension + 1)
    op.meta = {"kind": "opposite", "of": alg.meta.get("kind")}
    alg.cache["opposite"] = op
    op.cache["opposite"] = alg
    return op


def nakayama_cyclic(kupisch: Sequence[int], field: Field) -> BoundQuiverAlgebra:
    """Cyclic Nakayama algebra from a Kupisch series.

    Vertices 0..n-1, arrows i -> i+1 (mod n), and one monomial relation per
    vertex: the path of length l_i starting at i is zero.  Admissibility
    requires every l_i >= 2 and l_{i+1} >= l_i - 1 cyclically.
    """
    ks = list(kupisch)
    n = len(ks)
    if n == 0:
        raise InvalidKupisch("empty series")
    for i, l in enumerate(ks):
        if l < 2:
            raise InvalidKupisch(f"l_{i} = {l} < 2")
        if ks[(i + 1) % n] < l - 1:
            raise InvalidKupisch(f"l_{(i + 1) % n} < l_{i} - 1")
    vertices = [str(i) for i in range(n)]
    arrows = [Arrow(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
    quiver = Quiver(vertices, arrows)
    one = field.one
    relations = []
    for i, l in enumerate(ks):
        word = [f"a{(i + j) % n}" for j in range(l)]
        relations.append(RelationElement([(one, PathWord(quiver, str(i), word))]))
    alg = compute_basis(quiver, relations, field, default_length_bound(quiver, ks))
    alg.meta = {"kind": "nakayama-cyclic", "kupisch": tuple(ks)}
    return alg


def _l_of(kupisch: Sequence[int], b: int) -> int:
    return kupisch[b % len(kupisch)]


def _grid_vertex_exists(kupisch: Sequence[int], a: int, b: int) -> bool:
    d = b - a
    return 0 <= d <= 2 and d <= _l_of(kupisch, b) - 1


class _GridScheme:
    """Shared vertex/arrow/relation scheme for the two-parameter grid quivers.

    Coordinates decrease along arrows: (a,b) -> (a,b-1) and (a,b) -> (a-1,b).
    A mixed pair of steps either commutes (when the opposite route exists) or
    composes to zero (when its middle vertex is missing from the grid).
    """

    def __init__(self, kupisch: Sequence[int], wrap: int | None):
        self.kupisch = list(kupisch)
        self.wrap = wrap  # orbit period, or None for a literal window

    def canon(self, a: int, b: int) -> tuple[int, int]:
        if self.wrap is None:
            return (a, b)
        n = self.wrap
        shift = (a % n) - a
        return (a + shift, b + shift)

    def vid(self, a: int, b: int) -> str:
        a, b = self.canon(a, b)
        return f"({a},{b})"

    def exists(self, a: int, b: int) -> bool:
        return _grid_vertex_exists(self.kupisch, a, b)

    def aid(self, a: int, b: int, a2: int, b2: int) -> str:
        return f"{self.vid(a, b)}>{self.vid(a2, b2)}"


def _build_grid_algebra(kupisch: Sequence[int], field: Field,
                        vertex_domain: list[tuple[int, int]],
                        scheme: _GridScheme,
                        in_window) -> BoundQuiverAlgebra:
    verts = [scheme.vid(a, b) for a, b in vertex_domain]
    arrows: list[Arrow] = []
    arrow_step: dict[str, str] = {}
    for a, b in vertex_domain:
        if b - 1 >= a and scheme.exists(a, b - 1) and in_window(a, b - 1):
            aid = scheme.aid(a, b, a, b - 1)
            arrows.append(Arrow(aid, scheme.vid(a, b), scheme.vid(a, b - 1)))
            arrow_step[aid] = "down"
        if scheme.exists(a - 1, b) and in_window(a - 1, b):
            aid = scheme.aid(a, b, a - 1, b)
            arrows.append(Arrow(aid, scheme.vid(a, b), scheme.vid(a - 1, b)))
            arrow_step[aid] = "left"
    quiver = Quiver(verts, arrows)
    one = field.one
    aset = {x.id for x in arrows}

    def arrow_ok(a, b, a2, b2):
        return scheme.aid(a, b, a2, b2) in aset

    relations: list[RelationElement] = []
    for a, b in vertex_domain:
        # two routes from (a,b) to (a-1,b-1)
        down_first = (arrow_ok(a, b, a, b - 1)
                      and arrow_ok(a, b - 1, a - 1, b - 1))
        left_first = (arrow_ok(a, b, a - 1, b)
                      and arrow_ok(a - 1, b, a - 1, b - 1))
        if not (down_first or left_first):
            continue
        p_down = PathWord(quiver, scheme.vid(a, b),
                          [scheme.aid(a, b, a, b - 1),
                           scheme.aid(a, b - 1, a - 1, b - 1)]) if down_first else None
        p_left = PathWord(quiver, scheme.vid(a, b),
                          [scheme.aid(a, b, a - 1, b),
                           scheme.aid(a - 1, b, a - 1, b - 1)]) if left_first else None
        if down_first and left_first:
            relations.append(RelationElement([(one, p_down), (field.neg(one), p_left)]))
        elif down_first:
            relations.append(RelationElement([(one, p_down)]))
        else:
            relations.append(RelationElement([(one, p_left)]))
    alg = compute_basis(quiver, relations, field,
                        default_length_bound(quiver, kupisch))
    alg.meta = {"coords": {scheme.vid(a, b): scheme.canon(a, b)
                           for a, b in vertex_domain},
                "arrow_step": arrow_step}
    return alg


def _validate_grid_kupisch(kupisch: Sequence[int]) -> list[int]:
    ks = list(kupisch)
    if not ks:
        raise InvalidKupisch("empty series")
    for i, l in enumerate(ks):
        if l not in (2, 3):
            raise UnsupportedKupischValue(
                f"l_{i} = {l}; only lengths 2 and 3 are handled")
    return ks


def orbit_grid_algebra(kupisch: Sequence[int], field: Field) -> BoundQuiverAlgebra:
    """The orbit algebra alone, without the subcategory generator list."""
    ks = _validate_grid_kupisch(kupisch)
    n = len(ks)
    scheme = _GridScheme(ks, wrap=n)
    domain = [(a, a + d) for a in range(n) for d in (0, 1, 2)
              if scheme.exists(a, a + d)]
    alg = _build_grid_algebra(ks, field, domain, scheme, lambda a, b: True)
    alg.meta.update({"kind": "nakayama2-orbit", "kupisch": tuple(ks),
                     "period": n, "wrap": n})
    return alg


def valid_triple(kupisch: Sequence[int], t: tuple[int, int, int]) -> bool:
    l1, l2, l3 = t
    return (l1 <= l2 <= l3
            and l3 + 1 - _l_of(kupisch, l3) <= l1)


def valid_triples_window(kupisch: Sequence[int], lo: int, hi: int) -> list[tuple[int, int, int]]:
    """All valid triples with lo <= l1 <= l3 <= hi, in lexicographic order."""
    out = []
    for l1 in range(lo, hi + 1):
        for l3 in range(l1, min(l1 + 2, hi) + 1):
            for l2 in range(l1, l3 + 1):
                if valid_triple(kupisch, (l1, l2, l3)):
                    out.append((l1, l2, l3))
    out.sort()
    return out


class PeriodicPresentation:
    """One period of a shift-invariant grid presentation over the integers."""

    def __init__(self, kupisch: Sequence[int], field: Field):
        self.kupisch = _validate_grid_kupisch(kupisch)
        self.period = len(self.kupisch)
        self.field = field


def nakayama2_infinite(kupisch: Sequence[int], field: Field) -> PeriodicPresentation:
    return PeriodicPresentation(kupisch, field)


MAX_RELATION_LENGTH = 2


def truncate(pres: PeriodicPresentation, window: int, depth: int = 2,
             start: int = 0) -> tuple[BoundQuiverAlgebra, set[str]]:
    """Finite window of a periodic grid presentation, with its safe region.

    The window spans ``window`` periods starting at period ``start``.  The
    safe region drops a margin of MAX_RELATION_LENGTH * depth vertex indices
    on both sides; resolutions of depth ``depth`` for modules supported there
    agree with the infinite algebra, since each syzygy step moves support by
    at most a relation length.
    """
    if window < 2:
        raise WindowTooSmall("window must span at least 2 periods")
    n = pres.period
    lo = start * n
    hi = lo + window * n - 1
    scheme = _GridScheme(pres.kupisch, wrap=None)

    def in_window(a: int, b: int) -> bool:
        return lo <= a and b <= hi and scheme.exists(a, b)

    domain = [(a, a + d) for a in range(lo, hi + 1) for d in (0, 1, 2)
              if in_window(a, a + d)]
    alg = _build_grid_algebra(pres.kupisch, pres.field, domain, scheme, in_window)
    margin = MAX_RELATION_LENGTH * depth
    safe = {scheme.vid(a, b) for a, b in domain
            if a >= lo + margin and b <= hi - margin}
    if not safe:
        raise WindowTooSmall(
            f"margin {margin} leaves no safe vertices in a {window}-period window")
    alg.meta.update({"kind": "nakayama2-window", "kupisch": tuple(pres.kupisch),
                     "period": n, "wrap": None, "lo": lo, "hi": hi,
                     "depth": depth, "safe": frozenset(safe)})
    return alg, safe

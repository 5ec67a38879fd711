"""Pair-by-pair and full-loop forms of what rep, homspace, tilting and stab
decide in bulk, skip or compute through a duality.

Shared by the test modules: every test module and every (source, target)
pair is checked on its own, in the order the reports name witnesses, with
no stacking and no criterion that skips a test module; and the module
constructions visit every vertex and every arrow, empty blocks included.
The left approximations and coresolutions are built on A itself, by the
column join and the cokernel walk that ``tilting`` now reads off A^op.
Ext is computed as ker d_{i+1}* / im d_i* from the dual differentials in
generator coordinates, where ``homology`` now reads it from Hom dimensions
by dimension shifting.  ``step_unpooled`` is the cover step with a fresh
cover, eps and kernel for every module, built by the full loops here,
where ``rep._step`` keeps one step per content in its record.
``omega_stabilizes_strided`` walks the d-step orbit itself, where
``homology._stride`` reads it off the 1-step orbit of ``pd_certificate``;
at stride 1 it keeps the members that ``gp_certificate_pairwise`` scans.  ``add_membership_by_trace`` and
``stable_add_membership_by_trace`` run the trace test on every generator,
where ``homspace`` first tries an isomorphism certificate to each, and
write each composite out in End_k(M) (``identity_in_trace_full``), where
``homspace`` reads it at M's top generators.  ``images_span_full`` ranks
the stacked images of the maps at every vertex, where ``rep.is_onto``
reads one map's kernel and ``homspace._spans_top`` the generator images.  Written for clarity and not for speed.
"""

from singcat.exact_linalg import (
    InternalCheckFailed, Matrix, _eliminate, echelon_solve, kernel_basis, rank,
    rref, sparse_rank, sparse_span_contains,
)
from singcat.homology import ext_dim, resolve, syzygy
from singcat.homspace import (
    add_membership, hom, stable_end_dim, stable_hom, stable_iso,
)
from singcat.rep import (
    RepMorphism, Representation, Step, _path_images, cokernel, direct_sum,
    injectives, is_projective, projective_cover, projective_module,
    projectives, simple_module, zero_rep,
)
from singcat.stab import GpCertificate
from singcat.tilting import (
    ApproximationNotMono, Check, DCoresolution, FinalTermNotInSubcategory,
    _is_exact, right_approximation,
)


def verify_rigid_pairwise(spec):
    """Ext^t(g_i, g_j) for every t in 1..d-1 and every ordered pair."""
    if spec.d == 1:
        return Check(True, note="degree range empty for d=1")
    for t in range(1, spec.d):
        for i, gi in enumerate(spec.generators):
            for j, gj in enumerate(spec.generators):
                dim = ext_dim(gi, gj, t)
                if dim:
                    return Check(False,
                                 witness=(spec.labels[i], spec.labels[j], t),
                                 note=f"ext dimension {dim}")
    return Check(True)


def images_span_full(maps, N):
    """Do the images of the maps into N together span N at every vertex?"""
    f = N.algebra.field
    return all(rank(Matrix.from_rows(
        f, [r for b in maps for r in b.mats[v].entries], n)) == n
        for v, n in N.dims.items())


def is_mono_full(f):
    """Full rank on the rows at every vertex, empty blocks included."""
    return all(rank(f.mats[v]) == f.src.dims[v]
               for v in f.src.algebra.quiver.vertices)


def left_approximation_columns(spec, N):
    """The universal map from N into a sum of generator copies, over A: one
    copy of g per basis element of hom(N, g), the pieces joined column-wise
    at every vertex."""
    alg = spec.algebra
    pieces, tgts = [], []
    for g in spec.generators:
        for b in hom(N, g).basis:
            pieces.append(b)
            tgts.append(g)
    if not pieces:
        return RepMorphism(N, zero_rep(alg), {}, check=False)
    T = direct_sum(tgts)
    # row i of the map at v joins row i of every piece
    mats = {v: Matrix(alg.field, N.dims[v], T.dims[v],
                      [[x for r in rs for x in r]
                       for rs in zip(*(b.mats[v].entries for b in pieces))])
            for v in alg.quiver.vertices}
    return RepMorphism(N, T, mats, check=False)


def d_coresolution_walk(spec, E):
    """Iterated cokernels of the column-join left approximations over A,
    at most d terms, with the exactness check on the assembled sequence."""
    if add_membership(E, spec.generators):
        return DCoresolution([E], RepMorphism.identity(E), [])
    terms, approx, projs = [], [], []
    cur = E
    while True:
        g = left_approximation_columns(spec, cur)
        if not is_mono_full(g):
            raise ApproximationNotMono("left approximation is not injective")
        terms.append(g.tgt)
        approx.append(g)
        C, proj = cokernel(g)
        if C.total_dim == 0:
            break
        projs.append(proj)
        if len(terms) < spec.d and add_membership(C, spec.generators):
            terms.append(C)
            approx.append(None)
            break
        if len(terms) >= spec.d:
            raise FinalTermNotInSubcategory("cokernel escapes the subcategory")
        cur = C
    diffs = []
    for i in range(len(terms) - 1):
        nxt = approx[i + 1]
        diffs.append(projs[i] if nxt is None else projs[i].compose(nxt))
    if not _is_exact([approx[0]] + diffs):
        raise InternalCheckFailed("assembled coresolution failed exactness")
    return DCoresolution(terms, approx[0], diffs)


def verify_gen_cogen_pairwise(spec):
    """Both approximations of every P(v), I(v) and S(v), in that order; the
    left one is the column join over A."""
    alg = spec.algebra
    tests = [(f"P({v})", p) for v, p in projectives(alg)]
    tests += [(f"I({v})", i) for v, i in injectives(alg)]
    tests += [(f"S({v})", simple_module(alg, v)) for v in alg.quiver.vertices]
    generating = Check(True)
    for name, T in tests:
        if not images_span_full([right_approximation(spec, T)], T):
            generating = Check(False, witness=name,
                               note="right approximation is not onto")
            break
    cogenerating = Check(True)
    for name, T in tests:
        if not is_mono_full(left_approximation_columns(spec, T)):
            cogenerating = Check(False, witness=name,
                                 note="left approximation is not injective")
            break
    return {"generating": generating, "cogenerating": cogenerating}


def gp_certificate_pairwise(M, horizon=24):
    """Ext^1 of every orbit member against every P(v), sorted by vertex."""
    alg = M.algebra
    if M.total_dim == 0 or is_projective(M):
        return GpCertificate("gp_certified", None, 0, 0, horizon)
    orb = omega_stabilizes_strided(M, horizon)
    for j, r in enumerate(orb["reps"]):
        for v in sorted(alg.quiver.vertices):
            if ext_dim(r, projective_module(alg, v), 1):
                return GpCertificate("not_gp", (j + 1, v), None, None,
                                     horizon)
    if orb["kind"] == "cycle":
        return GpCertificate("gp_certified", None, orb["preperiod"],
                             orb["period"], horizon)
    if orb["kind"] == "zero":
        raise InternalCheckFailed("vanishing orbit with clean Ext scan")
    return GpCertificate("undetermined", None, None, None, horizon)


def is_projective_by_add_membership(M):
    """M is zero or a summand of a sum of copies of the P(v)."""
    if M.total_dim == 0:
        return True
    return add_membership(M, [p for _, p in projectives(M.algebra)])


def stable_iso_by_add_membership(M, N):
    """Each in add(other + projectives), and equal stable End dimensions.

    Builds hom(M, N), hom(N, M) and the Hom spaces with every P(v) inside
    each ``add_membership`` call.
    """
    P = [p for _, p in projectives(M.algebra)]
    return (add_membership(M, [N] + P) and add_membership(N, [M] + P)
            and stable_end_dim(M) == stable_end_dim(N))


def matches_stably_by_dimensions(A, B):
    """The stable-class gate before the syzygy test: equal stable
    endomorphism dimensions, nonzero stable Hom both ways, then
    ``stable_iso_by_add_membership``; each dimension read from a stable Hom
    basis.

    Answers False on stably zero inputs, so compare it on nonzero classes
    only.
    """
    if stable_hom(A, A).dim != stable_hom(B, B).dim:
        return False
    return (stable_hom(A, B).dim > 0 and stable_hom(B, A).dim > 0
            and stable_iso_by_add_membership(A, B))


def omega_stabilizes_strided(M, horizon=24, step=1):
    """Walk the syzygy orbit in strides of ``step`` until it resolves.

    Returns {"kind": "zero", "steps": s} when some syzygy vanishes stably,
    {"kind": "cycle", "preperiod": p, "period": L, "reps": [...]} when the
    stable orbit closes up (indices in strides), or {"kind": "undetermined"}.
    The representative list holds the stride-indexed syzygy instances.
    """
    if step < 1:
        raise ValueError("stride must be positive")
    reps = [M]
    if is_projective(M):
        return {"kind": "zero", "steps": 0, "reps": reps}
    cur = M
    taken = 0
    while taken + step <= horizon:
        for _ in range(step):
            cur = syzygy(cur)
            taken += 1
            if cur.total_dim == 0:
                return {"kind": "zero", "steps": taken, "reps": reps}
        if is_projective(cur):
            return {"kind": "zero", "steps": taken, "reps": reps}
        for t, old in enumerate(reps):
            if stable_iso(old, cur):
                return {"kind": "cycle", "preperiod": t,
                        "period": len(reps) - t, "reps": reps}
        reps.append(cur)
    return {"kind": "undetermined", "horizon": horizon, "reps": reps}


def step_unpooled(M):
    """M's cover step (``rep.Step``, which takes the kernel of eps) from its
    own top generators, cover and eps, built by ``top_generators_full`` and
    ``projective_cover_full``, memoised on M: a fresh step per module, read
    from and kept in no content record, so no step is shared."""
    step = M.__dict__.get("_unpooled_step")
    if step is None:
        _, P, mats = projective_cover_full(M)
        gens = tuple((v, tuple(g)) for v, g in top_generators_full(M))
        step = M._unpooled_step = Step(gens, RepMorphism(P, M, mats,
                                                         check=False))
    return step


def verify_dZ_closure_pairwise(spec):
    """Each d-th syzygy in add(generators + projectives), by add_membership."""
    pool = spec.generators + [p for _, p in projectives(spec.algebra)]
    for i, g in enumerate(spec.generators):
        if not add_membership(syzygy(g, spec.d), pool):
            return Check(False, witness=spec.labels[i],
                         note="d-th syzygy escapes the additive closure")
    return Check(True)


# ---------------------------------------------------------------------------
# module constructions over every vertex and arrow


def direct_sum_full(reps):
    """Block diagonal at every arrow: each summand's rows padded by the
    columns of the summands before and after it."""
    alg = reps[0].algebra
    z = alg.field.zero
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    action = {}
    for a in alg.quiver.arrows:
        width = dims[a.tgt]
        rows = []
        left = 0
        for r in reps:
            pre = (z,) * left
            left += r.dims[a.tgt]
            post = (z,) * (width - left)
            rows.extend(pre + row + post for row in r.action[a.id].entries)
        action[a.id] = Matrix(alg.field, dims[a.src], width, rows)
    return Representation(alg, dims, action, check=False)


def top_generators_full(M):
    """One rref of the incoming arrows' rows at every vertex."""
    alg = M.algebra
    f = alg.field
    out = []
    for v in alg.quiver.vertices:
        rows = [r for a in alg.quiver.arrows_into[v]
                for r in M.action[a.id].entries]
        _, piv = rref(Matrix(f, len(rows), M.dims[v], rows))
        pivset = set(piv)
        for j in range(M.dims[v]):
            if j not in pivset:
                e = [f.zero] * M.dims[v]
                e[j] = f.one
                out.append((v, e))
    return out


def projective_cover_full(M):
    """(cover vertices, cover module, eps matrices), with the onto check
    (a rank) at every vertex."""
    alg = M.algebra
    f = alg.field
    gens = top_generators_full(M)
    summands = [projective_module(alg, v) for v, _ in gens]
    P = direct_sum_full(summands) if summands else zero_rep(alg)
    blocks = {w: [] for w in alg.quiver.vertices}
    for v, g in gens:
        for key, img in _path_images(M, v, g).items():
            blocks[alg.key_target(key)].append(img)
    mats = {w: Matrix.from_rows(f, blocks[w], M.dims[w])
            for w in alg.quiver.vertices}
    for w in alg.quiver.vertices:
        if rank(mats[w]) != M.dims[w]:
            raise InternalCheckFailed("cover map is not onto")
    return [v for v, _ in gens], P, mats


def kernel_full(f):
    """(dims, action, inclusion matrices) of the kernel of f: a kernel basis
    at every vertex and the arrow-stability check at every arrow."""
    M = f.src
    alg = M.algebra
    inc = {v: Matrix.from_rows(alg.field, kernel_basis(f.mats[v]), M.dims[v])
           for v in alg.quiver.vertices}
    action = {}
    for a in alg.quiver.arrows:
        sol = echelon_solve(inc[a.tgt], inc[a.src].mul(M.action[a.id]))
        if sol is None:
            raise InternalCheckFailed("kernel is not arrow-stable")
        action[a.id] = sol
    return {v: inc[v].rows for v in inc}, action, inc


def commuting_system_dense(M, N):
    """The commuting constraints by a dense triple loop, one column per
    (arrow, i, k) that has a term; a column whose terms cancel is kept."""
    f = M.algebra.field
    off, total = {}, 0
    for v in M.algebra.quiver.vertices:
        off[v] = total
        total += M.dims[v] * N.dims[v]
    cols = []
    for a in M.algebra.quiver.arrows:
        u, w = a.src, a.tgt
        Ma, Na = M.action[a.id].entries, N.action[a.id].entries
        for i in range(M.dims[u]):
            for k in range(N.dims[w]):
                col, has = {}, False
                for j in range(M.dims[w]):
                    if Ma[i][j] != 0:
                        idx = off[w] + j * N.dims[w] + k
                        col[idx] = f.add(col.get(idx, f.zero), Ma[i][j])
                        has = True
                for j2 in range(N.dims[u]):
                    if Na[j2][k] != 0:
                        idx = off[u] + i * N.dims[u] + j2
                        col[idx] = f.sub(col.get(idx, f.zero), Na[j2][k])
                        has = True
                if has:
                    cols.append(col)
    rows = [[f.zero] * len(cols) for _ in range(total)]
    for c, col in enumerate(cols):
        for idx, val in col.items():
            rows[idx][c] = val
    return rows, len(cols), off


def morphism_to_vec(f):
    """f's per-vertex matrices, vertex by vertex and row by row: the layout
    of the unknowns of ``commuting_system_dense``."""
    out = []
    for v in f.src.algebra.quiver.vertices:
        for row in f.mats[v].entries:
            out.extend(row)
    return out


def morphism_from_vec(M, N, vec):
    """The map M -> N whose per-vertex matrices ``vec`` lists in the layout
    of ``morphism_to_vec``."""
    fld = M.algebra.field
    mats = {}
    pos = 0
    for v in M.algebra.quiver.vertices:
        r, c = M.dims[v], N.dims[v]
        rows = [list(vec[pos + i * c: pos + (i + 1) * c]) for i in range(r)]
        pos += r * c
        mats[v] = Matrix.from_rows(fld, rows, c)
    return RepMorphism(M, N, mats, check=False)


def hom_dim_full(M, N):
    """Unknowns minus the rank of the dense commuting system."""
    rows, ncols, _ = commuting_system_dense(M, N)
    return len(rows) - rank(Matrix(M.algebra.field, len(rows), ncols, rows))


def hom_basis_full(M, N):
    """The Hom basis from the left kernel of the dense commuting system."""
    rows, ncols, _ = commuting_system_dense(M, N)
    dense = Matrix(M.algebra.field, len(rows), ncols, rows)
    return [morphism_from_vec(M, N, v) for v in kernel_basis(dense)]


def summand_offsets(cover):
    """offsets[j][w]: the row offset of summand j's block at vertex w."""
    alg = cover.algebra
    run = {w: 0 for w in alg.quiver.vertices}
    out = []
    for v in cover.vertices:
        out.append(dict(run))
        P = projective_module(alg, v)
        for w in run:
            run[w] += P.dims[w]
    return out


def dual_map_matrix(cover_lo, cover_hi, eps, inc, N):
    """(rows, ncols): the sparse rows of precomposition with d = eps . inc,
    from Hom(cover_lo.rep, N) to Hom(cover_hi.rep, N).

    ``eps`` and ``inc`` are per-vertex matrices: eps maps cover_hi.rep onto
    a module that inc includes into cover_lo.rep; in a resolution they are
    eps_i and inc_{i-1}, and d is the differential d_i.  Both hom spaces are
    written in generator coordinates, rows acting on the right.  Each row
    is a {column: value} dict of its nonzeros.  A map out of cover_hi is
    fixed by its generator images, so only the generator rows of d are
    computed; each block sums the path matrices of N along the basis paths
    in such a row, built by prefix in a dict local to this call.
    """
    alg = cover_lo.algebra
    f = alg.field
    z, p = f.zero, f.p
    offsets = summand_offsets(cover_lo)
    gen_rows = [o[w] for o, w in zip(summand_offsets(cover_hi),
                                     cover_hi.vertices)]
    pmats = {}  # path matrices of N, by basis path
    row_off = []
    r = 0
    for v in cover_lo.vertices:
        row_off.append(r)
        r += N.dims[v]
    col_off = []
    c = 0
    for w in cover_hi.vertices:
        col_off.append(c)
        c += N.dims[w]
    out = [{} for _ in range(r)]
    for j, w in enumerate(cover_hi.vertices):
        # the generator of summand j is its trivial path, a row at w
        img = inc[w].act(eps[w].entries[gen_rows[j]])
        for k, v in enumerate(cover_lo.vertices):
            base = offsets[k][w]
            for idx, key in enumerate(alg.basis(v, w)):
                coef = img[base + idx]
                if coef is z or not coef:
                    continue
                pm = pmats.get(key)
                if pm is None:
                    # extend the longest nontrivial prefix built so far one
                    # arrow at a time; a path of one arrow is its action
                    arrows = key[1]
                    n = len(arrows)
                    while n and (v, arrows[:n]) not in pmats:
                        n -= 1
                    pm = pmats[(v, arrows[:n])] if n else None
                    for t in range(n, len(arrows)):
                        act = N.action[arrows[t]]
                        pm = act if pm is None else pm.mul(act)
                        pmats[(v, arrows[:t + 1])] = pm
                    if pm is None:
                        pm = pmats[key] = Matrix.identity(f, N.dims[v])
                ro, co = row_off[k], col_off[j]
                for a, prow in enumerate(pm.entries):
                    orow = out[ro + a]
                    for b, x in enumerate(prow):
                        if x is z or not x:
                            continue
                        y = orow.get(co + b, z) + coef * x
                        if p is not None:
                            y %= p
                        if y:
                            orow[co + b] = y
                        else:
                            orow.pop(co + b, None)
    return out, c


def dual_differentials(M, N, i):
    """(d_lo, d_hi): the dual differentials around degree i >= 1.

    d_lo maps Hom(P_{i-1}, N) to Hom(P_i, N) and d_hi maps Hom(P_i, N) to
    Hom(P_{i+1}, N), so Ext^i(M, N) is ker d_hi / im d_lo.  Each is the
    (rows, ncols) pair of ``dual_map_matrix``, read from the cached steps
    0 .. i+1 of M's resolution.
    """
    res = resolve(M, i + 1)
    c, eps, inc = res.covers, res.eps, res.incs
    d_lo = dual_map_matrix(c[i - 1], c[i], eps[i].mats, inc[i - 1].mats, N)
    d_hi = dual_map_matrix(c[i], c[i + 1], eps[i + 1].mats, inc[i].mats, N)
    return d_lo, d_hi


def ext_dim_by_dual_differentials(M, N, i):
    """dim Ext^i(M, N) = rows(d_hi) - rank(d_hi) - rank(d_lo); Hom at i = 0."""
    if i == 0:
        return hom_dim_full(M, N)
    fld = M.algebra.field
    (lo, lo_cols), (hi, hi_cols) = dual_differentials(M, N, i)
    return len(hi) - sparse_rank(fld, hi, hi_cols) - sparse_rank(fld, lo, lo_cols)


def end_offsets(M):
    """Column offsets of the vertex blocks of End_k(M), and its dimension.

    An endomorphism is laid out vertex by vertex, each block row by row, so
    entry (i, k) at v is column off[v] + i * dim M_v + k.
    """
    off, width = {}, 0
    for v in M.algebra.quiver.vertices:
        off[v] = width
        width += M.dims[v] * M.dims[v]
    return off, width


def composite_rows_full(M, off, hs, bs):
    """The composites h then b in End_k(M), as sparse {column: value} rows.

    h runs over hs and b over bs, each a map given by its per-vertex
    matrices, M -> X for h and X -> M for b; a zero composite gives no row.
    """
    z = M.algebra.field.zero
    verts = M.algebra.quiver.vertices
    rows = []
    for h in hs:
        for b in bs:
            # row i of the composite at v is row i of h_v times b_v
            row = {}
            for v in verts:
                bv, d, o = b[v], M.dims[v], off[v]
                for i, hr in enumerate(h[v].entries):
                    for col, x in enumerate(bv.act(hr), o + i * d):
                        if x is not z and x:
                            row[col] = x
            if row:
                rows.append(row)
    return rows


def identity_in_trace_full(M, pairs, base=()):
    """Is id_M in the span of the rows ``base`` and the composites h then b,
    h over hs and b over bs, for each (hs, bs) in pairs, in End_k(M)?

    hs and bs are lists of maps, M -> X and X -> M, and every composite is
    written out in full, dim M_v squared columns per vertex, where
    ``homspace._identity_in_trace`` reads the composites at M's top
    generators.
    """
    f = M.algebra.field
    off, width = end_offsets(M)
    rows = [dict(r) for r in base]
    for hs, bs in pairs:
        rows += composite_rows_full(M, off, [h.mats for h in hs],
                                    [b.mats for b in bs])
    ident = {off[v] + i * (M.dims[v] + 1): f.one
             for v in M.algebra.quiver.vertices for i in range(M.dims[v])}
    return sparse_span_contains(f, rows, width, ident)


def projective_end_rows_full(M):
    """Echelon rows of End_k(M) spanning P(M, M) = {h then eps : h in
    Hom(M, P_M)}, h over the basis maps of hom(M, P_M)."""
    cover, eps = projective_cover(M)
    off, width = end_offsets(M)
    rows = composite_rows_full(
        M, off, [h.mats for h in hom(M, cover.rep).basis], [eps.mats])
    return rows[:len(_eliminate(M.algebra.field, rows, width))]


def add_membership_by_trace(M, gens):
    """M in add G by the trace test alone, with no isomorphism certificate:
    id_M in the span of the composites M -> g -> M over all generators, in
    End_k(M)."""
    if M.total_dim == 0:
        return True
    if not gens:
        return False
    into = [(g, hom(g, M).basis) for g in gens]
    if not images_span_full([b for _, bs in into for b in bs], M):
        return False
    return identity_in_trace_full(
        M, [(hom(M, g).basis, bs) for g, bs in into if bs])


def stable_add_membership_by_trace(M, gens):
    """M in add(G + A) by the trace test alone: the composites M -> g -> M
    plus the maps through M's projective cover, in End_k(M)."""
    if M.total_dim == 0:
        return True
    into = [(g, hom(g, M).basis) for g in gens]
    return identity_in_trace_full(
        M, [(hom(M, g).basis, bs) for g, bs in into if bs],
        projective_end_rows_full(M))

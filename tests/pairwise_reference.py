"""Pair-by-pair forms of the scans that tilting and stab decide in bulk.

Shared by the test modules: every test module and every (source, target)
pair is checked on its own, in the order the reports name witnesses, with
no stacking and no criterion that skips a test module.  Written for
clarity and not for speed.
"""

from singcat.exact_linalg import InternalCheckFailed
from singcat.homology import (
    ext_dim, is_stably_zero_module, omega_stabilizes, stable_end_dim, syzygy,
)
from singcat.rep import (
    add_membership, injectives, projective_module, projectives, simple_module,
)
from singcat.stab import GpCertificate
from singcat.tilting import (
    Check, _is_epi, _is_mono, left_approximation, right_approximation,
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


def verify_gen_cogen_pairwise(spec):
    """Both approximations of every P(v), I(v) and S(v), in that order."""
    alg = spec.algebra
    tests = [(f"P({v})", p) for v, p in projectives(alg)]
    tests += [(f"I({v})", i) for v, i in injectives(alg)]
    tests += [(f"S({v})", simple_module(alg, v)) for v in alg.quiver.vertices]
    generating = Check(True)
    for name, T in tests:
        if not _is_epi(right_approximation(spec, T)):
            generating = Check(False, witness=name,
                               note="right approximation is not onto")
            break
    cogenerating = Check(True)
    for name, T in tests:
        if not _is_mono(left_approximation(spec, T)):
            cogenerating = Check(False, witness=name,
                                 note="left approximation is not injective")
            break
    return {"generating": generating, "cogenerating": cogenerating}


def gp_certificate_pairwise(M, horizon=24):
    """Ext^1 of every orbit member against every P(v), sorted by vertex."""
    alg = M.algebra
    if M.total_dim == 0 or is_stably_zero_module(M):
        return GpCertificate("gp_certified", None, 0, 0, horizon)
    orb = omega_stabilizes(M, horizon, step=1)
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


def verify_dZ_closure_pairwise(spec):
    """Each d-th syzygy in add(generators + projectives), by add_membership."""
    pool = spec.generators + [p for _, p in projectives(spec.algebra)]
    for i, g in enumerate(spec.generators):
        if not add_membership(syzygy(g, spec.d), pool):
            return Check(False, witness=spec.labels[i],
                         note="d-th syzygy escapes the additive closure")
    return Check(True)

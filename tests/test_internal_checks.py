"""Guards on computed results must survive ``python -O``."""

import ast
import tokenize
from pathlib import Path

import pytest

import singcat
from singcat import homology, homspace, rep, stab, tilting
from singcat.exact_linalg import InternalCheckFailed, Matrix
from singcat.homology import PdCertificate

PACKAGE = Path(singcat.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_true_division_runs_only_in_the_rational_inverse():
    """Integral rationals are ints, and int / int is a float, so no module
    divides with ``/`` but ``exact_linalg._rational_inv``, the one exact
    inverse.  cli's ``/`` joins paths and is not scanned."""
    found, inverse = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "_rational_inv"
                    and path.name == "exact_linalg.py"):
                allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)):
                (inverse if id(node) in allowed else found).append(
                    f"{path.name}:{node.lineno}")
    assert inverse, "the inverse helper was not found"
    assert not found, f"true division outside the inverse helper: {found}"


# Past 8,192 tokens the CPython 3.11 parser doubles its token array, and
# compiling the module adds about 0.6 MB to the peak resident size of every
# process that compiles the package afresh.  Comments and blank lines are
# not parser tokens.
PARSER_TOKEN_LIMIT = 8192


def test_every_module_stays_below_the_parser_token_limit():
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    over = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        with path.open("rb") as f:
            n = sum(1 for t in tokenize.tokenize(f.readline)
                    if t.type not in skip)
        if n >= PARSER_TOKEN_LIMIT:
            over[path.name] = n
    assert not over, f"modules at {PARSER_TOKEN_LIMIT} parser tokens: {over}"


def test_internal_check_is_not_reported_as_malformed_input():
    # cli.main maps its input error classes to exit 3, "malformed input"
    assert issubclass(InternalCheckFailed, RuntimeError)
    assert not issubclass(InternalCheckFailed, ValueError)


def test_failed_kernel_check_raises(monkeypatch, kx4):
    # the kernel of the zero endomorphism is all of P, so the arrow-stability
    # check runs at every arrow (the kernel of id_P is 0 and runs none)
    P = rep.projective_module(kx4, kx4.quiver.vertices[0])
    monkeypatch.setattr(rep, "echelon_solve", lambda a, b: None)
    with pytest.raises(InternalCheckFailed, match="arrow-stable"):
        rep.kernel(rep.RepMorphism(P, P, {}, check=False))


def test_kernel_check_runs_into_a_zero_kernel_block(monkeypatch,
                                                    hereditary_a2):
    # S_u + S_v -> S_v has kernel S_u, which is 0 at v; M is not, so the
    # check at the arrow u -> v still runs
    alg = hereditary_a2
    M = rep.direct_sum([rep.simple_module(alg, "u"),
                        rep.simple_module(alg, "v")])
    f = rep.RepMorphism(M, rep.simple_module(alg, "v"),
                        {"v": Matrix.identity(alg.field, 1)})
    assert rep.kernel(f)[0].dims == {"u": 1, "v": 0}
    monkeypatch.setattr(rep, "echelon_solve", lambda a, b: None)
    with pytest.raises(InternalCheckFailed, match="arrow-stable"):
        rep.kernel(f)


def test_cover_check_runs_where_the_module_is_nonzero(monkeypatch,
                                                      hereditary_a2):
    # S_v is zero at u: "cover map is onto" is decided by one elimination,
    # the kernel and section of the block at v, which the kernel of eps and
    # the step's section then reuse
    # S's content must not have been stepped before: records go first
    hereditary_a2.clear_cache()
    S = rep.simple_module(hereditary_a2, "v")
    seen = []
    real = rep.kernel_and_section

    def recording(m):
        seen.append((m.rows, m.cols))
        return real(m)
    monkeypatch.setattr(rep, "kernel_and_section", recording)
    monkeypatch.setattr(rep, "rank", None)  # no separate rank runs
    _, eps = rep.projective_cover(S)
    assert seen == [(1, 1)]
    K, _ = rep.kernel(eps)
    assert seen == [(1, 1)] and K.total_dim == 0
    one = S.algebra.field.one
    assert rep._step(S).section["v"].entries == ((one,),)
    rep.projective_cover(S)
    assert seen == [(1, 1)]  # one cover step per content
    # a kernel one too large leaves eps of rank 0 at v; the step is built
    # afresh once the records are gone
    hereditary_a2.clear_cache()
    S = rep.simple_module(hereditary_a2, "v")
    monkeypatch.setattr(rep, "kernel_and_section",
                        lambda m: ([(m.field.one,) * m.rows], []))
    with pytest.raises(InternalCheckFailed, match="not onto"):
        rep.projective_cover(S)


def test_gp_certificate_vanishing_orbit_with_clean_scan_raises(monkeypatch, kx4):
    S = rep.simple_module(kx4, kx4.quiver.vertices[0])
    monkeypatch.setattr(stab, "pd_certificate",
                        lambda M, horizon: PdCertificate("finite", 1))
    monkeypatch.setattr(homology, "ext_dim", lambda M, N, i: 0)
    with pytest.raises(InternalCheckFailed, match="clean Ext scan"):
        stab.gp_certificate(S)


def test_nonzero_ext_into_a_sum_of_clean_summands_raises(monkeypatch, kx4):
    # Ext is additive, so a nonzero Ext into the direct sum of the
    # generators with every generator clean is the program's fault; the
    # scan is homology.ext_witness's
    gens = [rep.simple_module(kx4, "0"), rep.projective_module(kx4, "0")]
    spec = tilting.SubcatSpec(kx4, gens, 2)
    monkeypatch.setattr(homology, "ext_dim",
                        lambda M, N, i: 0 if any(N is g for g in gens) else 1)
    with pytest.raises(InternalCheckFailed, match="every summand"):
        tilting.verify_rigid(spec)


def test_nonzero_ext_into_the_regular_module_raises(monkeypatch,
                                                    hereditary_a2):
    # the same for Ext^1 into A_A with every P(v) clean
    alg = hereditary_a2
    monkeypatch.setattr(homology, "ext_dim",
                        lambda M, N, i: int(N.total_dim == alg.dimension))
    with pytest.raises(InternalCheckFailed, match="every projective"):
        stab.gp_certificate(rep.simple_module(alg, "u"))


@pytest.mark.parametrize("into_projective, match", [
    (False, "Hom into the syzygy exceeds Hom into the cover"),
    (True, "stable Hom dimension out of range"),
], ids=["syzygy_bound", "range"])
def test_stable_dim_outside_exactness_bounds_raises(monkeypatch, kx4,
                                                    into_projective, match):
    # overcounting Hom into the non-projective syzygy breaks
    # Hom(A, Omega B) <= Hom(A, P_B); overcounting Hom into the projectives
    # drives the stable dimension below zero
    S = rep.simple_module(kx4, kx4.quiver.vertices[0])
    real = homspace.hom_dim

    def overcounted(M, N):
        projective = rep.is_projective(N)
        return real(M, N) + (100 if projective == into_projective else 0)
    monkeypatch.setattr(homspace, "hom_dim", overcounted)
    with pytest.raises(InternalCheckFailed, match=match):
        homspace._stable_dim(S, S)


@pytest.mark.parametrize("count, match", [
    (lambda real, M, N: real(M, N) + 100,
     "Hom out of the syzygy exceeds Hom out of the cover"),
    (lambda real, M, N: 0, "Ext dimension out of range"),
], ids=["cover_bound", "range"])
def test_ext_dim_outside_exactness_bounds_raises(monkeypatch, kx4, count,
                                                 match):
    # overcounting Hom out of Omega^{i-1} M breaks
    # Hom(Omega^{i-1} M, N) <= sum_v dim N_v over its cover; counting every
    # Hom as zero drives the Ext dimension below zero
    S = rep.simple_module(kx4, kx4.quiver.vertices[0])
    real = homology.hom_dim
    monkeypatch.setattr(homology, "hom_dim", lambda M, N: count(real, M, N))
    for i in (1, 2):
        with pytest.raises(InternalCheckFailed, match=match):
            homology.ext_dim(S, S, i)
        with pytest.raises(InternalCheckFailed, match=match):
            homology.ext(S, S, i)

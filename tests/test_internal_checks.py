"""Guards on computed results must survive ``python -O``."""

import ast
from pathlib import Path

import pytest

import singcat
from singcat import homology, rep, stab, tilting
from singcat.exact_linalg import InternalCheckFailed

PACKAGE = Path(singcat.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_internal_check_is_not_reported_as_malformed_input():
    # cli.main maps ValueError to exit 3, "malformed input"
    assert issubclass(InternalCheckFailed, RuntimeError)
    assert not issubclass(InternalCheckFailed, ValueError)


def test_failed_kernel_check_raises(monkeypatch, kx4):
    P = rep.projective_module(kx4, kx4.quiver.vertices[0])
    monkeypatch.setattr(rep, "echelon_solve", lambda a, b: None)
    with pytest.raises(InternalCheckFailed, match="arrow-stable"):
        rep.kernel(rep.RepMorphism.identity(P))


def test_gp_certificate_vanishing_orbit_with_clean_scan_raises(monkeypatch, kx4):
    S = rep.simple_module(kx4, kx4.quiver.vertices[0])
    monkeypatch.setattr(stab, "omega_stabilizes",
                        lambda M, horizon, step: {"kind": "zero", "steps": 1,
                                                  "reps": [M]})
    monkeypatch.setattr(stab, "ext_dim", lambda M, N, i: 0)
    with pytest.raises(InternalCheckFailed, match="clean Ext scan"):
        stab.gp_certificate(S)


def test_nonzero_ext_into_a_sum_of_clean_summands_raises(monkeypatch, kx4):
    # Ext is additive, so a nonzero Ext into the direct sum of the
    # generators with every generator clean is the program's fault
    gens = [rep.simple_module(kx4, "0"), rep.projective_module(kx4, "0")]
    spec = tilting.SubcatSpec(kx4, gens, 2)
    monkeypatch.setattr(tilting, "ext_dim",
                        lambda M, N, i: 0 if any(N is g for g in gens) else 1)
    with pytest.raises(InternalCheckFailed, match="every summand"):
        tilting.verify_rigid(spec)


def test_nonzero_ext_into_the_regular_module_raises(monkeypatch,
                                                    hereditary_a2):
    # the same for Ext^1 into A_A with every P(v) clean
    alg = hereditary_a2
    monkeypatch.setattr(stab, "ext_dim",
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
    real = homology.hom_dim

    def overcounted(M, N):
        return real(M, N) + (100 if rep.is_projective(N) == into_projective
                             else 0)
    monkeypatch.setattr(homology, "hom_dim", overcounted)
    with pytest.raises(InternalCheckFailed, match=match):
        homology._stable_dim(S, S)

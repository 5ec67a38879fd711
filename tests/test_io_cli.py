"""Fixture round-trips and command exit codes."""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singcat.cli as cli
from singcat import homspace
from singcat.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_UNDETERMINED,
    Loader,
    algebra_from_json,
    algebra_to_json,
    dumps_canonical,
    emit_examples,
    main,
    module_from_json,
    module_to_json,
)
from singcat.exact_linalg import InternalCheckFailed, prime_field, rational_field
from singcat.homology import syzygy
from singcat.homspace import is_isomorphic
from singcat.rep import is_projective, projective_module, simple_module


@pytest.fixture(scope="module")
def tilde_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("tilde")
    emit_examples("a2-tilde-3233", out, rational_field())
    return out


@pytest.fixture(scope="module")
def kx2_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("kx2")
    emit_examples("kx2", out, rational_field())
    return out


# ---------------------------------------------------------------------------
# round trips


def test_algebra_round_trip_all_examples(tmp_path):
    for name in ("kx2", "hereditary-a2", "a2-tilde-3233", "a2-infty-window"):
        d = tmp_path / name
        emit_examples(name, d, rational_field())
        text = (d / "algebra.json").read_text()
        alg = algebra_from_json(json.loads(text))
        again = dumps_canonical(algebra_to_json(alg))
        assert again == text


def test_algebra_round_trip_prime_field(tmp_path):
    emit_examples("kx2", tmp_path, prime_field(7))
    text = (tmp_path / "algebra.json").read_text()
    alg = algebra_from_json(json.loads(text))
    assert alg.field.kind == "prime" and alg.field.p == 7
    assert dumps_canonical(algebra_to_json(alg)) == text


def test_module_round_trip_exact(tilde_dir):
    loader = Loader()
    alg = loader.algebra(tilde_dir / "algebra.json")
    for f in sorted(tilde_dir.glob("m_*.json")):
        text = f.read_text()
        M = module_from_json(json.loads(text), alg)
        assert dumps_canonical(module_to_json(M, "algebra.json")) == text


def test_integral_fraction_entries_load_as_ints(tmp_path):
    # integral entries load as ints and are written back in lowest terms
    emit_examples("hereditary-a2", tmp_path, rational_field())
    alg = Loader().algebra(tmp_path / "algebra.json")
    obj = {"algebra": "algebra.json", "dims": {"u": 1, "v": 3},
           "arrows": {"a": [["2/1", "-4/2", "3/2"]]}}
    M = module_from_json(obj, alg)
    assert [type(x) for x in M.action["a"].entries[0]] == [
        int, int, Fraction]
    assert module_to_json(M, "algebra.json")["arrows"]["a"] == [
        ["2", "-2", "3/2"]]


def test_module_round_trip_preserves_action(kx2_dir):
    # not just dims: the reconstructed module is the same representation
    loader = Loader()
    alg = loader.algebra(kx2_dir / "algebra.json")
    P = loader.module(kx2_dir / "m_P.json")
    assert P.dims == {"0": 2}
    expected = projective_module(alg, "0")
    assert P.action["a0"].entries == expected.action["a0"].entries


def test_subcat_round_trip(tilde_dir):
    loader = Loader()
    spec = loader.subcat(tilde_dir / "subcat.json")
    assert spec.d == 2
    assert len(spec.generators) == 22
    assert spec.claims == ["skeleton_count=4"]
    assert spec.labels[0] == "m_0_0_0"
    # generator content survives: each parsed module matches a fresh build
    from singcat.families import nakayama2_tilde
    _, fresh = nakayama2_tilde((3, 2, 3, 3), 4, rational_field())
    # fresh lives on a distinct algebra object, so compare raw data
    by_dims = {tuple(sorted(g.dims.items())): g for g in fresh.generators}
    for g in spec.generators:
        key = tuple(sorted(g.dims.items()))
        assert key in by_dims
        mate = by_dims[key]
        for a in spec.algebra.quiver.arrows:
            assert g.action[a.id].entries == mate.action[a.id].entries


def test_nonstring_coefficients_rejected(tmp_path):
    emit_examples("kx2", tmp_path, rational_field())
    obj = json.loads((tmp_path / "m_P.json").read_text())
    obj["arrows"]["a0"][0][0] = 1  # number, not a decimal string
    alg = Loader().algebra(tmp_path / "algebra.json")
    from singcat.cli import InputError
    with pytest.raises(InputError):
        module_from_json(obj, alg)


def test_module_relation_violation_rejected(tmp_path):
    emit_examples("kx2", tmp_path, rational_field())
    obj = json.loads((tmp_path / "m_P.json").read_text())
    obj["arrows"]["a0"] = [["0", "1"], ["1", "0"]]  # square is identity
    alg = Loader().algebra(tmp_path / "algebra.json")
    from singcat.cli import InputError
    with pytest.raises(InputError):
        module_from_json(obj, alg)


@pytest.mark.parametrize("example,module,arrow,rows", [
    ("kx2", "m_P", "a0", [["0", "1"]]),                  # too few rows
    ("kx2", "m_P", "a0", [["0", "1"], ["0", "0"], ["0", "0"]]),
    ("kx2", "m_P", "a0", [["0"], ["0"]]),                # too narrow
    ("hereditary-a2", "m_Su", "a", [["1"]]),             # an entry into v = 0
    ("hereditary-a2", "m_Su", "a", [[], []]),            # a row where u = 1
])
def test_module_arrow_shape_mismatch_rejected(tmp_path, example, module,
                                              arrow, rows):
    emit_examples(example, tmp_path, rational_field())
    obj = json.loads((tmp_path / f"{module}.json").read_text())
    obj["arrows"][arrow] = rows
    alg = Loader().algebra(tmp_path / "algebra.json")
    from singcat.cli import InputError
    with pytest.raises(InputError):
        module_from_json(obj, alg)


def test_random_module_survives_round_trip(kx2_dir):
    rng = random.Random(3)
    alg = Loader().algebra(kx2_dir / "algebra.json")
    f = alg.field
    for _ in range(10):
        n = rng.randrange(1, 4)
        M = simple_module(alg, "0")
        from singcat.rep import direct_sum
        M = direct_sum([M] * n)
        obj = module_to_json(M, "algebra.json")
        back = module_from_json(obj, alg)
        assert back.dims == M.dims
        assert back.action["a0"].entries == M.action["a0"].entries


# ---------------------------------------------------------------------------
# exit codes through main()


def test_exit_ok_verify(kx2_dir, capsys):
    rc = main(["ct", "verify", "--subcat", str(kx2_dir / "subcat.json")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "certificate_only" in out


def test_exit_ok_skeleton_with_discrepancy(tilde_dir, tmp_path, capsys):
    report = tmp_path / "skel.json"
    rc = main(["sing", "skeleton", "--subcat", str(tilde_dir / "subcat.json"),
               "--out", str(report)])
    assert rc == EXIT_OK
    data = json.loads(report.read_text())
    assert data["count"] == 3
    assert data["claimed_count"] == 4
    assert data["count_discrepancy"] is True
    assert "identification chains" in data["discrepancy_note"]
    assert data["hom_matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_exit_refuted_rigid(kx2_dir, tmp_path):
    # same generators, d=2: ext^1(S, S) is nonzero, rigidity fails
    obj = json.loads((kx2_dir / "subcat.json").read_text())
    obj["d"] = 2
    obj["algebra"] = str(kx2_dir / "algebra.json")
    obj["generators"] = [str(kx2_dir / g) for g in obj["generators"]]
    bad = tmp_path / "subcat2.json"
    bad.write_text(dumps_canonical(obj))
    rc = main(["ct", "verify", "--subcat", str(bad)])
    assert rc == EXIT_REFUTED


@pytest.mark.parametrize("verb", [["ct", "verify"], ["sing", "skeleton"]],
                         ids=["ct_verify", "sing_skeleton"])
def test_optimized_subprocess_reports_match_in_process(tilde_dir, tmp_path,
                                                        verb):
    # the certificates' guards are explicit raises, so python -O must give
    # the same report and exit code as a run with assertions on
    args = verb + ["--subcat", str(tilde_dir / "subcat.json"), "--out"]
    here = tmp_path / "in_process.json"
    rc = main(args + [str(here)])
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    there = tmp_path / "optimized.json"
    proc = subprocess.run([sys.executable, "-O", "-m", "singcat.cli", *args,
                           str(there)], capture_output=True, text=True, env=env)
    assert proc.returncode == rc, proc.stderr
    assert there.read_text() == here.read_text()


def test_exit_refuted_gorenstein(tilde_dir, tmp_path):
    report = tmp_path / "gor.json"
    rc = main(["sing", "gorenstein", "--algebra",
               str(tilde_dir / "algebra.json"), "--out", str(report)])
    assert rc == EXIT_REFUTED
    data = json.loads(report.read_text())
    assert data["verdict"] == "not_gorenstein"
    assert data["witness"] == "(3,4)"
    assert data["injective_pd"]["(3,4)"]["status"] == "infinite_periodic"


def test_exit_undetermined_skeleton(tilde_dir):
    rc = main(["sing", "skeleton", "--subcat", str(tilde_dir / "subcat.json"),
               "--horizon", "1"])
    assert rc == EXIT_UNDETERMINED


@pytest.mark.parametrize("args", [
    ["sing", "skeleton", "--horizon", "abc"],
    ["ct", "verify"],
], ids=["bad-int", "missing-subcat"])
def test_usage_error_is_malformed_input(args, capsys):
    # argparse exits with 2, which the CLI reserves for "undetermined"
    assert main(args) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: singcat ")
    assert "error:" in captured.err


def test_help_exits_ok(capsys):
    assert main(["ct", "verify", "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: singcat ct verify")


@pytest.mark.parametrize("args", [
    ["ct", "verify", "--mode", "certificate"],
    ["sing", "skeleton", "--d", "2"],
    ["ct", "verify", "--horizon", "3"],
    ["example", "kx2", "--length-bound", "4"],
], ids=["ct-verify-mode", "skeleton-d", "ct-verify-horizon",
        "example-length-bound"])
def test_options_that_cannot_change_an_answer_are_gone(args, kx2_dir,
                                                        tmp_path, capsys):
    if args[0] == "example":
        args = args + ["--out", str(tmp_path / "kx2")]
    else:
        args = args + ["--subcat", str(kx2_dir / "subcat.json")]
    assert main(args) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: singcat ")
    assert "unrecognized arguments: " + args[2] in captured.err
    assert not (tmp_path / "kx2").exists()


def test_horizon_is_an_option_of_the_sing_verbs_only(capsys):
    for verb in ("skeleton", "gorenstein", "gp"):
        assert main(["sing", verb, "--help"]) == EXIT_OK
        assert "--horizon" in capsys.readouterr().out
    assert main(["ct", "verify", "--help"]) == EXIT_OK
    assert "--horizon" not in capsys.readouterr().out


def test_algebra_with_long_paths_loads_with_one_basis_computation(
        monkeypatch):
    # k[x]/(x^6): x^5 is a nonzero path of length 5, so bound 4 would fail
    calls = []
    real = cli.compute_basis

    def counted(*args):
        calls.append(args[-1])
        return real(*args)
    monkeypatch.setattr(cli, "compute_basis", counted)
    alg = algebra_from_json({
        "field": {"kind": "rational"}, "vertices": ["0"],
        "arrows": [{"id": "a", "src": "0", "tgt": "0"}],
        "relations": [[{"coef": "1", "path": ["a"] * 6}]],
    })
    assert alg.dimension == 6
    assert calls == [16]


def test_exit_internal_on_failed_check(kx2_dir, monkeypatch, capsys):
    def broken(M, N):
        raise InternalCheckFailed("kernel is not arrow-stable")
    monkeypatch.setattr(cli, "hom_dim", broken)
    rc = main(["mod", "hom", str(kx2_dir / "m_S.json"), str(kx2_dir / "m_P.json")])
    assert rc == EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: kernel is not arrow-stable\n"


def test_exit_internal_on_stable_hom_fault(tilde_dir, monkeypatch, capsys):
    # a stable Hom dimension outside the range exactness allows is the
    # program's fault, not malformed input: overcounting Hom into every
    # projective drives dim Hom(A, B) - dim Hom(A, P_B) + dim Hom(A, Omega B)
    # below zero
    real = homspace.hom_dim

    def overcounted(M, N):
        return real(M, N) + (100 if is_projective(N) else 0)
    monkeypatch.setattr(homspace, "hom_dim", overcounted)
    rc = main(["sing", "skeleton", "--subcat", str(tilde_dir / "subcat.json")])
    assert rc == EXIT_INTERNAL
    assert capsys.readouterr().err == \
        "internal error: stable Hom dimension out of range\n"


@pytest.mark.parametrize("args", [
    ["mod", "ext", "m_S.json", "m_P.json", "--degree", "-1"],
    ["mod", "syzygy", "m_S.json", "--steps", "-2"],
    ["mod", "resolve", "m_S.json", "--length", "-1"],
    ["sing", "skeleton", "--subcat", "subcat.json", "--horizon", "-1"],
    ["sing", "skeleton", "--subcat", "subcat.json", "--claimed", "-1"],
    ["sing", "gorenstein", "--algebra", "algebra.json", "--horizon", "-3"],
], ids=["degree", "steps", "length", "horizon", "claimed", "gorenstein"])
def test_negative_count_is_malformed_input(args, kx2_dir, capsys):
    args = [str(kx2_dir / a) if a.endswith(".json") else a for a in args]
    assert main(args) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: singcat ")
    assert f"{args[-2]}: must not be negative: {args[-1]}" in captured.err


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_length_bound_below_one_is_malformed_input(bound, kx2_dir, capsys):
    # 0 is a bound of its own, not the default of 16
    rc = main(["alg", "validate", str(kx2_dir / "algebra.json"),
               "--length-bound", bound])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == "error: length bound must be positive\n"


@pytest.mark.parametrize("count", ["four", "-1", "", "2.5"])
def test_malformed_skeleton_count_claim_is_malformed_input(count, kx2_dir,
                                                           tmp_path, capsys):
    sub = json.loads((kx2_dir / "subcat.json").read_text())
    sub["algebra"] = str(kx2_dir / "algebra.json")
    sub["generators"] = [str(kx2_dir / g) for g in sub["generators"]]
    sub["claims"] = [f"skeleton_count={count}"]
    path = tmp_path / "subcat.json"
    path.write_text(json.dumps(sub))
    rc = main(["sing", "skeleton", "--subcat", str(path)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: claim 'skeleton_count={count}' is not a non-negative "
        f"count\n")


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("case", ["generator_ref", "module_algebra_ref",
                                  "generator_file"])
def test_malformed_fixture_reference_is_malformed_input(case, tilde_dir,
                                                        tmp_path, capsys):
    """A file reference that is not a string, or a fixture file that is
    not a JSON object, is malformed input, not a crash."""
    d = tmp_path / "t"
    shutil.copytree(tilde_dir, d)
    sub, gen = d / "subcat.json", d / "m_0_0_0.json"
    verify = ["ct", "verify", "--subcat", str(sub)]
    if case == "generator_ref":
        _edit_json(sub, lambda o: o["generators"].insert(0, 5))
        args, err = verify, f"file reference 5 in {sub} is not a string"
    elif case == "module_algebra_ref":
        _edit_json(gen, lambda o: o.update(algebra=5))
        args = ["mod", "hom", str(gen), str(d / "m_1_1_1.json")]
        err = f"file reference 5 in {gen} is not a string"
    else:
        gen.write_text("[]")
        args, err = verify, f"{gen} does not hold a JSON object"
    assert main(args) == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {err}\n")


@pytest.mark.parametrize("example, fname, edit, verb, err", [
    ("a2-tilde-3233", "subcat.json", lambda o: o.update(d=2.7), "verify",
     "d must be a JSON integer, not 2.7"),
    ("a2-tilde-3233", "subcat.json", lambda o: o.update(d=True), "verify",
     "d must be a JSON integer, not True"),
    ("a2-tilde-3233", "m_0_0_0.json", lambda o: o["dims"].update(
        {"(0,0)": 1.5}), "hom", "dims '(0,0)' must be a JSON integer, not 1.5"),
    ("kx2", "algebra.json", lambda o: o["field"].update(kind="prime", p="2"),
     "validate", "bad prime field spec: field p must be a JSON integer, "
     "not '2'"),
    ("kx2", "algebra.json", lambda o: o.update(vertices="0"), "validate",
     "vertices must be a JSON array, not '0'"),
    ("kx2", "algebra.json", lambda o: o.update(arrows=o["arrows"][0]),
     "validate", "arrows must be a JSON array, not {'id': 'a0', 'src': '0', "
     "'tgt': '0'}"),
    ("kx2", "algebra.json", lambda o: o.update(relations={}), "validate",
     "relations must be a JSON array, not {}"),
    ("a2-tilde-3233", "subcat.json", lambda o: o.update(
        generators="m_0_0_0.json"), "skeleton",
     "generators must be a JSON array, not 'm_0_0_0.json'"),
    ("a2-tilde-3233", "subcat.json", lambda o: o.update(
        claims="skeleton_count=4"), "skeleton",
     "claims must be a JSON array, not 'skeleton_count=4'"),
], ids=["d_float", "d_bool", "dims_float", "p_string", "vertices",
        "arrows", "relations", "generators", "claims"])
def test_mistyped_field_is_malformed_input(example, fname, edit, verb, err,
                                           tmp_path, capsys):
    """Integer fields take JSON integers only, and list fields JSON arrays
    only: nothing is coerced into a value the file does not hold."""
    emit_examples(example, tmp_path, rational_field())
    _edit_json(tmp_path / fname, edit)
    args = {"verify": ["ct", "verify", "--subcat", "subcat.json"],
            "skeleton": ["sing", "skeleton", "--subcat", "subcat.json"],
            "hom": ["mod", "hom", "m_0_0_0.json", "m_1_1_1.json"],
            "validate": ["alg", "validate", "algebra.json"]}[verb]
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    assert main(args) == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {err}\n")


def test_angle_of_a_projective_is_malformed_input(kx2_dir, capsys):
    rc = main(["ct", "angle", "--subcat", str(kx2_dir / "subcat.json"),
               "--module", str(kx2_dir / "m_P.json")])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == \
        "error: ct angle needs a non-projective module\n"


@pytest.mark.parametrize("error", cli.INPUT_ERRORS,
                         ids=lambda e: e.__name__)
def test_named_input_errors_exit_3(error, kx2_dir, monkeypatch, capsys):
    def bad_input(*args):
        raise error("bad input")
    monkeypatch.setattr(cli, "ext_dim", bad_input)
    rc = main(["mod", "ext", str(kx2_dir / "m_S.json"),
               str(kx2_dir / "m_P.json")])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == "error: bad input\n"


@pytest.mark.parametrize("verb, owner, name", [
    (["mod", "syzygy", "m_S.json"], "rep", "echelon_solve"),
    (["ct", "verify", "--subcat", "subcat.json"], "tilting", "hom_dim"),
], ids=["kernel", "generation"])
def test_value_error_inside_a_verb_is_internal(verb, owner, name, kx2_dir,
                                               monkeypatch, capsys):
    # a shape mismatch in the computation is the program's fault, not
    # malformed input
    def mismatched(*args):
        raise ValueError("column mismatch: 1 vs 2")
    monkeypatch.setattr(sys.modules[f"singcat.{owner}"], name, mismatched)
    verb = [str(kx2_dir / a) if a.endswith(".json") else a for a in verb]
    assert main(verb) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: column mismatch: 1 vs 2\n"


def test_cli_operation_freed_without_cyclic_gc(tmp_path, monkeypatch):
    # everything an operation builds hangs off the algebras it loads; once
    # main returns, reference counting alone must free them
    assert main(["example", "a2-tilde-3233", "--out", str(tmp_path)]) == EXIT_OK
    refs = []
    load = Loader.algebra

    def recording(self, path):
        alg = load(self, path)
        refs.append(weakref.ref(alg))
        return alg
    monkeypatch.setattr(Loader, "algebra", recording)
    gc.collect()
    gc.disable()
    try:
        rc = main(["ct", "verify", "--subcat", str(tmp_path / "subcat.json")])
        alive = [r() is not None for r in refs]
    finally:
        gc.enable()
    assert rc == EXIT_OK
    assert alive and not any(alive)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_dumps_canonical_matches_json_indent(obj):
    assert dumps_canonical(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    {}, [], {"a": {}, "b": [], "c": [[], {}]}, "caf\u00e9 \u2211 \"q\"\n",
    {"\u00e9": ["\U0001d400", None, True, False, -3]}, (1, (2,)), {1: "x"},
])
def test_dumps_canonical_edge_cases(obj):
    assert dumps_canonical(obj) == json.dumps(obj, indent=2) + "\n"


def test_report_writing_leaves_no_cyclic_garbage(tmp_path):
    assert main(["example", "a2-tilde-3233", "--out", str(tmp_path)]) == EXIT_OK
    gc.collect()
    gc.disable()
    try:
        rc = main(["ct", "verify", "--subcat", str(tmp_path / "subcat.json"),
                   "--out", str(tmp_path / "report.json")])
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert rc == EXIT_OK
    assert (tmp_path / "report.json").read_text().startswith("{\n")
    assert unreachable == 0


def test_exit_input_missing_file(tmp_path):
    rc = main(["alg", "validate", str(tmp_path / "nope.json")])
    assert rc == EXIT_INPUT


def test_exit_input_dangling_arrow(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"kind": "rational"}, "vertices": ["u"],
        "arrows": [{"id": "a", "src": "u", "tgt": "w"}], "relations": [],
    }))
    rc = main(["alg", "validate", str(bad)])
    assert rc == EXIT_INPUT


def test_exit_input_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["alg", "validate", str(bad)]) == EXIT_INPUT


def test_exit_input_full_mode(kx2_dir):
    rc = main(["ct", "verify", "--subcat", str(kx2_dir / "subcat.json"),
               "--mode", "full"])
    assert rc == EXIT_INPUT


def test_exit_input_infinite_dimensional(tmp_path):
    # one loop, no relations: never finite dimensional at any bound
    bad = tmp_path / "loop.json"
    bad.write_text(json.dumps({
        "field": {"kind": "rational"}, "vertices": ["0"],
        "arrows": [{"id": "a", "src": "0", "tgt": "0"}], "relations": [],
    }))
    assert main(["alg", "validate", str(bad)]) == EXIT_INPUT


@pytest.mark.parametrize("field, coef", [(rational_field(), "1/0"),
                                         (prime_field(101), "1/101")],
                         ids=["Q", "F101"])
def test_exit_input_zero_denominator(tmp_path, capsys, field, coef):
    """A coefficient whose denominator is zero in the field is bad input
    (exit 3), in an algebra file and in a module file alike."""
    emit_examples("kx2", tmp_path, field)
    capsys.readouterr()
    good = tmp_path / "algebra.json"
    alg = json.loads(good.read_text())
    alg["relations"][0][0]["coef"] = coef
    bad_alg = tmp_path / "bad_algebra.json"
    bad_alg.write_text(dumps_canonical(alg))
    assert main(["sing", "gorenstein", "--algebra", str(bad_alg)]) == EXIT_INPUT
    assert "zero denominator" in capsys.readouterr().err
    mod = json.loads((tmp_path / "m_P.json").read_text())
    mod["arrows"]["a0"][0][1] = coef
    bad_mod = tmp_path / "m_bad.json"
    bad_mod.write_text(dumps_canonical(mod))
    assert main(["sing", "gp", "--algebra", str(good),
                 "--module", str(bad_mod)]) == EXIT_INPUT
    assert "zero denominator" in capsys.readouterr().err


def test_exit_input_mixed_algebra_refs(kx2_dir, tmp_path):
    other = tmp_path / "other"
    emit_examples("hereditary-a2", other, rational_field())
    obj = json.loads((kx2_dir / "subcat.json").read_text())
    obj["generators"] = [str(other / "m_Su.json")]
    bad = tmp_path / "mixed.json"
    bad.write_text(dumps_canonical(obj))
    assert main(["ct", "verify", "--subcat", str(bad)]) == EXIT_INPUT


def test_exit_input_repeated_generator_label(tilde_dir, tmp_path, capsys):
    """Generators are labelled by file stem, and a report keys its entries
    by label: a second m_0_0_0, a copy of m_1_1_1 in a subdirectory, is
    bad input, not a class that takes the real m_0_0_0's entries."""
    algebra = str(tilde_dir / "algebra.json")
    copy = json.loads((tilde_dir / "m_1_1_1.json").read_text())
    copy["algebra"] = algebra
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "m_0_0_0.json").write_text(dumps_canonical(copy))
    obj = json.loads((tilde_dir / "subcat.json").read_text())
    obj["algebra"] = algebra
    obj["generators"] = [str(tilde_dir / g) for g in obj["generators"]]
    obj["generators"].append(str(tmp_path / "b" / "m_0_0_0.json"))
    bad = tmp_path / "subcat.json"
    bad.write_text(dumps_canonical(obj))
    assert main(["sing", "skeleton", "--subcat", str(bad)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated generator label 'm_0_0_0'\n"


# ---------------------------------------------------------------------------
# command output payloads


def test_alg_basis_prints_dimension(tilde_dir, capsys):
    rc = main(["alg", "basis", str(tilde_dir / "algebra.json")])
    assert rc == EXIT_OK
    assert "dimension 34" in capsys.readouterr().out


def test_mod_hom_and_ext(tilde_dir, capsys):
    rc = main(["mod", "hom", str(tilde_dir / "m_1_1_3.json"),
               str(tilde_dir / "m_1_2_3.json")])
    assert rc == EXIT_OK
    assert "hom dimension 1" in capsys.readouterr().out
    rc = main(["mod", "ext", str(tilde_dir / "m_0_0_0.json"),
               str(tilde_dir / "m_0_0_0.json"), "--degree", "1"])
    assert rc == EXIT_OK
    assert "ext^1 dimension 0" in capsys.readouterr().out


def test_sing_gorenstein_bound_on_kx2(kx2_dir, capsys):
    rc = main(["sing", "gorenstein", "--algebra", str(kx2_dir / "algebra.json")])
    assert rc == EXIT_OK
    assert "verdict: gorenstein (bound 0)" in capsys.readouterr().out


def test_sing_gp_witness_for_the_base_interval(tilde_dir, capsys):
    rc = main(["sing", "gp", "--algebra", str(tilde_dir / "algebra.json"),
               "--module", str(tilde_dir / "m_0_0_0.json")])
    assert rc == EXIT_REFUTED
    assert "status: not_gp witness ext^6 at (0,1)" in capsys.readouterr().out


def test_ct_angle_reports_object_dims(tilde_dir, capsys):
    rc = main(["ct", "angle", "--subcat", str(tilde_dir / "subcat.json"),
               "--module", str(tilde_dir / "m_0_0_0.json")])
    assert rc == EXIT_OK
    assert "standard angle objects: [2, 4, 3, 1]" in capsys.readouterr().out


def test_ct_resolution_refuted_without_a_generator(tmp_path, capsys):
    # {P(v), S(v)} over u -> v cannot resolve S(u): nothing maps onto it
    emit_examples("hereditary-a2", tmp_path, rational_field())
    obj = json.loads((tmp_path / "subcat.json").read_text())
    obj["generators"] = ["m_Pv.json", "m_Sv.json"]
    (tmp_path / "pv_sv.json").write_text(dumps_canonical(obj))
    rc = main(["ct", "resolution", "--subcat", str(tmp_path / "pv_sv.json"),
               "--module", str(tmp_path / "m_Su.json")])
    assert rc == EXIT_REFUTED
    assert capsys.readouterr().err.startswith(
        "refuted: right approximation misses part of its target")


def test_mod_syzygy_writes_module_file(tilde_dir, tmp_path):
    out = tmp_path / "syz.json"
    rc = main(["mod", "syzygy", str(tilde_dir / "m_4_4_4.json"),
               "--steps", "2", "--out", str(out)])
    assert rc == EXIT_OK
    loader = Loader()
    alg = loader.algebra(tilde_dir / "algebra.json")
    S = module_from_json(json.loads(out.read_text()), alg)
    M233 = loader.module(tilde_dir / "m_2_3_3.json")
    W = syzygy(loader.module(tilde_dir / "m_4_4_4.json"), 2)
    assert S.dims == W.dims
    assert is_isomorphic(S, M233) or S.dims == M233.dims
    # the file names the input's algebra, relative to itself
    assert Loader().module(out).dims == W.dims
    assert main(["mod", "hom", str(out), str(tilde_dir / "m_2_3_3.json")]) \
        == EXIT_OK


def test_mod_syzygy_output_loads_from_another_directory(tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["example", "a2-tilde-3233", "--out", "fx"]) == EXIT_OK
    assert main(["mod", "syzygy", "fx/m_1_1_1.json",
                 "--out", "out/syz.json"]) == EXIT_OK
    assert json.loads(Path("out/syz.json").read_text())["algebra"] == \
        os.path.join("..", "fx", "algebra.json")
    capsys.readouterr()
    assert main(["mod", "hom", "out/syz.json", "fx/m_1_1_1.json"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    S = Loader().module(Path("out/syz.json"))
    assert S.dims == syzygy(Loader().module(Path("fx/m_1_1_1.json"))).dims


def test_mod_resolve_reports_term_dims(kx2_dir, capsys):
    rc = main(["mod", "resolve", str(kx2_dir / "m_S.json"), "--length", "3"])
    assert rc == EXIT_OK
    assert "2 2 2 2" in capsys.readouterr().out


def test_window_example_safe_region(tmp_path):
    rc = main(["example", "a2-infty-window", "--out", str(tmp_path / "w")])
    assert rc == EXIT_OK
    data = json.loads((tmp_path / "w" / "window.json").read_text())
    assert data["periods"] == 3
    assert "(4,4)" in data["safe_region"]
    rc = main(["alg", "validate", str(tmp_path / "w" / "algebra.json")])
    assert rc == EXIT_OK


def test_window_example_too_small(tmp_path):
    rc = main(["example", "a2-infty-window", "--out", str(tmp_path / "w"),
               "--periods", "2"])
    assert rc == EXIT_INPUT


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "singcat.cli", "example", "kx2",
         "--out", str(tmp_path / "kx2")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    proc = subprocess.run(
        ["singcat", "alg", "validate", str(tmp_path / "kx2" / "algebra.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "dimension 2" in proc.stdout

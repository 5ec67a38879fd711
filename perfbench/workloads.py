"""Seeded inputs, one operation per workload, and order-free answer checks.

Every workload is built by ``prepare(name, seed, workdir)``, which returns an
object with ``run()`` (the timed operation) and ``check(result)`` (returns
the normalized answer, raises ``WrongAnswer`` otherwise).  The seed only
changes the inputs: it shuffles the generator order and applies a monomial
change of basis (a permutation times small nonzero integer scalars at each
vertex) to every generator module.  Both leave every answer unchanged, so
the references below hold for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

# Functions are called through their modules, so that the traced run's
# wrappers (bound in the singcat namespaces) see the calls.
from singcat import cli, quiver_algebra, stab
from singcat.exact_linalg import Matrix, prime_field, rational_field
from singcat.rep import Representation
from singcat.tilting import SubcatSpec

# Scalars of the change of basis.  Over Q they turn 0/1 matrices into
# fractions such as -3/2, which is what a user's own bases look like.
SCALARS = (1, -1, 2, -2, 3, -3)


class WrongAnswer(AssertionError):
    """The program returned an answer that differs from the reference."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


class _Scalars:
    """Arithmetic on the field's scalars as written in fixture files."""

    def __init__(self, p: int | None):
        self.p = p

    def parse(self, s: str):
        return Fraction(s) if self.p is None else int(s) % self.p

    def twist(self, a, su: int, sw: int):
        """su * a / sw, the entry of B_u A B_w^-1 for monomial B."""
        if self.p is None:
            return Fraction(su) * a / sw
        return su * a * pow(sw, self.p - 2, self.p) % self.p

    def of_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p


def _basis_change(rng: random.Random, dims: dict[str, int]):
    """Per vertex: a permutation and one scalar per basis vector."""
    out = {}
    for v, n in dims.items():
        perm = list(range(n))
        rng.shuffle(perm)
        out[v] = (perm, [rng.choice(SCALARS) for _ in range(n)])
    return out


def _twist_matrix(sc: _Scalars, mat, src, tgt):
    """Entry (i, k) of B_u A B_w^-1 is s_u[i] / s_w[k] * A[pi_u(i)][pi_w(k)]."""
    (pu, su), (pw, sw) = src, tgt
    return [[sc.twist(mat[pu[i]][pw[k]], su[i], sw[k])
             for k in range(len(pw))] for i in range(len(pu))]


# ---------------------------------------------------------------------------
# tilde-cli: the a2-tilde-3233 fixtures driven through singcat.cli.main

TILDE_CLASSES = (
    frozenset({"m_0_0_0", "m_3_4_4", "m_4_4_4"}),
    frozenset({"m_1_1_1", "m_1_1_2"}),
    frozenset({"m_2_2_3", "m_2_3_3"}),
)
TILDE_ZERO = frozenset({
    "m_0_0_1", "m_0_0_2", "m_0_1_1", "m_0_1_2", "m_0_2_2", "m_1_1_3",
    "m_1_2_2", "m_1_2_3", "m_1_3_3", "m_2_2_2", "m_2_2_4", "m_2_3_4",
    "m_2_4_4", "m_3_3_3", "m_3_3_4"})
TILDE_CHECKS = ("rigid", "generating", "cogenerating", "dZ_closure",
                "functorially_finite")
# the d-resolution of a generator is the generator itself
TILDE_RESOLVED = "m_2_3_3"
TILDE_RESOLUTION_DIMS = [2]


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class TildeCli:
    """ct verify, sing skeleton, sing gorenstein, ct resolution, in-process."""

    def __init__(self, seed: int, workdir: Path):
        fx = workdir / "fx"
        rc = _cli(["example", "a2-tilde-3233", "--out", str(fx)])
        if rc != 0:
            raise RuntimeError(f"example a2-tilde-3233 exited {rc}")
        rng = random.Random(seed)
        sub_path = fx / "subcat.json"
        sub = json.loads(sub_path.read_text())
        sc = _Scalars(None)
        arrows = json.loads((fx / "algebra.json").read_text())["arrows"]
        for ref in sub["generators"]:
            path = fx / ref
            mod = json.loads(path.read_text())
            change = _basis_change(rng, mod["dims"])
            for a in arrows:
                mat = [[sc.parse(x) for x in row] for row in mod["arrows"][a["id"]]]
                if mat and mat[0]:
                    new = _twist_matrix(sc, mat, change[a["src"]], change[a["tgt"]])
                    mod["arrows"][a["id"]] = [[str(x) for x in row] for row in new]
            path.write_text(json.dumps(mod, indent=2) + "\n")
        rng.shuffle(sub["generators"])
        sub_path.write_text(json.dumps(sub, indent=2) + "\n")
        self.subcat = str(sub_path)
        self.algebra = str(fx / "algebra.json")
        self.module = str(fx / f"{TILDE_RESOLVED}.json")
        self.out = {k: str(workdir / f"{k}.json")
                    for k in ("verify", "skeleton", "gorenstein", "resolution")}

    def run(self):
        o = self.out
        return [
            _cli(["ct", "verify", "--subcat", self.subcat, "--out", o["verify"]]),
            _cli(["sing", "skeleton", "--subcat", self.subcat,
                  "--out", o["skeleton"]]),
            _cli(["sing", "gorenstein", "--algebra", self.algebra,
                  "--out", o["gorenstein"]]),
            _cli(["ct", "resolution", "--subcat", self.subcat,
                  "--module", self.module, "--out", o["resolution"]]),
        ]

    def check(self, codes) -> dict:
        _expect(codes == [0, 0, 1, 0], f"exit codes {codes}, want [0, 0, 1, 0]")
        rep = {k: json.loads(Path(p).read_text()) for k, p in self.out.items()}

        v = rep["verify"]
        _expect(v["verdict"] == "certificate_only", f"verdict {v['verdict']}")
        passed = {c["check"]: c["pass"] for c in v["checks"]}
        _expect(passed == {c: True for c in TILDE_CHECKS},
                f"ct verify checks {passed}")

        s = rep["skeleton"]
        _expect(s["count"] == 3, f"skeleton count {s['count']}")
        _expect(s["claimed_count"] == 4 and s["count_discrepancy"],
                "claimed count 4 not flagged")
        members: dict[int, set] = {}
        zero = set()
        for lbl, (kind, idx) in s["membership"].items():
            if kind == "zero":
                zero.add(lbl)
            else:
                members.setdefault(idx, set()).add(lbl)
        _expect(zero == TILDE_ZERO, f"zero classes {sorted(zero)}")
        keys = [frozenset(members.get(i, ())) for i in range(s["count"])]
        _expect(sorted(keys, key=sorted) == sorted(TILDE_CLASSES, key=sorted),
                f"classes {[sorted(k) for k in keys]}")
        _expect(all(c["orbit_length"] == 3 for c in s["classes"]),
                "orbit lengths")
        hom = {}
        for a, ka in enumerate(keys):
            for b, kb in enumerate(keys):
                want = 1 if a == b else 0
                got = s["hom_matrix"][a][b]
                _expect(got == want, f"stable hom {sorted(ka)} -> {sorted(kb)}: "
                        f"{got}, want {want}")
                hom[f"{min(ka)}->{min(kb)}"] = got

        g = rep["gorenstein"]
        _expect(g["verdict"] == "not_gorenstein" and g["witness"] == "(3,4)",
                f"gorenstein {g['verdict']} witness {g['witness']}")

        r = rep["resolution"]
        _expect(r["dims"] == TILDE_RESOLUTION_DIMS, f"resolution dims {r['dims']}")
        return {"verdict": v["verdict"], "checks": sorted(passed),
                "count": s["count"], "claimed": s["claimed_count"],
                "classes": sorted(sorted(k) for k in keys),
                "zero": sorted(zero), "stable_hom": hom,
                "gorenstein": [g["verdict"], g["witness"]],
                "resolution": r["dims"]}


# ---------------------------------------------------------------------------
# kx5-q and kx5-f101: the Jordan-block skeleton of k[x]/(x^5)

KX_N = 5


class TruncatedSkeleton:
    """Build k[x]/(x^5) and its 5 Jordan modules, then take the skeleton."""

    def __init__(self, seed: int, p: int | None):
        self.field = rational_field() if p is None else prime_field(p)
        sc = _Scalars(p)
        rng = random.Random(seed)
        order = list(range(1, KX_N + 1))
        rng.shuffle(order)
        self.gens = []
        for i in order:
            shift = [[sc.of_int(1 if c == r + 1 else 0) for c in range(i)]
                     for r in range(i)]
            change = _basis_change(rng, {"0": i})["0"]
            self.gens.append((f"J{i}", i, _twist_matrix(sc, shift, change, change)))
        # set-up pays for one algebra build; every operation builds its own
        quiver_algebra.nakayama_cyclic((KX_N,), self.field)

    def run(self):
        f = self.field
        alg = quiver_algebra.nakayama_cyclic((KX_N,), f)
        mods = [Representation(alg, {"0": i}, {"a0": Matrix(f, i, i, rows)})
                for _, i, rows in self.gens]
        spec = SubcatSpec(alg, mods, 1, labels=[lbl for lbl, _, _ in self.gens])
        return stab.skeleton(spec)

    def check(self, rep) -> dict:
        n = KX_N
        _expect(rep.count == n - 1, f"skeleton count {rep.count}")
        _expect(not rep.count_discrepancy, "unexpected count discrepancy")
        zero = sorted(lbl for lbl, _ in rep.zero_classes)
        _expect(zero == [f"J{n}"], f"zero classes {zero}")
        sizes = [c.representative.module.total_dim for c in rep.classes]
        _expect(sorted(sizes) == list(range(1, n)), f"class sizes {sizes}")
        for lbl, (kind, idx) in rep.membership.items():
            if kind == "class":
                _expect(f"J{sizes[idx]}" == lbl, f"{lbl} lands on J{sizes[idx]}")
        hom = {}
        for a, i in enumerate(sizes):
            for b, j in enumerate(sizes):
                want = min(i, j) - max(0, i + j - n)
                got = rep.hom_matrix[a][b]
                _expect(got == want, f"stable hom J{i} -> J{j}: {got}, want {want}")
                hom[f"J{i}->J{j}"] = got
        return {"count": rep.count, "zero": zero, "stable_hom": hom}


WORKLOADS = {
    "tilde-cli": lambda seed, workdir: TildeCli(seed, workdir),
    "kx5-q": lambda seed, workdir: TruncatedSkeleton(seed, None),
    "kx5-f101": lambda seed, workdir: TruncatedSkeleton(seed, 101),
}


def prepare(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)

"""Syzygies of uniserials over cyclic Nakayama algebras, against the closed
form.

Over the cyclic Nakayama algebra with Kupisch series (l_0, ..., l_{n-1}),
M(i, l) = P(i)/rad^l P(i), and for l < l_i its syzygy is rad^l P(i), that
is M(i + l, l_i - l) with i + l read mod n (Auslander-Reiten-Smalo, ch.
VI); M(i, l_i) = P(i) is projective.  A non-projective uniserial is
indecomposable, so two of them lie in one stable class exactly when they
are isomorphic, and the orbit of (i, l) under this map gives every
``pd_certificate``.  The syzygy comes out with the matrices of M(i + l,
l_i - l) itself, so it is compared with that module in a monomial change
of basis: where the matrices then differ (about half of the syzygies),
only an invertible Hom basis map certifies the isomorphism.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from singcat.exact_linalg import prime_field, rational_field
from singcat.homology import pd_certificate, syzygy
from singcat.homspace import is_isomorphic
from singcat.quiver_algebra import nakayama_cyclic

from builders import twisted, uniserial


def _series() -> list[tuple[int, ...]]:
    """Admissible series with n <= 3 and lengths 2-4, one per rotation
    class: l_{i+1} >= l_i - 1 cyclically."""
    out = []
    for n in (1, 2, 3):
        for ks in product(range(2, 5), repeat=n):
            if all(ks[(i + 1) % n] >= ks[i] - 1 for i in range(n)) and \
                    ks == min(ks[r:] + ks[:r] for r in range(n)):
                out.append(ks)
    return out


def _closed_certificate(ks, i: int, l: int) -> tuple:
    """(status, pd or preperiod, period) of M(i, l) by the closed form."""
    orbit = []
    while (i, l) not in orbit:
        if l == ks[i]:
            return "finite", len(orbit), None
        orbit.append((i, l))
        i, l = (i + l) % len(ks), ks[i] - l
    t = orbit.index((i, l))
    return "infinite_periodic", t, len(orbit) - t


@pytest.mark.parametrize("fld", [rational_field(), prime_field(101)],
                         ids=["Q", "F101"])
def test_uniserial_syzygies_match_the_closed_form(fld):
    seen = set()
    rng = random.Random(5)
    for ks in _series():
        alg = nakayama_cyclic(ks, fld)
        n = len(ks)
        for i in range(n):
            for l in range(1, ks[i] + 1):
                M = uniserial(alg, i, l)
                K = syzygy(M)
                if l == ks[i]:
                    assert K.total_dim == 0
                else:
                    want = twisted(uniserial(alg, (i + l) % n, ks[i] - l),
                                   rng)
                    assert is_isomorphic(K, want) is True
                cert = pd_certificate(M, sum(ks))
                status, k, period = _closed_certificate(ks, i, l)
                assert cert.status == status
                if status == "finite":
                    assert cert.n == k
                else:
                    assert (cert.preperiod, cert.period) == (k, period)
                seen.add((status, k > 0))
    assert seen == {("finite", False), ("finite", True),
                    ("infinite_periodic", False),
                    ("infinite_periodic", True)}

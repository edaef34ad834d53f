"""Eta's preservation certificates come out of the carry's re-validation.

``complete_structured`` re-validates every carried table along the
quasi-inverse of the inclusion of the representatives.  Where eta equals
that quasi-inverse, the certificate the re-validation returns is eta's, and
eta's preservation is not decided again; otherwise the kind's ``preserves``
decides it.  Either way the certificate must be the one ``preserves`` gives.
"""
import sys

from catkit import limits
from catkit.completion import inflate, skeletize, skeleton_inclusion
from catkit.core import functors_equal
from catkit.generators import (
    chain_poset,
    delooping,
    finset_fragment,
    heyting_category,
    heyting_chain,
    heyting_diamond,
    hvalued_sets,
)
from catkit.lifting import KINDS, complete_structured

# Z/3 with its unit listed last: eta equals the quasi-inverse, and some of
# the carried pullbacks image onto the chosen ones only up to an automorphism
Z3 = delooping([[1, 2, 0], [2, 0, 1], [0, 1, 2]], name="z3")
# a non-gaunt skeleton: inflating it gives an eta other than the quasi-inverse
HVALUED = skeletize(hvalued_sets(heyting_chain(2), max_carrier=2)).completed


def _inputs():
    return {
        "chain3": inflate(chain_poset(3), [2, 1, 2])[0],
        "chain4": inflate(chain_poset(4), [1, 2, 2, 3])[0],
        "diamond": inflate(heyting_category(heyting_diamond()), 2)[0],
        "finset3": inflate(finset_fragment(3), [1, 1, 2, 1])[0],
        "hvalued": inflate(HVALUED, [3, 2, 2])[0],
        "z3": inflate(Z3, 2)[0],
    }


def _eta_is_back(sc) -> bool:
    return functors_equal(sc.result.eta, skeleton_inclusion(sc.result).quasi_inverse)


def _comparisons(cert) -> dict:
    """A certificate's comparisons as (fwd, inv) pairs, keyed as its table."""
    if hasattr(cert, "mu"):
        return {key: (iso.fwd, iso.inv) for key, iso in cert.mu.items()}
    if isinstance(cert.comparison, dict):
        return {key: (iso.fwd, iso.inv) for key, iso in cert.comparison.items()}
    return {(): (cert.comparison.fwd, cert.comparison.inv)}


def test_eta_certificates_equal_the_direct_decision():
    non_identity, fallback = set(), set()
    for name, C in _inputs().items():
        sc = complete_structured(C)
        eta, D = sc.result.eta, sc.result.completed
        if not _eta_is_back(sc):
            fallback.add(name)
        direct: dict[str, object] = {}
        for kind in sc.kinds:
            direct[kind] = KINDS[kind].preserves(eta, sc.source, sc.completed, direct)
            got, want = sc.eta_certs[kind], direct[kind]
            assert got.functor is eta, (name, kind)
            assert _comparisons(got) == _comparisons(want), (name, kind)
            if any(not D.is_identity(fwd) for fwd, _ in _comparisons(got).values()):
                non_identity.add((name, _eta_is_back(sc)))
    assert fallback == {"hvalued"}
    # a comparison other than the identity, from the re-validation and from
    # the fallback
    assert ("z3", True) in non_identity and ("hvalued", False) in non_identity


def _preserves_calls(monkeypatch) -> list:
    """Wrap limits.preserves wherever a catkit module holds it; returns the
    list of functors it will have been called with."""
    seen = []
    real = limits.preserves

    def wrapped(shape, F, *args):
        seen.append(F)
        return real(shape, F, *args)

    for mod in [m for n, m in sys.modules.items() if n == "catkit" or n.startswith("catkit.")]:
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, wrapped)
    return seen


def test_no_preservation_walk_receives_eta_when_it_equals_the_quasi_inverse(monkeypatch):
    """No limits.preserves call gets eta when eta equals the quasi-inverse;
    the fallback does call it.  The classifier is left out: its carry
    searches the target rather than re-validating along the quasi-inverse,
    so eta's preservation of it is decided by its comparison, through the
    terminal's."""
    inputs = _inputs()
    seen = _preserves_calls(monkeypatch)
    for name, kinds in (("chain3", None), ("chain4", None), ("diamond", None), ("z3", None),
                        ("hvalued", ("terminal", "equalizers"))):
        seen.clear()
        sc = complete_structured(inputs[name], kinds)
        assert "classifier" not in sc.kinds
        got_eta = any(F is sc.result.eta for F in seen)
        assert seen and got_eta == (not _eta_is_back(sc)), name

"""Every preservation certificate of a structured pipeline keeps its
comparisons.

On a corpus of non-skeletal inputs that carry every kind between them
(an inflated chain, an inflated Heyting diamond, an inflated codiscrete
pair, an inflated finset fragment of 2 and inflations of
``random_category(0..11)``), ``complete_structured(C)`` is run with every
findable kind, and ``factor_structured`` twice: once with F = eta, the
unit route, and once with the identity of C into C itself, a target with
other tables than the completion's.  For every entry of ``eta_certs``,
``functor_certs`` and ``lifted_certs``, its class, its comparisons by
``completion_helpers.cert_comparisons`` and, where it holds one, its target
table are pinned in ``preservation_certs_pinned.json``; a refusal is
pinned as its class and message.

Running this file as a script prints the corpus's current outcomes as
JSON.  Regenerate the pinned file only for a deliberate change of output.
"""
import json
import sys
from collections.abc import Mapping
from functools import cache
from pathlib import Path

import pytest

from catkit.completion import inflate
from catkit.core import identity_functor
from catkit.errors import CatkitError
from catkit.generators import (
    chain_poset,
    finset_fragment,
    heyting_category,
    heyting_diamond,
    random_category,
    setoid_groupoid,
)
from catkit.lifting import complete_structured, factor_structured

from completion_helpers import cert_comparisons

PINNED = Path(__file__).resolve().parent / "preservation_certs_pinned.json"

# every target here is an inflation, so no factorization through it is rigid
pytestmark = pytest.mark.filterwarnings("ignore:target")


def corpus():
    out = [
        ("chain4", inflate(chain_poset(4), [1, 2, 2, 3])[0]),
        ("heyting-diamond", inflate(heyting_category(heyting_diamond()), 2)[0]),
        ("codiscrete2", inflate(setoid_groupoid(2, {(0, 1)}), [2, 1])[0]),
        ("finset2", inflate(finset_fragment(2), [1, 1, 2])[0]),
    ]
    for i in range(12):
        C = random_category(i)
        out.append((f"random{i}", inflate(C, [1 + (x + i) % 2 for x in range(C.n_objects)])[0]))
    return out


def certs_outcome(certs: Mapping) -> dict:
    """Each certificate of certs as its class, its comparisons as sorted
    [key, fwd, inv] rows, and its target table as sorted [key, fields]
    rows, or None where it holds none."""
    out = {}
    for name, cert in certs.items():
        rows = sorted([list(key), fwd, inv] for key, (fwd, inv) in cert_comparisons(cert).items())
        target = getattr(cert, "target", None)
        table = None if target is None else sorted([list(k), list(w)] for k, w in target.items())
        out[name] = [type(cert).__name__, rows, table]
    return out


def refusal(e: CatkitError) -> list:
    return [type(e).__name__, str(e)]


def pipeline_outcome(C) -> dict:
    try:
        sc = complete_structured(C)
    except CatkitError as e:
        return {"complete": refusal(e)}
    out = {"kinds": list(sc.kinds), "eta_certs": certs_outcome(sc.eta_certs)}
    for route, F in (("eta", sc.result.eta), ("identity", identity_functor(C))):
        try:
            sf = factor_structured(sc, F)
        except CatkitError as e:
            out[route] = refusal(e)
            continue
        out[route] = {"functor_certs": certs_outcome(sf.functor_certs),
                      "lifted_certs": certs_outcome(sf.lifted_certs)}
    return out


def current_outcomes() -> dict:
    return {name: pipeline_outcome(C) for name, C in corpus()}


@cache
def _pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name,C", corpus(), ids=[name for name, _ in corpus()])
def test_the_certificates_are_pinned(name, C):
    assert pipeline_outcome(C) == _pinned()[name]


def test_the_corpus_carries_every_kind_and_both_routes():
    """The corpus exercises all seven kinds, and each factorization route
    reaches its lifts somewhere."""
    pinned = _pinned()
    kinds = {k for v in pinned.values() for k in v.get("kinds", ())}
    assert kinds == {"terminal", "products", "equalizers", "pullbacks", "exponentials",
                     "classifier", "pnno"}
    for route in ("eta", "identity"):
        assert any(isinstance(v.get(route), dict) and v[route]["lifted_certs"]
                   for v in pinned.values())


def dump(pinned: dict) -> str:
    """pinned as JSON with one line per input."""
    lines = [f" {json.dumps(name)}: {json.dumps(v, separators=(',', ':'))}"
             for name, v in pinned.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    sys.stdout.write(dump(current_outcomes()))

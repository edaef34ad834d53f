"""Each structure kind is declared once, in ``lifting.KINDS``: its verbs,
dependencies, CLI token, topos label and JSON block.  The CLI's token
tables and help texts, the topos labels, and both directions of the
structure codec are read from that record, so every kind must carry all of
it, no two kinds may share a token or a block, and each kind's block must
read back as the entry written.  Each verb takes only what it reads."""
import inspect

import pytest

from catkit import cli, limits
from catkit.completion import inflate
from catkit.generators import setoid_groupoid
from catkit.interchange import structure_from_json, structure_to_json
from catkit.lifting import (
    _BAG_KINDS,
    _LIMIT_KINDS,
    CHI,
    KIND_ORDER,
    KINDS,
    MORPHISM,
    OBJECT,
    TOPOS_KINDS,
    find_bag,
)


def _everything():
    """An inflated codiscrete pair: a degenerate finite topos, which carries
    every kind."""
    C = inflate(setoid_groupoid(2, {(0, 1)}, name="codisc2"), [2, 1])[0]
    bag = find_bag(C, KIND_ORDER)
    assert tuple(bag) == KIND_ORDER
    return C, bag


def test_every_kind_has_a_token_a_label_and_a_block():
    for name, kind in KINDS.items():
        assert kind.name == name
        assert isinstance(kind.token, str) and kind.token, name
        assert kind.topos is None or isinstance(kind.topos, str) and kind.topos, name
        block = kind.block
        assert block.path and all(isinstance(step, str) and step for step in block.path), name
        assert block.fields, name
        assert all(ref in (OBJECT, MORPHISM, CHI) for _, ref in block.fields), name
        names = [f for f, _ in block.fields]
        # a bare label has one field and no key; every other field is named
        assert names == [None] and block.key == 0 or all(names), name
        assert len(set(names)) == len(names), name
        assert 0 <= block.key <= len(names), name
    assert [k for k in KIND_ORDER if KINDS[k].topos] == list(TOPOS_KINDS)


def _parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_each_preserves_and_lift_takes_only_what_it_reads():
    """A bag kind's preserves takes the functor and the bags at its two
    ends; every lift takes the equivalence, F, H and alpha, then the
    carried and target entries, or bags, that its preserves reads."""
    verbs = [(limits, suffix) for _, suffix, *_ in _LIMIT_KINDS]
    for _, _, module, suffix, *_ in _BAG_KINDS:
        assert _parameters(getattr(module, "preserves_" + suffix)) == ["F", "src", "dst"], suffix
        verbs.append((module, suffix))
    assert len(verbs) == len(KINDS)
    for module, suffix in verbs:
        assert len(_parameters(getattr(module, "lift_preservation_" + suffix))) == 6, suffix


def test_tokens_and_block_paths_are_unique():
    tokens = [kind.token for kind in KINDS.values()]
    paths = [kind.block.path for kind in KINDS.values()]
    assert len(set(tokens)) == len(tokens)
    assert len(set(paths)) == len(paths)
    # no block sits inside another
    for p in paths:
        for q in paths:
            assert p == q or q[:len(p)] != p, (p, q)


def test_the_cli_tables_and_help_come_from_the_registry(capsys):
    assert cli.KIND_TO_TOKEN == {name: kind.token for name, kind in KINDS.items()}
    assert cli.TOKEN_TO_KIND == {kind.token: name for name, kind in KINDS.items()}
    assert list(cli.TOKEN_TO_KIND.values()) == list(KIND_ORDER)
    for command in ("analyze", "factor"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        # argparse breaks a long help word across lines
        help_text = "".join(capsys.readouterr().out.split())
        assert "comma-separated:" + ",".join(kind.token for kind in KINDS.values()) in help_text


@pytest.mark.parametrize("name", KIND_ORDER)
def test_each_kind_alone_reads_back_as_written(name):
    C, bag = _everything()
    alone = {name: bag[name]}
    doc = structure_to_json(C, alone)
    *parents, last = KINDS[name].block.path
    node = doc
    for step in parents:
        assert list(node) == [step]
        node = node[step]
    assert list(node) == [last]
    assert structure_from_json(doc, C) == alone

"""Record semantics: value equality and hashing, index order and
arithmetic, immutability, and the verifier setup's dataclass interface;
and guards that no other record is a dataclass and that every slotted
record is a named tuple but the four that compute fields when built."""
import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import gda
from gda import (
    ZERO_INDEX,
    ClosureHypothesis,
    Condition,
    DiffKind,
    DiffLaws,
    Factor,
    GeneratorSymbol,
    Index,
    IndexBounds,
    Monomial,
    SignMode,
    SymbolRegistry,
    Term,
    VerificationReport,
    VerifierSetup,
    corner_model,
    derive_tree,
    load_session,
    parse_text,
    standard_start,
)
from gda.dsl import Definition, GenStatement, SetStatement

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def _rhs():
    a = Factor(GeneratorSymbol("a", Index(1, 0, 0)))
    return Term.from_monomial(Monomial((a, a)))


# (build one value, build a value that differs from it in one field)
VALUE_RECORDS = {
    "Index": (lambda: Index(1, -2, 3), lambda: Index(1, -2, 4)),
    "GeneratorSymbol": (
        lambda: GeneratorSymbol("a", Index(1, 0, 0), frozenset({"dclosed"})),
        lambda: GeneratorSymbol("a", Index(1, 0, 0)),
    ),
    "DiffLaws": (lambda: DiffLaws(True, False), lambda: DiffLaws(True, True)),
    "IndexBounds": (lambda: IndexBounds(n_min=0, kappa_max=2), lambda: IndexBounds(n_min=0)),
    "Condition": (
        lambda: Condition("(00)", Term.zero(), _rhs(), ZERO_INDEX),
        lambda: Condition("(0)", Term.zero(), _rhs(), ZERO_INDEX),
    ),
    "ClosureHypothesis": (
        lambda: ClosureHypothesis("a|a|a|D", ("a", "a", "a"), 0, _rhs()),
        lambda: ClosureHypothesis("a|a|a|D", ("a", "a", "a"), 1, _rhs()),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_value(name):
    make, other = VALUE_RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != other() and not first == other()
    assert len({first, second, other()}) == 2


def test_statements_compare_without_their_location():
    (parsed,) = parse_text("\n\n  gen a index (1,0,0) flags [dclosed];")
    assert (parsed.line, parsed.column) == (3, 3)
    built = GenStatement("a", Index(1, 0, 0), ("dclosed",))
    assert (built.line, built.column) == (0, 0)
    assert parsed == built and not parsed != built
    assert hash(parsed) == hash(built)
    assert parsed != GenStatement("a", Index(1, 0, 0))
    (setting,) = parse_text("set d Delta;")
    assert setting == SetStatement("d", "Delta")
    assert hash(setting) == hash(SetStatement("d", "Delta"))


def test_statements_of_different_kinds_differ():
    # same field values, different statement
    assert Definition("class", "X", ("p",), ("a",)) != Definition("completion", "X", ("p",), ("a",))


def test_index_order_and_arithmetic():
    assert Index(0, 5, 5) < Index(1, 0, 0) < Index(1, 0, 1)
    assert sorted([Index(1, 0, 0), Index(-1, 2, 0), Index(1, -1, 3)]) == [
        Index(-1, 2, 0), Index(1, -1, 3), Index(1, 0, 0)
    ]
    total = Index(1, 2, 3) + Index(1, -1, 1)
    assert total == Index(2, 1, 4) and type(total) is Index
    diff = Index(1, 2, 3) - Index(1, -1, 1)
    assert diff == Index(0, 3, 2) and type(diff) is Index
    assert Index(1, 2, 3).shifted(DiffKind.delta) == Index(2, 1, 3)
    assert Index(1, 2, 3).shifted(DiffKind.Delta) == Index(1, 2, 4)
    assert str(Index(-1, 0, 2)) == "(-1,0,2)"


def _immutable_cases():
    sym = GeneratorSymbol("a", Index(1, 0, 0))
    factor = Factor(sym, (DiffKind.delta,))
    (statement,) = parse_text("gen a index (1,0,0);")
    session = load_session(SESSIONS / "invariant_class.gda")
    tree = derive_tree(standard_start("(00)", SymbolRegistry()), depth=2)
    return [
        (Index(1, 0, 0), "n"),
        (sym, "name"),
        (factor, "diffs"),
        (Monomial((factor,)), "factors"),
        (corner_model(), "k"),
        (statement, "line"),
        (statement, "name"),
        (VerificationReport("check", "ok", Term.zero(), []), "status"),
        (session.closure_set(), "conditions"),
        (session, "setup"),
        (tree, "nodes"),
        (tree.nodes[0], "note"),
    ]


@pytest.mark.parametrize("case", range(len(_immutable_cases())))
def test_records_refuse_attribute_assignment(case):
    record, attr = _immutable_cases()[case]
    before = getattr(record, attr)
    with pytest.raises(AttributeError):
        setattr(record, attr, before)
    assert getattr(record, attr) == before


@pytest.mark.parametrize("case", range(len(_immutable_cases())))
def test_records_survive_copy_and_pickle(case):
    record, attr = _immutable_cases()[case]
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert getattr(clone, attr) == getattr(record, attr)


def test_verifier_setup_supports_dataclass_replace():
    setup = dataclasses.replace(VerifierSetup(), sign=SignMode.koszul)
    assert setup.sign is SignMode.koszul
    assert setup == VerifierSetup(sign=SignMode.koszul)
    assert setup.d is DiffKind.delta and setup.laws == DiffLaws()


def _classes():
    """(qualified name, class) of every class defined in a gda module."""
    for info in pkgutil.iter_modules(gda.__path__):
        module = importlib.import_module(f"gda.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_verifier_setup_is_the_only_dataclass():
    # records are named tuples, which Python builds without generating
    # code at import; see README "Start-up"
    found = {name for name, cls in _classes() if dataclasses.is_dataclass(cls)}
    assert found == {"gda.verifier.VerifierSetup"}


def test_slotted_classes_are_named_tuples_but_four():
    # these compute or share fields when built; every other record is a
    # named tuple, so no field is rebound once the record exists
    found = {
        name for name, cls in _classes()
        if "__slots__" in vars(cls) and not issubclass(cls, tuple)
    }
    assert found == {"gda.terms.Factor", "gda.terms.Monomial", "gda.terms.Term", "gda.model.Model"}

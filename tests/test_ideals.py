"""Vanishing ideals and the factorization move catalogue."""
import pytest

from gda import (
    DEFAULT_LAWS,
    DiffKind,
    DiffLaws,
    Factor,
    GdaError,
    IdealError,
    IdealKind,
    IdealRegistry,
    Index,
    Monomial,
    SymbolRegistry,
    Term,
    add,
    factorization_moves,
    normalize,
    render_term,
)

D = DiffKind.delta


@pytest.fixture
def reg():
    r = SymbolRegistry()
    r.declare("a", Index(1, 0, 0))
    r.declare("b", Index(0, 1, 0))
    r.declare("c", Index(0, 0, 1))
    return r


def fac(reg, name, *diffs):
    return Factor(reg.get(name), tuple(diffs))


def test_nonlocal2_kills_any_repeat(reg):
    ir = IdealRegistry()
    ir.register(IdealKind.nonlocal2, fac(reg, "a", D), DEFAULT_LAWS)
    gap = Monomial((fac(reg, "a", D), fac(reg, "b"), fac(reg, "a", D)))
    assert ir.monomial_vanishes(gap) == "ideal:nonlocal2"
    single = Monomial((fac(reg, "a", D), fac(reg, "b")))
    assert ir.monomial_vanishes(single) is None


def test_local2_needs_adjacency(reg):
    ir = IdealRegistry()
    ir.register(IdealKind.local2, fac(reg, "a", D), DEFAULT_LAWS)
    adj = Monomial((fac(reg, "a", D), fac(reg, "a", D)))
    gap = Monomial((fac(reg, "a", D), fac(reg, "b"), fac(reg, "a", D)))
    assert ir.monomial_vanishes(adj) == "ideal:local2"
    assert ir.monomial_vanishes(gap) is None


def test_square2_is_per_member(reg):
    # square2 kills adjacent copies of one registered factor, not mixed pairs.
    ir = IdealRegistry()
    ir.register(IdealKind.square2, fac(reg, "a", D), DEFAULT_LAWS)
    ir.register(IdealKind.square2, fac(reg, "b"), DEFAULT_LAWS)
    assert ir.monomial_vanishes(Monomial((fac(reg, "a", D), fac(reg, "a", D))))
    assert ir.monomial_vanishes(Monomial((fac(reg, "a", D), fac(reg, "b")))) is None


def test_membership_and_listing(reg):
    ir = IdealRegistry()
    ir.register(IdealKind.nonlocal2, fac(reg, "a", D), DEFAULT_LAWS)
    assert ir.is_member(IdealKind.nonlocal2, fac(reg, "a", D))
    assert not ir.is_member(IdealKind.nonlocal2, fac(reg, "b"))
    assert not ir.is_member(IdealKind.local2, fac(reg, "a", D))


def test_reduce_with_trace_reports_each_deletion(reg):
    ir = IdealRegistry()
    ir.register(IdealKind.nonlocal2, fac(reg, "a", D), DEFAULT_LAWS)
    dead = Monomial((fac(reg, "a", D), fac(reg, "b"), fac(reg, "a", D)))
    alive = Monomial((fac(reg, "b"), fac(reg, "b"), fac(reg, "c")))
    term = add(Term.from_monomial(dead), Term.from_monomial(alive), strict=False)
    reduced, trace = ir.reduce_with_trace(term)
    assert reduced == Term.from_monomial(alive)
    assert [reason for reason, _ in trace] == ["ideal:nonlocal2"]
    assert trace[0][1] == dead


def test_verdicts_follow_new_members_and_other_laws(reg):
    # a member registered after a reduction deletes from then on; the laws
    # act in normalize, not in the registry, so the law set decides there
    ir = IdealRegistry()
    m = Monomial((fac(reg, "a", D), fac(reg, "b"), fac(reg, "a", D)))
    term = Term.from_monomial(m)
    assert ir.reduce_with_trace(term) == (term, [])
    ir.register(IdealKind.nonlocal2, fac(reg, "a", D), DEFAULT_LAWS)
    reduced, trace = ir.reduce_with_trace(term)
    assert reduced.is_zero
    assert trace == [("ideal:nonlocal2", m)]
    # d.D.d dies only once commuting sorts it to d.d.D
    stacked = Term.from_monomial(Monomial((fac(reg, "b", D, DiffKind.Delta, D),)))
    assert normalize(stacked, DiffLaws(commute=False)) == stacked
    assert normalize(stacked, DEFAULT_LAWS).is_zero


def test_reduce_applies_square_law(reg):
    # an adjacent chain-cochain repeat dies by law in normalize; the registry
    # reduces by membership only, so with no member the raw a.d.d survives it
    ir = IdealRegistry()
    term = Term.from_monomial(Monomial((fac(reg, "a", D, D), fac(reg, "b"))))
    assert ir.reduce_with_trace(term) == (term, [])
    assert normalize(term).is_zero


def test_register_refuses_a_pattern_the_laws_kill(reg):
    # such a member could never delete anything; the refusal is a GdaError
    ir = IdealRegistry()
    killed = r"^ideal pattern a\.d\.d is killed by the differential laws$"
    with pytest.raises(IdealError, match=killed):
        ir.register(IdealKind.nonlocal2, fac(reg, "a", D, D), DEFAULT_LAWS)
    assert issubclass(IdealError, GdaError)
    assert not ir.is_member(IdealKind.nonlocal2, fac(reg, "a", D, D))
    # alive without commuting, killed once d.D.d sorts to d.d.D
    stacked = fac(reg, "b", D, DiffKind.Delta, D)
    ir.register(IdealKind.square2, stacked, DiffLaws(commute=False))
    with pytest.raises(IdealError, match=r"^ideal pattern b\.d\.D\.d is killed"):
        ir.register(IdealKind.square2, stacked, DEFAULT_LAWS)


def test_moves_at_the_edges(reg):
    m = Monomial((fac(reg, "a", D), fac(reg, "b")))
    moves = factorization_moves(m, reg)
    assert [(mv.position, mv.variant) for mv in moves] == [(1, "right"), (2, "left")]
    first, second = moves
    # fresh index balances the resolved factor against its neighbour
    assert first.fresh.index == Index(2, -2, 0)
    assert second.fresh.index == Index(-2, 2, 0)
    assert render_term(Term.from_monomial(first.replacement)) == "(_f1, b)"
    assert render_term(Term.from_monomial(second.replacement)) == "(a.d, _f2)"


def test_interior_position_offers_three_variants(reg):
    m = Monomial((fac(reg, "a", D), fac(reg, "b"), fac(reg, "c")))
    moves = [mv for mv in factorization_moves(m, reg) if mv.position == 2]
    assert [mv.variant for mv in moves] == ["left", "right", "two-sided"]
    for mv in moves:
        assert mv.position == 2
        assert mv.resolved == fac(reg, "b")


def test_two_sided_fresh_subtracts_both_neighbours(reg):
    m = Monomial((fac(reg, "a"), fac(reg, "b"), fac(reg, "c")))
    two_sided = [
        mv for mv in factorization_moves(m, reg)
        if mv.position == 2 and mv.variant == "two-sided"
    ][0]
    expect = Index(0, 1, 0) - Index(1, 0, 0) - Index(0, 0, 1)
    assert two_sided.fresh.index == expect

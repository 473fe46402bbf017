"""Differential application, sign modes, and the slot variant."""
import random

import pytest

from gda import (
    DiffKind,
    DiffLaws,
    EpsilonMode,
    Factor,
    Index,
    Monomial,
    SignMode,
    SlotError,
    SymbolRegistry,
    Term,
    VerifierSetup,
    add,
    apply_differential,
    apply_slot_differential,
    build_class,
    classify_push,
    normalize,
    render_term,
    scale,
)

D = DiffKind.delta
DD = DiffKind.Delta


@pytest.fixture
def reg():
    return SymbolRegistry()


def two_factor(reg):
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    return Term.from_monomial(Monomial((Factor(a), Factor(b))))


def test_single_factor_differential(reg):
    a = reg.declare("a", Index(1, 0, 0))
    out = apply_differential(D, Term.from_factor(Factor(a)))
    assert render_term(out) == "(a.d)"


def test_product_rule_two_summands(reg):
    out = apply_differential(D, two_factor(reg))
    assert render_term(out) == "(a, b.d) + (a.d, b)"


def test_paper_literal_mode_double_differential_leaves_cross_term(reg):
    prod = two_factor(reg)
    out = apply_differential(D, apply_differential(D, prod))
    assert render_term(out) == "2*(a.d, b.d)"


def test_koszul_double_differential_vanishes(reg):
    prod = two_factor(reg)
    once = apply_differential(D, prod, SignMode.koszul)
    assert apply_differential(D, once, SignMode.koszul).is_zero


def test_koszul_squares_to_zero_on_random_terms(reg):
    rng = random.Random(7)
    gens = [
        reg.declare(f"g{i}", Index(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 1)))
        for i in range(6)
    ]
    stacks = [(), (D,), (DD,), (D, DD)]
    for _ in range(50):
        arity = rng.randint(1, 5)
        factors = tuple(Factor(rng.choice(gens), rng.choice(stacks)) for _ in range(arity))
        term = Term.from_monomial(Monomial(factors))
        once = apply_differential(D, term, SignMode.koszul)
        twice = apply_differential(D, once, SignMode.koszul)
        assert normalize(twice, DiffLaws()).is_zero, render_term(term)


def test_koszul_d_and_D_square_to_zero_and_commute(reg):
    # the running sign follows the degree the active differential moves
    # (n for d, kappa for D), so with D chain-cochain both differentials
    # square to zero on products and d D = D d
    laws = DiffLaws(Delta_chain_cochain=True)
    rng = random.Random(11)
    gens = [
        reg.declare(f"g{i}", Index(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 3)))
        for i in range(6)
    ]
    stacks = [(), (D,), (DD,), (D, DD)]

    def diff(kind, term):
        return apply_differential(kind, term, SignMode.koszul, laws)

    for _ in range(60):
        factors = tuple(Factor(rng.choice(gens), rng.choice(stacks)) for _ in range(3))
        term = Term.from_monomial(Monomial(factors))
        assert diff(D, diff(D, term)).is_zero, render_term(term)
        assert diff(DD, diff(DD, term)).is_zero, render_term(term)
        assert diff(D, diff(DD, term)) == diff(DD, diff(D, term)), render_term(term)


def test_differential_raises_index(reg):
    prod = two_factor(reg)
    out = apply_differential(D, prod)
    assert out.index() == prod.index() + Index(1, -1, 0)
    out2 = apply_differential(DD, prod)
    assert out2.index() == prod.index() + Index(0, 0, 1)


def test_classify_push_reasons(reg):
    a = reg.declare("a", Index(1, 0, 0))
    c = reg.declare("c", Index(0, 0, 0), ("dclosed",))
    assert classify_push(Factor(c), D) == (None, "closed")
    assert classify_push(Factor(a, (D,)), D) == (None, "square")
    pushed, reason = classify_push(Factor(a, (D, DD)), D)
    assert pushed is None and reason == "commute-square"
    pushed, reason = classify_push(Factor(a), D)
    assert reason is None and pushed.diffs == (D,)


def test_slot_differential_targets_named_positions(reg):
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    c = reg.declare("c", Index(0, 0, 1))
    m = Monomial((Factor(a), Factor(b), Factor(c)))
    only_second = apply_slot_differential(D, m, {2})
    assert render_term(only_second) == "(a, b.d, c)"
    both = apply_slot_differential(D, m, {1, 3})
    assert render_term(both) == "(a, b, c.d) + (a.d, b, c)"


def test_slot_differential_skips_vanishing_slots(reg):
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    m = Monomial((Factor(a, (D,)), Factor(b)))
    # slot 1 already carries d, so only slot 2 survives
    out = apply_slot_differential(D, m, {1, 2})
    assert render_term(out) == "(a.d, b.d)"


def test_slot_differential_rejects_out_of_range_slot(reg):
    (mono,) = two_factor(reg).monomials()
    for slot in (0, 3):
        with pytest.raises(SlotError):
            apply_slot_differential(D, mono, {1, slot})


@pytest.mark.parametrize("sign", list(SignMode))
def test_slot_differential_over_every_slot_is_the_full_differential(reg, sign):
    rng = random.Random(11)
    flag_sets = [(), ("dclosed",), ("Dclosed",)]
    gens = [
        reg.declare(
            f"g{i}",
            Index(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 1)),
            rng.choice(flag_sets),
        )
        for i in range(6)
    ]
    stacks = [(), (D,), (DD,), (D, DD)]
    for _ in range(60):
        arity = rng.randint(1, 5)
        mono = Monomial(tuple(Factor(rng.choice(gens), rng.choice(stacks)) for _ in range(arity)))
        for kind in (D, DD):
            full = apply_differential(kind, Term.from_monomial(mono), sign)
            every = apply_slot_differential(kind, mono, set(range(1, arity + 1)), sign)
            assert every == full, str(mono)


def test_epsilon_pair_and_drop(reg):
    comps = tuple(Factor(reg.declare(f"P{i}", Index(0, 0, 0))) for i in range(1, 5))
    x = Factor(reg.declare("x", Index(0, 1, 0)))
    laws = DiffLaws(Delta_chain_cochain=True)
    pair = VerifierSetup(epsilon_mode=EpsilonMode.pair, laws=laws)
    drop = VerifierSetup(epsilon_mode=EpsilonMode.drop, laws=laws)
    paired = build_class(x, comps, pair)
    assert render_term(paired) == "(P1, x.d.D, P2, x.d, P3, x, P4)"
    dropped = build_class(x, comps, drop)
    assert render_term(dropped) == "(P1, P2, x.d, P3, x, P4)"
    for term, slots in ((paired, (1, 3, 5, 7)), (dropped, (1, 2, 4, 6))):
        factors = term.monomials()[0].factors
        assert [str(factors[pos - 1]) for pos in slots] == ["P1", "P2", "P3", "P4"]
    # in pair mode a zero first content absorbs the whole product: the
    # first content of x.D is x.d.D.D, which a chain-cochain D kills
    xD = Factor(x.generator, (DD,))
    assert build_class(xD, comps, pair).is_zero
    assert render_term(build_class(xD, comps, drop)) == "(P1, P2, x.d.D, P3, x.D, P4)"


def test_sum_linearity(reg):
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(1, 0, 0))
    s = add(Term.from_factor(Factor(a)), scale(3, Term.from_factor(Factor(b))))
    out = apply_differential(D, s)
    expect = add(
        apply_differential(D, Term.from_factor(Factor(a))),
        apply_differential(D, scale(3, Term.from_factor(Factor(b)))),
    )
    assert out == expect

"""Finite exterior-algebra models used for numeric spot checks."""
import random
from fractions import Fraction

import pytest

from gda import (
    AssignmentError,
    DiffKind,
    Factor,
    Index,
    ModelError,
    Monomial,
    SymbolRegistry,
    Term,
    apply_differential,
    build_model,
    corner_model,
    derive_element,
    evaluate,
    kernel_basis,
    raising_model,
    random_element,
    random_kernel_element,
    wedge,
)
from gda.model import random_in_span

D = DiffKind.delta
DD = DiffKind.Delta


def test_corner_model_shape():
    m = corner_model()
    assert (m.k, m.field) == (4, "gf2")
    assert len(m.basis) == 16
    assert set(m.tables) == {D, DD}


def test_raising_model_only_defines_delta():
    m = raising_model()
    assert (m.k, m.field) == (4, "q")
    assert set(m.tables) == {D}


def test_wedge_antisymmetry_over_q():
    assert wedge("q", {1: Fraction(1)}, {2: Fraction(1)}) == {3: Fraction(1)}
    assert wedge("q", {2: Fraction(1)}, {1: Fraction(1)}) == {3: Fraction(-1)}


def test_wedge_kills_repeated_coordinates():
    assert wedge("q", {3: Fraction(1)}, {1: Fraction(1)}) == {}
    assert wedge("gf2", {3: Fraction(1)}, {3: Fraction(1)}) == {}


def test_wedge_gf2_reduces_mod_two():
    out = wedge("gf2", {1: Fraction(1)}, {2: Fraction(3)})
    assert out == {3: Fraction(1)}
    assert wedge("gf2", {1: Fraction(2)}, {2: Fraction(1)}) == {}


def test_derive_element_follows_table():
    m = corner_model()
    assert derive_element(m, D, {1: Fraction(1), 4: Fraction(1)}) == {
        2: Fraction(1),
        8: Fraction(1),
    }


def _combine(field_name, *signed):
    # sum of (sign, element) pairs in the field, zero entries dropped
    total = {}
    for sign, element in signed:
        for bits, c in element.items():
            total[bits] = total.get(bits, 0) + sign * c
    if field_name == "gf2":
        return {bits: 1 for bits, c in total.items() if Fraction(c).numerator % 2}
    return {bits: c for bits, c in total.items() if c}


def test_derive_element_is_an_odd_derivation():
    # graded rule d(a b) = da b + (-1)^|a| a db, with no sign over gf2,
    # and d(d(a b)) = 0, over random homogeneous a and b
    rng = random.Random(5)
    nonzero = 0
    for m in (corner_model(), raising_model()):
        for kind in m.tables:
            for _ in range(40):
                pa, pb = rng.randint(0, 1), rng.randint(0, 1)
                a, b = random_element(m, rng, pa), random_element(m, rng, pb)
                ab = wedge(m.field, a, b)
                left = derive_element(m, kind, ab)
                sign = -1 if m.field == "q" and pa else 1
                right = _combine(
                    m.field,
                    (1, wedge(m.field, derive_element(m, kind, a), b)),
                    (sign, wedge(m.field, a, derive_element(m, kind, b))),
                )
                assert left == right, (kind, a, b)
                assert derive_element(m, kind, left) == {}
                nonzero += bool(left)
    assert nonzero > 40


def _weighted_model():
    # pivots of 2 and 3, so kernel vectors carry a non-integral coefficient
    return build_model(4, "q", {D: {1: {6: 2}, 8: {6: 3}}})


@pytest.mark.parametrize("make", [corner_model, raising_model, _weighted_model])
def test_model_values_are_exact(make):
    m = make()
    rng = random.Random(17)
    reg = SymbolRegistry()
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    stacks = [()] + [(kind,) for kind in m.tables]
    seen = []
    for parity in (None, 0, 1):
        for kind in m.tables:
            basis = kernel_basis(m, kind, parity)
            seen += basis
            seen.append(random_in_span(m, basis, rng))
            seen.append(random_kernel_element(m, kind, rng, parity))
    for _ in range(30):
        x, y = random_element(m, rng), random_element(m, rng, rng.randint(0, 1))
        seen += [x, y, wedge(m.field, x, y)]
        seen += [derive_element(m, kind, x) for kind in m.tables]
        coeff = Fraction(rng.choice([1, -2, 3])) if m.field == "gf2" else Fraction(rng.randint(-3, 3), 2)
        term = Term.from_monomial(
            Monomial((Factor(a, rng.choice(stacks)), Factor(b, rng.choice(stacks)))), coeff
        )
        seen.append(evaluate(term, m, {"a": x, "b": y}))
    values = [c for element in seen for c in element.values()]
    assert values
    assert all(type(c) in (int, Fraction) for c in values), {type(c) for c in values}
    if m.field == "gf2":
        assert set(values) == {1}
    if make is _weighted_model:
        assert any(type(c) is Fraction for c in values)


def test_evaluate_rejects_half_coefficient_over_gf2():
    m = corner_model()
    reg = SymbolRegistry()
    a = reg.declare("a", Index(1, 0, 0))
    term = Term.from_factor(Factor(a), Fraction(1, 2))
    with pytest.raises(ModelError, match="even denominator"):
        evaluate(term, m, {"a": {1: 1}})
    # the coefficient is checked even when the monomial's value is zero
    with pytest.raises(ModelError, match="even denominator"):
        evaluate(term, m, {"a": {}})


def test_kernel_basis_returns_fresh_copies():
    m = raising_model()
    first = kernel_basis(m, D, 1)
    expected = [dict(v) for v in first]
    first[0][1] = 99
    first.append({2: 1})
    assert kernel_basis(m, D, 1) == expected


def test_build_model_rejects_parity_lowering_q_table():
    # over the rationals every table entry must move to opposite parity
    with pytest.raises(ModelError):
        build_model(2, "q", {D: {1: {2: Fraction(1), 3: Fraction(1)}}})


def test_build_model_rejects_non_square_zero_table():
    with pytest.raises(ModelError):
        build_model(2, "q", {D: {1: {2: Fraction(1)}, 2: {1: Fraction(1)}}})


def test_build_model_checks_commutation():
    tables = {
        D: {1: {2: Fraction(1)}},
        DD: {1: {3: Fraction(1)}},
    }
    with pytest.raises(ModelError):
        build_model(2, "q", tables)


def test_evaluate_monomial_wedges_factors():
    m = corner_model()
    reg = SymbolRegistry()
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    term = Term.from_monomial(Monomial((Factor(a), Factor(b))))
    out = evaluate(term, m, {"a": {1: Fraction(1)}, "b": {2: Fraction(1)}})
    assert out == {3: Fraction(1)}


def test_evaluate_applies_stacked_differentials():
    m = corner_model()
    reg = SymbolRegistry()
    a = reg.declare("a", Index(1, 0, 0))
    term = Term.from_factor(Factor(a, (D,)))
    assert evaluate(term, m, {"a": {1: Fraction(1)}}) == {2: Fraction(1)}


def test_evaluate_requires_assignment_and_table():
    m = raising_model()
    reg = SymbolRegistry()
    a = reg.declare("a", Index(1, 0, 0))
    with pytest.raises(AssignmentError):
        evaluate(Term.from_factor(Factor(a)), m, {})
    with pytest.raises(ModelError):
        evaluate(Term.from_factor(Factor(a, (DD,))), m, {"a": {1: Fraction(1)}})


def test_derive_element_rejects_masks_outside_the_algebra():
    with pytest.raises(ModelError, match="mask 16 outside the algebra"):
        derive_element(corner_model(), D, {16: 1})


def test_kernel_basis_is_killed_by_the_differential():
    m = corner_model()
    for e in kernel_basis(m, D):
        assert derive_element(m, D, e) == {}
    for e in kernel_basis(m, DD):
        assert derive_element(m, DD, e) == {}


def test_random_kernel_element_stays_in_kernel():
    m = corner_model()
    rng = random.Random(11)
    for _ in range(10):
        e = random_kernel_element(m, D, rng)
        assert derive_element(m, D, e) == {}


def test_random_element_parity_filter():
    m = raising_model()
    rng = random.Random(3)
    for parity in (0, 1):
        e = random_element(m, rng, parity)
        for bits in e:
            assert bin(bits).count("1") % 2 == parity


@pytest.mark.parametrize("parity", [None, 0, 1])
@pytest.mark.parametrize("make_model", [corner_model, raising_model])
def test_random_element_draws_what_randint_draws(make_model, parity):
    # seeded trials stay as they were: the same coefficients, in mask
    # order, and the generator left in the same state
    m = make_model()
    low, high = (0, 1) if m.field == "gf2" else (-3, 3)
    for seed in range(60):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(3):
            expected = {}
            for mask in m.masks[parity]:
                c = twin.randint(low, high)
                if c:
                    expected[mask] = c
            assert list(random_element(m, rng, parity).items()) == list(expected.items())
        assert rng.random() == twin.random()


def test_check_identity_and_product_rule_in_model():
    m = corner_model()
    reg = SymbolRegistry()
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    term = Term.from_monomial(Monomial((Factor(a), Factor(b))))
    assignment = {"a": {1: Fraction(1)}, "b": {4: Fraction(1)}}
    symbolic = apply_differential(D, term)
    lhs_val = evaluate(symbolic, m, assignment)
    rhs_val = derive_element(m, D, evaluate(term, m, assignment))
    assert lhs_val == rhs_val

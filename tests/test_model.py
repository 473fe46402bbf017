"""Finite exterior-algebra models used for numeric spot checks."""
import copy
import functools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gda.model
from gda import (
    AssignmentError,
    DiffKind,
    Factor,
    Index,
    ModelError,
    Monomial,
    SignMode,
    SymbolRegistry,
    Term,
    apply_differential,
    build_model,
    corner_model,
    derivation_holds,
    derive_element,
    evaluate,
    kernel_basis,
    raising_model,
    random_element,
    random_kernel_element,
    wedge,
)
from gda.model import _coeff, _evaluate_bits, _reduced, random_in_span

D = DiffKind.delta
DD = DiffKind.Delta


def test_corner_model_shape():
    m = corner_model()
    assert (m.k, m.field) == (4, "gf2")
    assert m.masks[None] == list(range(16))
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


def test_build_model_rejects_a_negative_table_key():
    # (-1).bit_count() is 1, so the bitmask test alone let -1 through to
    # a bare KeyError
    for field_name in ("q", "gf2"):
        with pytest.raises(ModelError, match="^table key -1 is not a generator bitmask$"):
            build_model(2, field_name, {D: {-1: {3: 1}}})


def test_build_model_rejects_a_negative_image_mask():
    # over the rationals -1 was reported as an odd-degree component
    for field_name in ("q", "gf2"):
        with pytest.raises(ModelError, match="^image mask -1 outside the algebra$"):
            build_model(2, field_name, {D: {1: {-1: 1}}})


@pytest.mark.parametrize("field_name", ["q", "gf2"])
def test_model_coefficients_are_int_or_fraction(field_name):
    # a float built a rational model whose images held it, and over the
    # two-element field ended in an AttributeError
    message = "^model coefficients must be int or Fraction, not float$"
    with pytest.raises(TypeError, match=message):
        build_model(2, field_name, {D: {1: {3: 1.5}}})
    with pytest.raises(TypeError, match=message):
        _coeff(field_name, 1.5)
    # an int subclass or an integral Fraction is an int
    assert [type(_coeff(field_name, c)) for c in (True, Fraction(4, 2))] == [int, int]


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


def test_masks_outside_the_algebra_raise_model_errors():
    # a negative mask would index the derivation images from the end, and
    # a mask past the crossing table would end in a raw IndexError
    with pytest.raises(ModelError, match="mask -1 outside the algebra"):
        derive_element(corner_model(), D, {-1: 1})
    with pytest.raises(ModelError, match="mask 64 outside the algebra"):
        wedge("q", {64: 1}, {1: 1})
    with pytest.raises(ModelError, match="mask 64 outside the algebra"):
        wedge("q", {1: 1}, {64: 1})
    # a negative mask, or one past the largest algebra, in either field
    # and on either side, even where it shares a generator with the other
    for field_name in ("q", "gf2"):
        for a, b, bad in [
            ({64: 1}, {1: 1}, 64), ({1: 1}, {65: 1}, 65),
            ({-2: 1}, {1: 1}, -2), ({1: 1}, {-1: 1}, -1),
        ]:
            with pytest.raises(ModelError, match=f"element mask {bad} outside the algebra"):
                wedge(field_name, a, b)


@pytest.mark.parametrize("parity", [None, 0, 1])
@pytest.mark.parametrize("make_model", [corner_model, raising_model])
def test_span_draws_are_what_randint_draws(make_model, parity):
    # one randint(low, high) per basis vector, in basis order, and the
    # generator left in the same state
    m = make_model()
    low, high = (0, 1) if m.field == "gf2" else (-2, 2)
    for kind in m.tables:
        basis = kernel_basis(m, kind, parity)
        for seed in range(30):
            for draw in (
                lambda rng: random_in_span(m, basis, rng),
                lambda rng: random_kernel_element(m, kind, rng, parity),
            ):
                rng, twin = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    expected = _combine(m.field, *((twin.randint(low, high), vec) for vec in basis))
                    assert list(draw(rng).items()) == list(expected.items())
                assert rng.random() == twin.random()


def _reference_evaluate(term: Term, model, assignment):
    # the evaluator as it was before prefix products were shared: every
    # monomial multiplied from scratch, summands in term order
    field_name = model.field
    values: dict[tuple, dict] = {}
    acc: dict = {}
    for mono, coeff in term:
        product = {0: 1}
        for factor in mono.factors:
            key = (factor.generator.name, factor.diffs)
            v = values.get(key)
            if v is None:
                if key[0] not in assignment:
                    raise AssignmentError(f"no value assigned to {key[0]}")
                v = assignment[key[0]]
                for kind in factor.diffs:
                    v = derive_element(model, kind, v)
                values[key] = v
            if product:
                product = wedge(field_name, product, v)
        c = _coeff(field_name, coeff)
        if c:
            for m, v in product.items():
                acc[m] = acc.get(m, 0) + c * v
    return _reduced(field_name, acc)


_EVAL_REG = SymbolRegistry()
_EVAL_GENS = [_EVAL_REG.declare(name, Index(1, 0, 0)) for name in ("a", "b", "c")]
_EVAL_MODELS = {"gf2": corner_model(), "q": raising_model()}


@functools.cache
def _eval_strategies(big_delta: bool, even: bool):
    # factors, coefficients and elements: big_delta lets stacks hold a
    # Delta, even lets denominators be even
    stacks = [(), (D,)] + ([(DD,), (D, DD)] if big_delta else [])
    denominators = [1, 2, 3, 4] if even else [1, 3]
    coefficients = st.one_of(
        st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.sampled_from(denominators))
    )
    factors = st.builds(Factor, st.sampled_from(_EVAL_GENS), st.sampled_from(stacks))
    # an empty element makes a zero product
    elements = st.dictionaries(st.integers(0, 15), coefficients, max_size=8)
    return factors, coefficients, elements


@st.composite
def _evaluation_cases(draw):
    model = _EVAL_MODELS[draw(st.sampled_from(sorted(_EVAL_MODELS)))]
    # most cases have a value; the rest carry one fault evaluate reports:
    # a generator with no value, a stack with no table (only the rational
    # model lacks one) or an even denominator over the two-element field
    fault = draw(st.sampled_from([None, None, None, "generator", "table", "denominator"]))
    factors, coefficients, elements = _eval_strategies(
        model.field == "gf2" or fault == "table", model.field == "q" or fault == "denominator"
    )
    # monomials grown from a few shared stems, stored in drawn order
    stems = draw(st.lists(st.lists(factors, max_size=3), min_size=1, max_size=3))
    summands = {}
    for _ in range(draw(st.integers(1, 6))):
        stem = draw(st.sampled_from(stems))
        summands[Monomial(tuple(stem + draw(st.lists(factors, max_size=2))))] = draw(coefficients)
    assignment = {g.name: draw(elements) for g in _EVAL_GENS}
    if fault == "generator":
        for name in draw(st.sets(st.sampled_from(sorted(assignment)), min_size=1, max_size=2)):
            del assignment[name]
    return Term(summands), model, assignment


def _outcome(evaluator, term, model, assignment):
    try:
        value = evaluator(term, model, assignment)
    except (AssignmentError, ModelError) as exc:
        return type(exc), str(exc)
    return sorted((m, type(c), c) for m, c in value.items())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_evaluation_cases())
def test_evaluate_matches_the_reference_evaluator(case):
    term, model, assignment = case
    expected = _outcome(_reference_evaluate, term, model, assignment)
    assert _outcome(evaluate, term, model, assignment) == expected


def test_evaluate_names_the_first_missing_generator_in_term_order():
    a, b = _EVAL_GENS[:2]
    # stored b-first, but a's monomial comes first in term order
    term = Term({Monomial((Factor(b),)): 1, Monomial((Factor(a),)): 1})
    assert [m for m, _ in term.summands()] != term.monomials()
    for model in _EVAL_MODELS.values():
        with pytest.raises(AssignmentError, match="^no value assigned to a$"):
            evaluate(term, model, {})


def test_evaluate_reads_a_first_factor_in_the_field_before_multiplying():
    # as wedge({0: 1}, value) reads it: the even denominator is an error
    # even though every product it starts is zero
    a, b = _EVAL_GENS[:2]
    term = Term.from_monomial(Monomial((Factor(a), Factor(b))))
    with pytest.raises(ModelError, match="even denominator"):
        evaluate(term, corner_model(), {"a": {1: Fraction(1, 2)}, "b": {1: 1}})


@pytest.mark.parametrize("mask", [-1, 16, 64])
@pytest.mark.parametrize("make_model", [corner_model, raising_model])
def test_evaluate_rejects_assigned_masks_outside_the_algebra(make_model, mask):
    a = _EVAL_GENS[0]
    for factor in (Factor(a), Factor(a, (D,))):
        with pytest.raises(ModelError, match=f"mask {mask} outside the algebra"):
            evaluate(Term.from_factor(factor), make_model(), {"a": {1: 1, mask: 1}})


@functools.cache
def _int_gf2_strategies():
    # plain-int coefficients and values only, so evaluate takes the bit
    # path; stacks of one or two differentials; elements sparse (possibly
    # empty) or dense, whose products sum several basis pairs per mask
    stacks = [(), (D,), (DD,), (D, DD), (DD, D), (D, D)]
    coefficients = st.integers(-3, 3)
    factors = st.builds(Factor, st.sampled_from(_EVAL_GENS), st.sampled_from(stacks))
    elements = st.one_of(
        st.dictionaries(st.integers(0, 15), coefficients, max_size=8),
        st.integers(0, 0xFFFF).map(lambda bits: {m: 1 for m in range(16) if bits >> m & 1}),
    )
    return factors, coefficients, elements


@st.composite
def _int_gf2_cases(draw):
    factors, coefficients, elements = _int_gf2_strategies()
    # at most three factors: in four generators longer products mostly vanish
    stems = draw(st.lists(st.lists(factors, max_size=2), min_size=1, max_size=3))
    summands = {}
    for _ in range(draw(st.integers(1, 6))):
        stem = draw(st.sampled_from(stems))
        summands[Monomial(tuple(stem + draw(st.lists(factors, max_size=1))))] = draw(coefficients)
    assignment = {g.name: draw(elements) for g in _EVAL_GENS}
    return Term(summands), assignment


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_int_gf2_cases())
def test_gf2_bit_path_matches_the_reference_evaluator(case):
    term, assignment = case
    model = _EVAL_MODELS["gf2"]
    # every case stays on the bit path: no value needs the dict walk
    assert _evaluate_bits(term.summands(), model, assignment) is not None
    expected = _outcome(_reference_evaluate, term, model, assignment)
    assert _outcome(evaluate, term, model, assignment) == expected


def test_gf2_bit_path_covers_zero_products_and_empty_values():
    a, b = _EVAL_GENS[:2]
    model = corner_model()
    ab = Term.from_monomial(Monomial((Factor(a), Factor(b))))
    # a shared generator wedges to zero, an empty value is zero, and an
    # even value or coefficient vanishes in the field
    assert evaluate(ab, model, {"a": {1: 1}, "b": {3: 1}}) == {}
    assert evaluate(ab, model, {"a": {}, "b": {2: 1}}) == {}
    assert evaluate(ab, model, {"a": {1: 2}, "b": {2: 1}}) == {}
    assert evaluate(Term.from_monomial(Monomial((Factor(a), Factor(b))), 2), model,
                    {"a": {1: 1}, "b": {2: 1}}) == {}
    assert evaluate(ab, model, {"a": {1: 1, 4: -1}, "b": {2: 3}}) == {3: 1, 6: 1}
    # two basis pairs with one union cancel: e1 e2 + e2 e1 is 0 mod 2
    assert evaluate(ab, model, {"a": {1: 1, 2: 1}, "b": {1: 1, 2: 1}}) == {}
    # the empty monomial is the unit
    assert evaluate(Term({Monomial(()): 3}), model, {}) == {0: 1}


def test_gf2_bit_path_derives_as_derive_element():
    m = corner_model()
    a = _EVAL_GENS[0]
    rng = random.Random(23)
    for _ in range(40):
        x = random_element(m, rng)
        for stack in [(D,), (DD,), (D, DD), (DD, D)]:
            expected = x
            for kind in stack:
                expected = derive_element(m, kind, expected)
            assert evaluate(Term.from_factor(Factor(a, stack)), m, {"a": x}) == expected
    for kind in m.tables:
        for mask in m.masks[None]:
            assert evaluate(Term.from_factor(Factor(a, (kind,))), m, {"a": {mask: 1}}) == (
                derive_element(m, kind, {mask: 1})
            )


@pytest.mark.parametrize("make_model", [corner_model, raising_model])
def test_copied_and_pickled_models_evaluate_the_same(make_model):
    m = make_model()
    a, b = _EVAL_GENS[:2]
    stacks = [()] + [(kind,) for kind in m.tables]
    rng = random.Random(31)
    copies = [copy.deepcopy(m), pickle.loads(pickle.dumps(m))]
    for twin in copies:
        assert (twin.bit_images, twin.disjoint) == (m.bit_images, m.disjoint)
    for _ in range(30):
        term = Term.from_monomial(
            Monomial((Factor(a, rng.choice(stacks)), Factor(b, rng.choice(stacks)))), rng.randint(1, 3)
        )
        assignment = {"a": random_element(m, rng), "b": random_element(m, rng)}
        expected = evaluate(term, m, assignment)
        for twin in copies:
            assert evaluate(term, twin, assignment) == expected


def _expected_holds(term, symbolic, kind, model, assignment):
    # the expression derivation_holds stands for, with its errors
    try:
        return evaluate(symbolic, model, assignment) == derive_element(
            model, kind, evaluate(term, model, assignment)
        )
    except (AssignmentError, ModelError) as exc:
        return type(exc), str(exc)


def _holds_outcome(term, symbolic, kind, model, assignment):
    try:
        return derivation_holds(term, symbolic, kind, model, assignment)
    except (AssignmentError, ModelError) as exc:
        return type(exc), str(exc)


@st.composite
def _derivation_cases(draw):
    model = _EVAL_MODELS[draw(st.sampled_from(sorted(_EVAL_MODELS)))]
    gf2 = model.field == "gf2"
    # most cases hold plain ints only, which the shared walk decides; the
    # rest carry one input it refuses: a Fraction coefficient, one with an
    # even denominator, a Fraction value, a mask outside the algebra, a
    # generator with no value, a differential with no table (over the
    # rationals, as the checked kind or in a stack)
    fault = draw(st.sampled_from(
        [None] * 4 + ["fraction", "denominator", "value", "mask", "generator", "table"]
    ))
    stacks = [(), (D,)] + ([(DD,), (D, DD)] if gf2 or fault == "table" else [])
    factors = st.builds(Factor, st.sampled_from(_EVAL_GENS), st.sampled_from(stacks))
    stems = draw(st.lists(st.lists(factors, max_size=2), min_size=1, max_size=3))
    summands = {}
    for _ in range(draw(st.integers(1, 4))):
        stem = draw(st.sampled_from(stems))
        summands[Monomial(tuple(stem + draw(st.lists(factors, max_size=1))))] = draw(st.integers(-3, 3))
    if fault in ("fraction", "denominator"):
        mono = draw(st.sampled_from(list(summands)))
        summands[mono] = Fraction(draw(st.sampled_from([1, -1, 5])), 2 if fault == "denominator" else 3)
    term = Term(summands)
    kind = DD if fault == "table" and not gf2 and draw(st.booleans()) else draw(st.sampled_from(sorted(model.tables)))
    symbolic = apply_differential(kind, term, draw(st.sampled_from(list(SignMode))))
    if draw(st.booleans()):
        # a symbolic side off the term's differential, which mostly fails
        extra = Monomial(tuple(draw(st.lists(factors, min_size=1, max_size=2))))
        symbolic = symbolic + Term({extra: draw(st.sampled_from([1, -1, 3]))})
    # elements sparse (possibly empty) or dense
    elements = st.one_of(
        st.dictionaries(st.integers(0, 15), st.integers(-3, 3), max_size=8),
        st.integers(1, 0xFFFF).map(lambda bits: {m: 1 for m in range(16) if bits >> m & 1}),
    )
    assignment = {g.name: draw(elements) for g in _EVAL_GENS}
    # the fault sits on a generator the term names
    named = {f.generator.name for mono, _ in term.summands() for f in mono.factors}
    name = draw(st.sampled_from(sorted(named or assignment)))
    if fault == "value":
        assignment[name][draw(st.integers(0, 15))] = Fraction(1, 3)
    elif fault == "mask":
        assignment[name][draw(st.sampled_from([-1, 16, 64]))] = 1
    elif fault == "generator":
        del assignment[name]
    return term, symbolic, kind, model, assignment


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_derivation_cases())
def test_derivation_holds_matches_the_expression_it_stands_for(case):
    assert _holds_outcome(*case) == _expected_holds(*case)


@pytest.mark.parametrize("make_model", [corner_model, raising_model])
def test_derivation_holds_decides_plain_ints_on_the_shared_walk(make_model, monkeypatch):
    # no public evaluate, and over the two-element field no dict
    # derivation either; both outcomes occur
    m = make_model()
    a, b = _EVAL_GENS[:2]
    sign, parity = (SignMode.paper_literal, None) if m.field == "gf2" else (SignMode.koszul, 1)
    stacks = [()] + [(kind,) for kind in m.tables]
    rng = random.Random(41)
    cases = []
    for _ in range(60):
        term = Term.from_monomial(
            Monomial((Factor(a, rng.choice(stacks)), Factor(b, rng.choice(stacks)))), rng.randint(1, 3)
        )
        symbolic = apply_differential(D, term, sign)
        if rng.random() < 0.5:
            symbolic = symbolic + Term.from_factor(Factor(a, (D,)))
        assignment = {"a": random_element(m, rng, parity), "b": random_element(m, rng, parity)}
        case = (term, symbolic, D, m, assignment)
        cases.append((case, _expected_holds(*case)))
    assert {expected for _, expected in cases} == {True, False}

    def refuse(*args):
        raise AssertionError("the public walk ran")

    monkeypatch.setattr(gda.model, "evaluate", refuse)
    if m.field == "gf2":
        monkeypatch.setattr(gda.model, "derive_element", refuse)
    for case, expected in cases:
        assert derivation_holds(*case) is expected

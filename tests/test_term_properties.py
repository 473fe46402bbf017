"""Property tests of the term kernel: value equality with cached hashes,
sorted iteration, exact cancellation, and idempotent ideal reduction."""
import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import gda.terms as terms_module
from gda import (
    DiffKind,
    DiffLaws,
    Factor,
    IdealKind,
    IdealRegistry,
    Index,
    Monomial,
    SignMode,
    SymbolRegistry,
    Term,
    apply_differential,
    classify_push,
    multiply,
    normalize,
)

# deterministic and small: these run with the rest of tier-1
kernel = settings(max_examples=20, derandomize=True, database=None, deadline=None)

D = DiffKind.delta
DD = DiffKind.Delta

_REG = SymbolRegistry()
GENERATORS = [
    _REG.declare("a", Index(1, 0, 0)),
    _REG.declare("b", Index(0, 1, 1)),
    _REG.declare("c", Index(2, -1, 0), ("dclosed",)),
]
STACKS = [(), (D,), (DD,), (D, DD), (DD, DD)]

generators = st.sampled_from(GENERATORS)
stacks = st.sampled_from(STACKS)
overlap_pairs = st.tuples(st.integers(0, 1), st.integers(0, 1))
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def monomial_parts(draw):
    arity = draw(st.integers(1, 3))
    factors = [(draw(generators), draw(stacks)) for _ in range(arity)]
    overlaps = tuple(draw(overlap_pairs) for _ in range(arity))
    return factors, overlaps


def build(parts) -> Monomial:
    factors, overlaps = parts
    return Monomial(tuple(Factor(g, s) for g, s in factors), overlaps)


monomials = monomial_parts().map(build)
# zero coefficients are drawn on purpose: Term must not store them
terms = st.dictionaries(monomials, coefficients, max_size=4).map(Term)


def stored(term: Term) -> list[int | Fraction]:
    return [coeff for _, coeff in term.summands()]


def normal(coeff) -> bool:
    """A stored coefficient is a nonzero int or a non-integral Fraction."""
    if type(coeff) is int:
        return coeff != 0
    return type(coeff) is Fraction and coeff.denominator != 1


@kernel
@given(generators, stacks)
def test_factor_built_twice_is_equal_with_equal_hash(generator, stack):
    first = Factor(generator, stack)
    assert Factor(generator, stack) is first
    terms_module._FACTORS.clear()
    second = Factor(generator, stack)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first.sort_key() == second.sort_key()


@kernel
@given(monomial_parts())
def test_monomial_built_twice_is_equal_with_equal_hash(parts):
    first, second = build(parts), build(parts)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first.sort_key() == second.sort_key()


@kernel
@given(monomial_parts(), st.data())
def test_other_overlaps_or_stacks_give_unequal_monomials(parts, data):
    factors, overlaps = parts
    pos = data.draw(st.integers(0, len(factors) - 1))
    other_overlap = data.draw(overlap_pairs.filter(lambda pair: pair != overlaps[pos]))
    moved = overlaps[:pos] + (other_overlap,) + overlaps[pos + 1:]
    assert build(parts) != build((factors, moved))
    generator, stack = factors[pos]
    other_stack = data.draw(stacks.filter(lambda s: s != stack))
    restacked = factors[:pos] + [(generator, other_stack)] + factors[pos + 1:]
    assert build(parts) != build((restacked, overlaps))
    assert Factor(generator, stack) != Factor(generator, other_stack)


@kernel
@given(terms)
def test_items_follow_the_sort_key(term):
    keys = [mono.sort_key() for mono, _ in term.items()]
    assert keys == sorted(keys)
    assert len(keys) == len(term)


@kernel
@given(terms)
def test_term_plus_its_negation_is_zero(term):
    total = term + (-term)
    assert total.is_zero and len(total) == 0


@kernel
@given(terms, terms)
def test_adding_then_subtracting_returns_the_term(s, t):
    assert (s + t) - t == s


def concat(*monos: Monomial) -> Monomial:
    return Monomial(
        sum((m.factors for m in monos), ()), sum((m.overlaps for m in monos), ())
    )


@kernel
@given(terms, terms, coefficients, monomials, monomials, monomials)
def test_no_stored_coefficient_is_zero(s, t, q, u, v, w):
    once = apply_differential(D, s, SignMode.koszul)
    # (u + uv)(vw - w) = -uw + uvvw: the two uvw summands cancel
    left = Term({u: 1, concat(u, v): 1})
    right = Term({concat(v, w): 1, w: -1})
    results = [
        s, s + t, s - t, s * q, s * q.numerator, multiply([s, t]), multiply([left, right]),
        once, apply_differential(D, once, SignMode.koszul),
        apply_differential(D, s + t, SignMode.paper_literal), normalize(s + t),
    ]
    for term in results:
        assert all(normal(coeff) for coeff in stored(term))
    assert multiply([left, right]) == Term({concat(u, w): -1, concat(u, v, v, w): 1})


law_sets = st.builds(DiffLaws, st.booleans(), st.booleans())
member_kinds = st.sampled_from([None, *IdealKind])


def product_rule(kind, term, sign, laws, slots):
    """apply_differential written out with classify_push per factor and
    the parity read from effective_index: (result, kills)."""
    out, kills = Term(), []
    for mono, coeff in term.items():
        odd = False
        for pos, factor in enumerate(mono.factors, 1):
            if slots is None or pos in slots:
                pushed, reason = classify_push(factor, kind, laws)
                if pushed is None:
                    kills.append((pos, factor, reason))
                else:
                    factors = mono.factors[: pos - 1] + (pushed,) + mono.factors[pos:]
                    out = out + Term({Monomial(factors, mono.overlaps): -coeff if odd else coeff})
            index = factor.effective_index
            if sign is SignMode.koszul and (index.n if kind is D else index.kappa) % 2:
                odd = not odd
    return out, kills


def rebuilt(term: Term) -> Term:
    return Term({
        Monomial(tuple(Factor(f.generator, f.diffs) for f in mono.factors), mono.overlaps): coeff
        for mono, coeff in term.summands()
    })


@kernel
@given(terms, law_sets, law_sets, st.booleans(), st.data())
def test_cached_pushes_give_the_uncached_product_rule(term, laws, other_laws, keep_kills, data):
    arity = min((mono.arity for mono, _ in term.summands()), default=1)
    slots = data.draw(st.one_of(st.none(), st.sets(st.integers(1, arity), min_size=1)))
    # one term pushed under two law sets, so a push kept on a shared factor
    # is read back under laws other than those it was decided under; once
    # the table is cleared, the term rebuilt from new factors must agree too
    for cleared in (False, True):
        if cleared:
            terms_module._FACTORS.clear()
            term = rebuilt(term)
        for kind, sign, each in itertools.product(DiffKind, SignMode, (other_laws, laws)):
            kills = [] if keep_kills else None
            expected, expected_kills = product_rule(kind, term, sign, each, slots)
            assert apply_differential(kind, term, sign, each, slots, kills) == expected
            if keep_kills:
                assert kills == expected_kills


def test_the_factor_table_is_emptied_at_its_cap(monkeypatch):
    # a cap far below what is built here, so the table is emptied many times
    cap = 4

    class CappedTable(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            assert len(self) <= cap

    monkeypatch.setattr(terms_module, "FACTOR_TABLE_CAP", cap)
    monkeypatch.setattr(terms_module, "_FACTORS", CappedTable())
    first = [Factor(g, s) for g, s in itertools.product(GENERATORS, STACKS)]
    again = [Factor(g, s) for g, s in itertools.product(GENERATORS, STACKS)]
    assert any(a is not b for a, b in zip(first, again))  # a clear came between
    every_laws = [DiffLaws(*flags) for flags in itertools.product((True, False), repeat=2)]
    for a, b in zip(first, again):
        assert a == b and hash(a) == hash(b)
        term = Term.from_monomial(Monomial((a, b, a)))
        for kind, sign, laws in itertools.product(DiffKind, SignMode, every_laws):
            kills = []
            expected, expected_kills = product_rule(kind, term, sign, laws, None)
            assert apply_differential(kind, term, sign, laws, kills=kills) == expected
            assert kills == expected_kills


@kernel
@given(terms, law_sets, st.data())
def test_the_product_rule_keeps_a_normal_term_normal(term, laws, data):
    # the ideals reduce by membership only, so what the product rule builds
    # from a normal term must leave no law for them to apply
    term = normalize(term, laws)
    arity = min((mono.arity for mono, _ in term.summands()), default=1)
    slots = data.draw(st.one_of(st.none(), st.sets(st.integers(1, arity), min_size=1)))
    for kind, sign in itertools.product(DiffKind, SignMode):
        once = apply_differential(kind, term, sign, laws, slots)
        assert normalize(once, laws) == once
        for second in DiffKind:
            twice = apply_differential(second, once, sign, laws, slots)
            assert normalize(twice, laws) == twice


@kernel
@given(terms, law_sets, st.data())
def test_reducing_a_reduced_term_deletes_nothing(term, laws, data):
    # the registry takes normal terms; members are drawn from the term's own
    # factors, so the first pass often deletes something
    term = normalize(term, laws)
    ideals = IdealRegistry()
    for factor in sorted({f for mono, _ in term.summands() for f in mono.factors}, key=str):
        kind = data.draw(member_kinds)
        if kind is not None:
            ideals.register(kind, factor, laws)
    reduced, _ = ideals.reduce_with_trace(term)
    again, deleted = ideals.reduce_with_trace(reduced)
    assert deleted == []
    assert again == reduced

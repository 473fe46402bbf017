"""Core term algebra: indices, factors, monomials, exact sums."""
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from gda import (
    DiffKind,
    DiffLaws,
    Factor,
    HeterogeneousSum,
    Index,
    IndexBounds,
    Monomial,
    NameClash,
    CoherenceViolation,
    SymbolRegistry,
    Term,
    ZERO_INDEX,
    add,
    apply_differential,
    classify_push,
    multiply,
    normalize,
    render_equation,
    render_term,
    scale,
)


@pytest.fixture
def reg():
    return SymbolRegistry()


def test_index_arithmetic():
    assert Index(1, 2, 3) + Index(-1, 0, 1) == Index(0, 2, 4)
    assert Index(1, 2, 3) - Index(1, 2, 3) == ZERO_INDEX
    assert str(Index(1, -1, 0)) == "(1,-1,0)"


def test_index_shifts():
    base = Index(0, 0, 0)
    assert base.shifted(DiffKind.delta) == Index(1, -1, 0)
    assert base.shifted(DiffKind.Delta) == Index(0, 0, 1)


def test_bounds_reject_out_of_range():
    bounds = IndexBounds(n_min=0, kappa_max=2)
    bounds.check(Index(0, 5, 2), "ok")
    with pytest.raises(CoherenceViolation):
        bounds.check(Index(-1, 0, 0), "low")
    with pytest.raises(CoherenceViolation):
        bounds.check(Index(0, 0, 3), "high")


def test_registry_declare_and_clash(reg):
    reg.declare("a", Index(1, 0, 0))
    with pytest.raises(NameClash):
        reg.declare("a", Index(0, 0, 0))
    with pytest.raises(NameClash):
        reg.get("missing")


def test_registry_fresh_names_are_sequential(reg):
    first = reg.fresh(Index(0, 0, 0))
    second = reg.fresh(Index(0, 0, 0))
    assert first.name == "_f1"
    assert second.name == "_f2"
    assert first.fresh and second.fresh


def test_registry_names_sorted(reg):
    for name in ("zeta", "alpha", "mid"):
        reg.declare(name, Index(0, 0, 0))
    assert reg.names() == sorted(reg.names())


def test_factor_effective_index(reg):
    a = reg.declare("a", Index(1, 0, 0))
    stacked = Factor(a, (DiffKind.delta, DiffKind.Delta))
    assert stacked.effective_index == Index(2, -1, 1)


def push(factor, kind, laws=DiffLaws()):
    return classify_push(factor, kind, laws)[0]


def test_push_diff_orders_stack_delta_first(reg):
    a = reg.declare("a", Index(1, 0, 0))
    f = push(push(Factor(a), DiffKind.Delta), DiffKind.delta)
    assert f.diffs == (DiffKind.delta, DiffKind.Delta)
    assert render_term(Term.from_factor(f)) == "(a.d.D)"


def test_push_diff_chain_cochain_square_vanishes(reg):
    a = reg.declare("a", Index(1, 0, 0))
    da = push(Factor(a), DiffKind.delta)
    assert push(da, DiffKind.delta) is None


def test_push_diff_Delta_stacks_by_default(reg):
    # Delta is not chain-cochain under the default laws, so it may repeat.
    a = reg.declare("a", Index(1, 0, 0))
    Da = push(Factor(a), DiffKind.Delta)
    DDa = push(Da, DiffKind.Delta)
    assert DDa is not None and DDa.diffs == (DiffKind.Delta, DiffKind.Delta)


def test_push_diff_Delta_square_vanishes_when_chain_cochain(reg):
    laws = DiffLaws(Delta_chain_cochain=True, commute=True)
    a = reg.declare("a", Index(1, 0, 0))
    Da = push(Factor(a), DiffKind.Delta, laws)
    assert push(Da, DiffKind.Delta, laws) is None


def test_closed_flag_tracks_the_right_kind(reg):
    c = reg.declare("c", Index(0, 0, 0), ("dclosed",))
    assert c.closed_under(DiffKind.delta)
    assert not c.closed_under(DiffKind.Delta)


def test_monomial_index_rejects_a_negative_overlap(reg):
    a = Factor(reg.declare("a", Index(1, 0, 0)))
    b = Factor(reg.declare("b", Index(0, 1, 0)))
    with pytest.raises(CoherenceViolation, match=r"^negative overlap \(-1,0\)$"):
        Monomial((a, b), ((0, 0), (-1, 0))).index()


def test_monomial_index_subtracts_overlaps(reg):
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    m = Monomial((Factor(a), Factor(b)), ((0, 0), (1, 1)))
    assert m.index() == Index(0, 0, 0)
    assert m.signature() == "00"


def test_monomial_signature_counts_stack(reg):
    a = reg.declare("a", Index(1, 0, 0))
    m = Monomial((Factor(a, (DiffKind.delta,)), Factor(a)))
    assert m.signature() == "I0"


def test_term_strict_add_rejects_mixed_indices(reg):
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    with pytest.raises(HeterogeneousSum):
        add(Term.from_factor(Factor(a)), Term.from_factor(Factor(b)))
    relaxed = add(Term.from_factor(Factor(a)), Term.from_factor(Factor(b)), strict=False)
    assert len(relaxed.monomials()) == 2


def test_term_add_cancels_exactly(reg):
    a = reg.declare("a", Index(1, 0, 0))
    t = Term.from_factor(Factor(a))
    assert add(t, scale(-1, t)).is_zero


def test_scale_keeps_fractions_exact(reg):
    a = reg.declare("a", Index(1, 0, 0))
    t = scale(Fraction(1, 3), Term.from_factor(Factor(a)))
    assert t.coefficient(Monomial((Factor(a),))) == Fraction(1, 3)
    assert render_term(scale(3, t)) == "(a)"


def test_inexact_coefficients_are_refused(reg):
    # Fraction(0.1) would store the binary expansion of the float
    a = reg.declare("a", Index(1, 0, 0))
    mono = Monomial((Factor(a),))
    t = Term.from_monomial(mono)
    for bad in (0.1, 1.0, 0.0, Decimal("0.5"), "1", None):
        with pytest.raises(TypeError):
            scale(bad, t)
        with pytest.raises(TypeError):
            t * bad
        with pytest.raises(TypeError):
            bad * t
        with pytest.raises(TypeError):
            Term({mono: bad})
        with pytest.raises(TypeError):
            Term.from_monomial(mono, bad)
    assert render_term(scale(Fraction(1, 10), t)) == "1/10*(a)"
    assert render_term(t * 3) == "3*(a)"
    assert t.coefficient(mono) == 1 and type(t.coefficient(mono)) is int


def test_integral_coefficients_are_stored_as_ints(reg):
    a = reg.declare("a", Index(1, 0, 0))
    mono = Monomial((Factor(a),))
    half = Term({mono: Fraction(1, 2)})
    assert type(half.coefficient(mono)) is Fraction
    for term in (
        Term({mono: Fraction(4, 2)}),
        half + half,
        half * Fraction(2, 1),
        multiply([half, Term({Monomial(()): 4})]),
        normalize(half + half + half + half),
    ):
        coeff = term.coefficient(mono)
        assert type(coeff) is int and coeff in (1, 2)
    assert Term({mono: Fraction(4, 2)}).coefficient(mono) == 2
    assert (half * Fraction(2, 1)).coefficient(mono) == 1
    one = Term({mono: True})
    assert type(one.coefficient(mono)) is int and one.coefficient(mono) == 1
    assert render_term(one) == render_term(Term({mono: 1})) == "(a)"
    assert render_term(half * 3) == "3/2*(a)"
    for bad in (1.0, Decimal(2)):
        with pytest.raises(TypeError):
            Term({mono: bad})
        with pytest.raises(TypeError):
            half * bad
    # d((a.d, b)/2 + (a, b.d)/2) = (a.d, b.d): two halves meet in the product rule
    b = reg.declare("b", Index(0, 1, 0))
    da, db = Factor(a, (DiffKind.delta,)), Factor(b, (DiffKind.delta,))
    both = Monomial((da, db))
    halves = Term({
        Monomial((da, Factor(b))): Fraction(1, 2), Monomial((Factor(a), db)): Fraction(1, 2)
    })
    assert apply_differential(DiffKind.delta, halves) == Term({both: 1})
    assert type(apply_differential(DiffKind.delta, halves).coefficient(both)) is int


def test_pickled_term_from_another_process_keeps_its_lookups():
    # factors and monomials cache hashes of strings, which differ between
    # processes; a term pickled elsewhere must still find its monomials
    script = (
        "import pickle, sys\n"
        "from gda import DiffKind, Factor, Index, Monomial, SymbolRegistry, Term\n"
        "a = SymbolRegistry().declare('a', Index(1, 0, 0))\n"
        "m = Monomial((Factor(a, (DiffKind.delta,)), Factor(a)), ((0, 0), (1, 0)))\n"
        "sys.stdout.buffer.write(pickle.dumps(Term({m: 3})))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"}
    data = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True
    ).stdout
    a = SymbolRegistry().declare("a", Index(1, 0, 0))
    m = Monomial((Factor(a, (DiffKind.delta,)), Factor(a)), ((0, 0), (1, 0)))
    term = pickle.loads(data)
    assert term.coefficient(m) == 3
    assert term == Term({m: 3})


def test_multiply_concatenates_with_overlaps(reg):
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    prod = multiply([
        Term.from_factor(Factor(a)),
        Term.from_monomial(Monomial((Factor(b),), ((1, 1),))),
    ])
    (mono, coeff), = prod.items()
    assert coeff == 1
    assert mono.overlaps == ((0, 0), (1, 1))
    assert prod.index() == Index(0, 0, 0)


def test_multiply_distributes_over_sums(reg):
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(1, 0, 0))
    c = reg.declare("c", Index(0, 1, 0))
    left = add(Term.from_factor(Factor(a)), Term.from_factor(Factor(b)))
    prod = multiply([left, Term.from_factor(Factor(c))])
    assert len(prod.monomials()) == 2


def test_normalize_drops_zero_coefficients(reg):
    a = reg.declare("a", Index(1, 0, 0))
    t = add(Term.from_factor(Factor(a)), scale(-1, Term.from_factor(Factor(a))))
    assert normalize(t).is_zero


def test_render_term_canonical_forms(reg):
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    m = Monomial((Factor(a, (DiffKind.delta,)), Factor(b)), ((0, 0), (1, 1)))
    assert render_term(scale(2, Term.from_monomial(m))) == "2*(a.d, b[r=1,t=1])"
    assert render_term(Term.zero()) == "0"


def test_render_equation(reg):
    a = reg.declare("a", Index(1, 0, 0))
    t = Term.from_factor(Factor(a))
    assert render_equation(Term.zero(), t) == "0 = (a)"


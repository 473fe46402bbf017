"""Invariant-class construction, closure bookkeeping, both verifiers."""
import functools
import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import report_digests
from gda import (
    DiffKind,
    DiffLaws,
    EpsilonMode,
    Factor,
    HeterogeneousSum,
    HypothesisError,
    IdealKind,
    IdealRegistry,
    Index,
    LayoutError,
    Monomial,
    SignMode,
    SymbolRegistry,
    Term,
    VerifierSetup,
    apply_differential,
    build_class,
    build_closure_set,
    cancel_hypotheses,
    load_session,
    reduce_modulo,
    render_term,
    scale,
    verify_cocycle,
    verify_independence,
)
from gda.terms import exact_quotient, stack_vanishes
from gda.verifier import _class_difference

CLASS_FILE = Path(__file__).resolve().parent.parent / "sessions" / "invariant_class.gda"

COMPLETION_INDICES = [
    ("Phi1", Index(0, 2, 0)),
    ("Phi2", Index(2, 0, 1)),
    ("Phi3", Index(1, 0, 0)),
    ("Phi4", Index(0, 1, 0)),
]


def standard_context(setup=None, closed=None):
    """phi/eta plus the four completion factors, with both first
    differentials registered non-locally; the completion at index
    `closed`, if any, is declared dclosed."""
    setup = setup or VerifierSetup()
    reg = SymbolRegistry()
    phi = Factor(reg.declare("phi", Index(1, 1, 0)))
    eta = Factor(reg.declare("eta", Index(1, 1, 0)))
    comps = tuple(
        Factor(reg.declare(name, idx, ("dclosed",) if i == closed else (), "completion"))
        for i, (name, idx) in enumerate(COMPLETION_INDICES)
    )
    ideals = IdealRegistry()
    for f in (phi, eta):
        ideals.register(
            IdealKind.nonlocal2, Factor(f.generator, (setup.d,)), setup.laws
        )
    return reg, phi, eta, comps, ideals, setup


def test_setup_dbar_is_the_other_kind():
    setup = VerifierSetup()
    assert setup.d is DiffKind.delta
    assert setup.dbar is DiffKind.Delta


def test_build_class_pair_mode():
    reg, phi, eta, comps, ideals, setup = standard_context()
    term = build_class(phi, comps, setup)
    assert render_term(term) == "(Phi1, phi.d.D, Phi2, phi.d, Phi3, phi, Phi4)"
    assert term.index() == Index(8, 4, 2)
    (mono, _), = term.items()
    assert mono.arity == 7


def test_build_class_drop_mode_has_six_slots():
    # dropping the doubly differentiated content leaves completions at
    # positions 1, 2, 4, 6
    setup = VerifierSetup(epsilon_mode=EpsilonMode.drop)
    reg, phi, eta, comps, ideals, setup = standard_context(setup)
    term = build_class(phi, comps, setup)
    (mono, _), = term.items()
    assert mono.arity == 6
    assert render_term(term) == "(Phi1, Phi2, phi.d, Phi3, phi, Phi4)"


@pytest.mark.parametrize("mode", list(EpsilonMode))
def test_build_class_needs_four_completions(mode):
    setup = VerifierSetup(epsilon_mode=mode)
    reg, phi, eta, comps, ideals, setup = standard_context(setup)
    with pytest.raises(LayoutError, match=r"^class layout needs 4 completion factors, got 3$"):
        build_class(phi, comps[:3], setup)


@pytest.mark.parametrize("mode", list(EpsilonMode))
def test_build_class_rejects_a_content_that_is_not_a_single_factor(mode):
    setup = VerifierSetup(epsilon_mode=mode)
    reg, phi, eta, comps, ideals, setup = standard_context(setup)
    picked = Term.from_factor(phi) + Term.from_monomial(Monomial((phi, eta)))
    with pytest.raises(LayoutError, match=r"^content slot that is not a single factor$"):
        build_class(picked, comps, setup)


def test_slot_diff_sum_hits_only_named_slots():
    reg, phi, eta, comps, ideals, setup = standard_context()
    term = build_class(phi, comps, setup)
    out = apply_differential(setup.d, term, setup.sign, setup.laws, (1, 3))
    for mono in out.monomials():
        names = [f.generator.name for f in mono.factors]
        assert names[1] == "phi" or names[1].startswith("Phi")
    assert len(out.monomials()) == 2


def test_closure_set_enumerates_all_assignments():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    # 3 content options in each of 3 slots, times the two slot-1 depths
    assert len(closure_set.conditions) == 54
    tags = {h.tag for h in closure_set.conditions}
    assert "phi|phi|phi|Dd" in tags
    assert "eta|phi|eta|D" in tags
    assert "phi+eta|phi+eta|phi+eta|Dd" in tags


def test_closure_set_requires_registered_differential():
    reg, phi, eta, comps, _, setup = standard_context()
    empty = IdealRegistry()
    with pytest.raises(HypothesisError):
        build_closure_set(phi, eta, comps, empty, setup)


def test_closure_find_and_without():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    h = closure_set.find(("phi", "eta", "phi"), 0)
    assert h is not None and h.slot1_level == 0
    smaller = closure_set.without(h.tag)
    assert len(smaller.conditions) == 53
    assert smaller.find(("phi", "eta", "phi"), 0) is None


def test_cancel_hypotheses_removes_matching_combination():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    h = closure_set.find(("phi", "phi", "phi"), 0)
    out, trace = cancel_hypotheses(scale(3, h.term), closure_set.conditions)
    assert out.is_zero
    assert [step.rule for step in trace] == [f"hypothesis:{h.tag}"]


def test_cancel_hypotheses_leaves_partial_sums():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    h = closure_set.find(("phi", "phi", "phi"), 0)
    first = h.term.items()[0]
    partial = Term.from_monomial(first[0])
    out, trace = cancel_hypotheses(partial, closure_set.conditions)
    assert not out.is_zero and not trace


def test_cancel_hypotheses_does_not_depend_on_summand_order():
    # the ratio test starts from whichever summand a hypothesis yields
    # first; each term rebuilt in reverse order starts from another one
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    hypotheses = closure_set.conditions
    flipped = [
        h._replace(term=Term(dict(reversed(list(h.term.summands())))))
        for h in hypotheses
    ]
    assert all(f.term == h.term for f, h in zip(flipped, hypotheses))
    assert all(
        next(iter(f.term.summands())) != next(iter(h.term.summands()))
        for f, h in zip(flipped, hypotheses) if len(h.term) > 1
    )
    h1 = closure_set.find(("phi", "phi", "phi"), 0)
    h2 = closure_set.find(("eta", "phi", "eta"), 1)
    first, coeff = h1.term.items()[0]
    stray = Term.from_monomial(first, coeff)
    sums = [
        scale(3, h1.term),
        scale(3, h1.term) + scale(-2, h2.term),
        h1.term - stray,
        scale(5, h2.term) + stray,
    ]
    for term in sums:
        out, steps = cancel_hypotheses(term, hypotheses)
        out_flipped, steps_flipped = cancel_hypotheses(term, flipped)
        assert out == out_flipped
        assert [s.rule for s in steps] == [s.rule for s in steps_flipped]
    # a partial sum is left as it is, a scaled one cancels
    assert cancel_hypotheses(sums[2], flipped) == (sums[2], [])
    assert cancel_hypotheses(sums[3], flipped)[0] == stray


def fixed_point_cancel(term, hypotheses):
    """Hypothesis cancellation as a fixed point: every hypothesis is tried
    again on each pass until a pass fires none.  The reference that the
    one-pass cancel_hypotheses must agree with."""
    steps = []
    prepared = [(h, list(h.term.summands())) for h in hypotheses if not h.term.is_zero]
    changed = True
    while changed and not term.is_zero:
        changed = False
        for h, items in prepared:
            present = term.coefficient(items[0][0])
            if not present:
                continue
            ratio = exact_quotient(present, items[0][1])
            if all(term.coefficient(m) == ratio * c for m, c in items[1:]):
                before = term
                term = term - h.term * ratio
                steps.append((f"hypothesis:{h.tag}", before, term))
                changed = True
    return term, steps


@functools.cache
def digest_closure_sets():
    """The closure sets of _digest_contexts in paper/pair mode, some with
    closed generators and so with zero hypotheses."""
    return list(_digest_contexts(VerifierSetup()))


ratios = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.integers(0, 4),
    st.lists(st.tuples(st.integers(0, 53), ratios), max_size=6),
    st.lists(st.tuples(st.integers(0, 53), st.integers(0, 99), ratios), max_size=3),
    st.permutations(range(54)),
    st.integers(1, 54),
)
def test_one_pass_cancel_matches_the_fixed_point(which, picked, strays, order, kept):
    # multiples of a random subset of hypotheses plus stray monomials taken
    # from hypotheses, against a shuffled (and possibly cut) hypothesis list
    hypotheses = digest_closure_sets()[which].conditions
    term = Term.zero()
    for i, ratio in picked:
        term = term + hypotheses[i].term * ratio
    for i, j, ratio in strays:
        items = hypotheses[i].term.items()
        if items:
            term = term + Term.from_monomial(items[j % len(items)][0], ratio)
    tried = [hypotheses[i] for i in order[:kept]]
    out, steps = cancel_hypotheses(term, tried)
    ref_out, ref_steps = fixed_point_cancel(term, tried)
    assert out == ref_out
    assert [tuple(s) for s in steps] == ref_steps


def normal_coefficients(term: Term) -> bool:
    """Every stored coefficient is a nonzero int or a non-integral Fraction."""
    return all(
        c != 0 if type(c) is int else type(c) is Fraction and c.denominator != 1
        for _, c in term.summands()
    )


def test_cancel_hypotheses_at_integral_and_fractional_ratios():
    # ratio 2 divides two ints, ratio 3/2 a Fraction by an int; both
    # quotients are exact, so no float reaches a term
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    h1 = closure_set.find(("phi", "phi", "phi"), 0)
    h2 = closure_set.find(("eta", "phi", "eta"), 1)
    stray = scale(Fraction(1, 2), Term.from_factor(phi))
    term = scale(2, h1.term) + scale(Fraction(3, 2), h2.term) + stray
    out, steps = cancel_hypotheses(term, closure_set.conditions)
    assert out == stray and normal_coefficients(out)
    assert [s.rule for s in steps] == [f"hypothesis:{h.tag}" for h in (h1, h2)]
    assert [s.after for s in steps] == [scale(Fraction(3, 2), h2.term) + stray, stray]
    assert all(normal_coefficients(s.after) for s in steps)


def test_reduce_modulo_traces_ideal_deletions():
    reg, phi, eta, comps, ideals, setup = standard_context()
    term = build_class(phi, comps, setup)
    # differentiating the bare content slot duplicates phi.d, which the
    # non-local ideal then removes
    with_dupe = apply_differential(setup.d, term, setup.sign, setup.laws, (6,))
    reduced, trace = reduce_modulo(with_dupe, ideals, [])
    assert reduced.is_zero
    assert [step.rule for step in trace] == ["ideal:nonlocal2"]


def test_verify_cocycle_trace_is_exact():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    report = verify_cocycle(build_class(phi, comps, setup), closure_set, ideals, setup)
    assert report.ok
    assert report.residual.is_zero
    rules = [step.rule for step in report.trace]
    assert rules.count("law:commute-square") == 1
    assert rules.count("law:square") == 1
    assert rules.count("ideal:nonlocal2") == 1
    assert rules.count("hypothesis:phi|phi|phi|Dd") == 1
    assert len(rules) == 4


def test_verify_cocycle_fails_without_hypotheses():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    report = verify_cocycle(
        build_class(phi, comps, setup), closure_set.without("phi|phi|phi|Dd"), ideals, setup
    )
    assert not report.ok
    assert any("surviving terms" in note for note in report.notes)


def test_verify_independence_builds_seven_summand_primitive():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    report = verify_independence(phi, eta, comps, closure_set, ideals, setup)
    assert report.ok
    assert report.primitive is not None
    assert len(report.primitive.monomials()) == 7


def test_shipped_primitive_has_int_coefficients():
    # each primitive coefficient is a quotient of two ints that divide exactly
    session = load_session(CLASS_FILE)
    phi, comps = session.class_parts("INV")
    report = verify_independence(
        phi, session.factor("eta"), comps, session.closure_set("H"), session.ideals,
        session.setup,
    )
    assert report.ok and len(report.primitive) == 7
    assert all(type(c) is int for _, c in report.primitive.summands())
    for step in report.trace:
        if isinstance(step.after, Term):
            assert normal_coefficients(step.after)


def test_verify_independence_ablation_names_the_cross():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    report = verify_independence(
        phi, eta, comps, closure_set.without("eta|phi|eta|D"), ideals, setup
    )
    assert not report.ok
    assert render_term(report.residual) == "(Phi1, eta.d.D, Phi2, phi.d, Phi3, eta, Phi4)"
    assert any(
        "no closure condition for assignment ('eta', 'phi', 'eta')" in note
        for note in report.notes
    )


def test_stripping_to_a_stack_the_laws_kill_gives_no_candidate():
    # with eta = xi.D, slot 1 holds xi.D.d.D; taking d off leaves xi.D.D,
    # which Delta-chain-cochain kills once commute is off.  The registry
    # reduces by members only, so that stack must not reach it
    laws = DiffLaws(Delta_chain_cochain=True, commute=False)
    reg, phi, _, comps, ideals, setup = standard_context(VerifierSetup(laws=laws))
    eta = Factor(reg.declare("xi", Index(1, 1, -1)), (DiffKind.Delta,))
    ideals.register(IdealKind.nonlocal2, Factor(eta.generator, eta.diffs + (setup.d,)), laws)
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    report = verify_independence(phi, eta, comps, closure_set, ideals, setup)
    assert not report.ok
    stripped = [note for note in report.notes if note.startswith("cannot strip")]
    assert stripped == [
        f"cannot strip the first content slot of (Phi1, xi.D.d.D, Phi2, {a}, Phi3, {b}, Phi4)"
        for a in ("phi.d", "xi.D.d") for b in ("phi", "xi.D")
    ]
    parts = [report.residual, report.primitive]
    parts += [p for step in report.trace for p in (step.before, step.after) if not isinstance(p, str)]
    monomials = [m for p in parts for m in ([p] if isinstance(p, Monomial) else p.monomials())]
    assert monomials and not [
        f for m in monomials for f in m.factors if stack_vanishes(f.diffs, laws)
    ]


def test_report_to_json_contract():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    report = verify_cocycle(build_class(phi, comps, setup), closure_set, ideals, setup)
    payload = report.to_json()
    assert payload["schema"] == "gda.report/1"
    assert payload["claim"] == "cocycle"
    assert payload["status"] == "ok"
    assert payload["residual"] == "0"
    assert all(set(step) == {"rule", "before", "after"} for step in payload["trace"])


# per (sign mode, epsilon mode): sha256 over every closure hypothesis
# (tag, then rendered term) that the contexts below produce, frozen from
# the fully expanded build; a construction shortcut that changes any
# hypothesis changes its digest
CLOSURE_SET_DIGESTS = {
    ("paper", "pair"): (
        "6d45a359389b63801693fd15bb0d7f9111cfbbccf5a590d316bd0b340b6320e9"
    ),
    ("paper", "drop"): (
        "c7e1e43e49337237452e36bbdb2150d1faa3d9fa085e6b8a18d0f0ac01d09512"
    ),
    ("koszul", "pair"): (
        "116141a9fa34fb9fdf8360a9e67ebc1010fd4e39624d444f0718472c4d8fbed6"
    ),
    ("koszul", "drop"): (
        "2fad84b142191028b1d17f78f25e1e4546990123b00b478ad3fe733e53df8ef7"
    ),
}


def _digest_contexts(setup):
    """Seeded re-indexed contexts, some with closed generators so that
    contents and completion slots vanish, plus the shipped session."""
    rng = random.Random(20261018)
    for _ in range(4):
        reg = SymbolRegistry()
        shared = Index(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2))
        picked = [
            Factor(reg.declare(name, shared, rng.choice([(), ("dclosed",), ("Dclosed",)])))
            for name in ("phi", "eta")
        ]
        comps = tuple(
            Factor(reg.declare(
                f"Phi{i}",
                Index(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2)),
                rng.choice([(), (), ("dclosed",)]),
                "completion",
            ))
            for i in range(1, 5)
        )
        ideals = IdealRegistry()
        for f in picked:
            ideals.register(IdealKind.nonlocal2, Factor(f.generator, (setup.d,)), setup.laws)
        yield build_closure_set(picked[0], picked[1], comps, ideals, setup)
    session = load_session(CLASS_FILE, {
        "sign-mode": setup.sign.value,
        "epsilon-mode": setup.epsilon_mode.value,
    })
    yield session.closure_set("H")


def test_closure_set_digests_are_frozen():
    digests = {}
    for sign, eps in itertools.product(SignMode, EpsilonMode):
        setup = VerifierSetup(sign=sign, epsilon_mode=eps)
        digest = hashlib.sha256()
        for closure_set in _digest_contexts(setup):
            assert len(closure_set.conditions) == 54
            for h in closure_set.conditions:
                digest.update(f"{h.tag}\n{render_term(h.term)}\n".encode())
        digests[sign.value, eps.value] = digest.hexdigest()
    assert digests == CLOSURE_SET_DIGESTS


def test_report_digests_are_unchanged():
    # every traced step is pinned, not only the verdict; see
    # tests/report_digests.py for how to regenerate the file
    entries = report_digests.read()
    now = [(label, report_digests.digest(report)) for label, report in report_digests.reports()]
    assert [label for label, _ in entries] == [label for label, _ in now]
    changed = [label for (label, sha), (_, fresh) in zip(entries, now) if sha != fresh]
    assert not changed, "report differs from tests/golden/report_digests.txt:\n" + "\n".join(changed)


def _cold(phi, eta, comps, closure_set, ideals, setup):
    _class_difference.cache_clear()
    return verify_independence(phi, eta, comps, closure_set, ideals, setup)


def test_class_memo_tells_closedness_flags_apart():
    # the two contexts differ only in Phi2's dclosed flag, which hashes
    # like the unflagged one; called alternately, each keeps its own kills
    contexts = [standard_context()[1:], standard_context(closed=1)[1:]]
    cold = []
    for phi, eta, comps, ideals, setup in contexts:
        closure_set = build_closure_set(phi, eta, comps, ideals, setup)
        cold.append(_cold(phi, eta, comps, closure_set, ideals, setup))
    laws = [[s.rule for s in r.trace if s.rule.startswith("law:")] for r in cold]
    assert "law:closed" in laws[1] and "law:closed" not in laws[0]
    assert cold[0].primitive != cold[1].primitive
    for _ in range(2):
        for (phi, eta, comps, ideals, setup), expected in zip(contexts, cold):
            closure_set = build_closure_set(phi, eta, comps, ideals, setup)
            report = verify_independence(phi, eta, comps, closure_set, ideals, setup)
            assert report.to_json() == expected.to_json()
            assert report.primitive == expected.primitive
            # the primitive's completions carry this context's flags
            used = {f.generator for m in report.primitive.monomials() for f in m.factors}
            assert set(c.generator for c in comps) <= used
    assert _class_difference.cache_info().maxsize == 1


def test_class_memo_reduces_by_the_ideals_of_each_call():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    before = verify_independence(phi, eta, comps, closure_set, ideals, setup)
    ideals.register(IdealKind.nonlocal2, Factor(comps[0].generator, (setup.d,)), setup.laws)
    hits = _class_difference.cache_info().hits
    after = verify_independence(phi, eta, comps, closure_set, ideals, setup)
    assert _class_difference.cache_info().hits == hits + 1

    def deletions(report):
        return [(s.rule, s.before) for s in report.trace if s.rule.startswith("ideal:")]

    assert deletions(after) != deletions(before)
    assert before.ok and not after.ok
    assert after.to_json() == _cold(phi, eta, comps, closure_set, ideals, setup).to_json()


def test_completions_list_gives_the_tuple_report():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    from_tuple = verify_independence(phi, eta, comps, closure_set, ideals, setup)
    from_list = verify_independence(phi, eta, list(comps), closure_set, ideals, setup)
    assert from_list.to_json() == from_tuple.to_json()
    assert from_list.primitive == from_tuple.primitive


def test_class_memo_does_not_keep_errors():
    reg, phi, eta, comps, ideals, setup = standard_context()
    closure_set = build_closure_set(phi, eta, comps, ideals, setup)
    other = Factor(reg.declare("zeta", Index(0, 1, 0)))
    for _ in range(2):
        with pytest.raises(HeterogeneousSum):
            verify_independence(phi, other, comps, closure_set, ideals, setup)

"""Class layouts, closure hypothesis sets, and the invariant-class checks.

The class expression interleaves four auxiliary completion factors with
three content slots built from one picked element: the twice
differentiated element (vertical over horizontal), the horizontally
differentiated element, and the element itself.  Closedness is checked
by expanding the differential of the class and cancelling what survives
against a registered closure hypothesis; independence of the picked
element is checked by reconstructing an explicit primitive for the
difference of two classes.

All cancellation is exact: a hypothesis fires only when every one of its
monomials is present with one common coefficient ratio.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

from .differentials import (
    EpsilonMode,
    SignMode,
    apply_differential,
)
from .errors import HypothesisError, LayoutError
from .ideals import IdealKind, IdealRegistry
from .terms import (
    DEFAULT_LAWS,
    Coefficient,
    DiffKind,
    DiffLaws,
    Factor,
    Monomial,
    Term,
    add,
    exact_quotient,
    multiply,
    render_term,
    stack_vanishes,
)


@dataclass(frozen=True)
class VerifierSetup:
    d: DiffKind = DiffKind.delta
    sign: SignMode = SignMode.paper_literal
    epsilon_mode: EpsilonMode = EpsilonMode.pair
    laws: DiffLaws = DEFAULT_LAWS

    @property
    def dbar(self) -> DiffKind:
        return self.d.other


class TraceStep(NamedTuple):
    """One step of a verification; `before` and `after` keep the objects
    and render (str) only when a report is shown."""
    rule: str
    before: Term | Monomial | str
    after: Term | Monomial | str


class VerificationReport(NamedTuple):
    claim: str
    status: str
    residual: Term
    trace: list[TraceStep]
    primitive: Term | None = None
    notes: Sequence[str] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        return {
            "schema": "gda.report/1",
            "claim": self.claim,
            "status": self.status,
            "residual": render_term(self.residual),
            "trace": [
                {"rule": s.rule, "before": str(s.before), "after": str(s.after)}
                for s in self.trace
            ],
            "primitive": None if self.primitive is None else render_term(self.primitive),
            "notes": list(self.notes),
        }


# --- class layout -----------------------------------------------------

# 1-based positions of the four completion factors and of the three
# contents in the class layout; a content at None is left out
_LAYOUT = {
    EpsilonMode.pair: ((1, 3, 5, 7), (2, 4, 6)),
    EpsilonMode.drop: ((1, 2, 4, 6), (None, 3, 5)),
}


def _layout(
    setup: VerifierSetup,
    completions: tuple[Factor, ...],
    xi1: Term,
    xi2: Term,
    xi3: Term,
    level: int,
) -> tuple[Term, tuple[int, ...]]:
    """Interleave the four completion factors with the contents made from
    three picked elements: xi1 differentiated by d `level` times and then
    by dbar, xi2 by d, and xi3 as it is.

    Mirrors the auxiliary pairing at term level: in pair mode the first
    completion is followed by the first content (a zero content absorbs
    the product); in drop mode the first content is omitted, and not
    built, and the two leading completions sit side by side.  Returns
    the layout and the completion positions.
    """
    if len(completions) != 4:
        raise LayoutError(f"class layout needs 4 completion factors, got {len(completions)}")
    completion_at, (at1, at2, at3) = _LAYOUT[setup.epsilon_mode]
    parts = dict(zip(completion_at, map(Term.from_factor, completions)))
    if at1 is not None:
        c1 = xi1
        for kind in (setup.d,) * level + (setup.dbar,):
            c1 = apply_differential(kind, c1, setup.sign, setup.laws)
        parts[at1] = c1
    parts[at2] = apply_differential(setup.d, xi2, setup.sign, setup.laws)
    parts[at3] = xi3
    return multiply([parts[pos] for pos in sorted(parts)]), completion_at


def build_class(
    phi: Factor | Term,
    completions: tuple[Factor, ...],
    setup: VerifierSetup,
) -> Term:
    """The candidate invariant for one picked element (or a sum of
    picked elements, expanded multilinearly); each content is a sum of
    single factors."""
    phi_t = Term.from_factor(phi) if isinstance(phi, Factor) else phi
    if any(m.arity != 1 for m, _ in phi_t.summands()):
        raise LayoutError("content slot that is not a single factor")
    return _layout(setup, completions, phi_t, phi_t, phi_t, 1)[0]


# --- closure hypothesis sets ------------------------------------------

class ClosureHypothesis(NamedTuple):
    tag: str
    assignment: tuple[str, str, str]
    slot1_level: int
    term: Term


class ClosureSet(NamedTuple):
    conditions: list[ClosureHypothesis]

    def find(self, assignment: tuple[str, str, str], slot1_level: int) -> ClosureHypothesis | None:
        for h in self.conditions:
            if h.assignment == assignment and h.slot1_level == slot1_level:
                return h
        return None

    def without(self, tag: str) -> "ClosureSet":
        kept = [h for h in self.conditions if h.tag != tag]
        return ClosureSet(kept)


def build_closure_set(
    phi: Factor,
    psi: Factor,
    completions: tuple[Factor, ...],
    ideals: IdealRegistry,
    setup: VerifierSetup,
) -> ClosureSet:
    """Enumerate the closure conditions over the slot assignments and
    register each as a vanishing combination for the matcher.

    Every assignment is registered at both first-slot depths: the singly
    differentiated content cancels primitive re-expansions, the doubly
    differentiated one cancels the class differential itself.
    """
    for f in (phi, psi):
        member = Factor(f.generator, f.diffs + (setup.d,))
        if not ideals.is_member(IdealKind.nonlocal2, member):
            raise HypothesisError(
                f"{setup.d.token}({f}) must be registered in the non-local"
                " order-2 ideal before closure conditions can be formed"
            )
    phi_t = Term.from_factor(phi)
    psi_t = Term.from_factor(psi)
    add(phi_t, psi_t)  # HeterogeneousSum unless phi and psi share an index
    bases = [(phi.generator.name, phi_t), (psi.generator.name, psi_t)]
    # a condition is linear in each content, so a phi+psi slot is the sum
    # of its phi and psi conditions and only those are expanded; when the
    # layout leaves the first content out, a condition depends on neither
    # the first element nor the first-slot depth, so the one expanded for
    # phi at depth 0 serves them all
    first_kept = _LAYOUT[setup.epsilon_mode][1][0] is not None
    expanded: dict[tuple[int, int, int, int], Term] = {}
    for i1, i2, i3, level in product((0, 1), repeat=4):
        if not first_kept and (i1 or level):
            expanded[i1, i2, i3, level] = expanded[0, i2, i3, 0]
            continue
        layout, slots = _layout(setup, completions, bases[i1][1], bases[i2][1], bases[i3][1], level)
        expanded[i1, i2, i3, level] = apply_differential(setup.d, layout, setup.sign, setup.laws, slots)
    conditions = []
    for firsts, seconds, thirds in product([(0,), (1,), (0, 1)], repeat=3):
        names = tuple("+".join(bases[i][0] for i in part) for part in (firsts, seconds, thirds))
        if not first_kept:
            # the slot-1 choice does not change the condition and is not summed
            firsts = firsts[:1]
        for level in (0, 1):
            condition = sum(
                (expanded[i1, i2, i3, level] for i1, i2, i3 in product(firsts, seconds, thirds)),
                Term.zero(),
            )
            tag = f"{names[0]}|{names[1]}|{names[2]}|{'Dd' if level else 'D'}"
            conditions.append(ClosureHypothesis(tag, names, level, condition))
    return ClosureSet(conditions)


# --- cancellation machinery -------------------------------------------

def _match_ratio(term: Term, hypothesis: Term) -> Coefficient | None:
    """The one ratio at which term holds every (monomial, coefficient)
    of hypothesis, or None; always None for a zero hypothesis."""
    ratio = None
    for mono, coeff in hypothesis.summands():
        present = term.coefficient(mono)
        if ratio is None:
            if not present:
                return None
            ratio = exact_quotient(present, coeff)
        elif present != ratio * coeff:
            return None
    return ratio


def cancel_hypotheses(
    term: Term, hypotheses: list[ClosureHypothesis]
) -> tuple[Term, list[TraceStep]]:
    """Subtract each hypothesis that term holds at one common ratio, trying
    them once in list order.  One pass is exhaustive: a firing removes
    exactly that hypothesis's monomials and leaves every other coefficient
    as it was, so a hypothesis that did not match earlier in the pass
    cannot match later, and one that fired cannot fire again."""
    steps: list[TraceStep] = []
    for h in hypotheses:
        if term.is_zero:
            break
        ratio = _match_ratio(term, h.term)
        if ratio is not None:
            before = term
            term = term - h.term * ratio
            steps.append(TraceStep(f"hypothesis:{h.tag}", before, term))
    return term, steps


def reduce_modulo(
    term: Term,
    ideals: IdealRegistry,
    hypotheses: list[ClosureHypothesis],
) -> tuple[Term, list[TraceStep]]:
    """Ideal reduction followed by exhaustive hypothesis cancellation."""
    reduced, deleted = ideals.reduce_with_trace(term)
    trace = [TraceStep(reason, m, "0") for reason, m in deleted]
    remaining, steps = cancel_hypotheses(reduced, hypotheses)
    return remaining, trace + steps


def _law_steps(
    kills: list[tuple[int, Factor, str]], setup: VerifierSetup
) -> list[TraceStep]:
    """One trace step per slot the differential laws killed."""
    return [
        TraceStep(f"law:{reason}", f"slot {pos}: {setup.d.token}({factor})", "0")
        for pos, factor, reason in kills
    ]


# --- the two verifications --------------------------------------------

def verify_cocycle(
    class_term: Term,
    closure_set: ClosureSet,
    ideals: IdealRegistry,
    setup: VerifierSetup,
) -> VerificationReport:
    kills: list[tuple[int, Factor, str]] = []
    survivors = apply_differential(setup.d, class_term, setup.sign, setup.laws, kills=kills)
    residual, steps = reduce_modulo(survivors, ideals, closure_set.conditions)
    trace = _law_steps(kills, setup) + steps
    status = "ok" if residual.is_zero else "fail"
    notes = []
    if status == "fail":
        notes.append("surviving terms: " + render_term(residual))
        near = _nearest_hypothesis(residual, closure_set)
        if near:
            notes.append(f"nearest hypothesis: {near}")
    return VerificationReport("cocycle", status, residual, trace, notes=notes)


def _nearest_hypothesis(residual: Term, closure_set: ClosureSet) -> str | None:
    best_tag = None
    best_overlap = 0
    monos = {m for m, _ in residual.summands()}
    for h in closure_set.conditions:
        overlap = sum(1 for m, _ in h.term.summands() if m in monos)
        if overlap > best_overlap:
            best_overlap = overlap
            best_tag = h.tag
    return best_tag


@lru_cache(maxsize=1)
def _class_difference(
    phi: Factor,
    eta: Factor,
    completions: tuple[Factor, ...],
    setup: VerifierSetup,
) -> tuple[Term, tuple[tuple, ...]]:
    """The part of verify_independence that no closure set or ideal acts
    on: class(phi+eta) - class(phi) and, for each of its monomials in term
    order, (monomial, coefficient, content names, the candidate with one d
    taken off its first content or None, d of the candidate, the law kills
    of that expansion).

    Memoized for the last class only, so the ablations of one class build
    it once.  The arguments compare by value, closedness flags included,
    so a hit is exact; an error is not cached and raises on every call.
    """
    content_positions = _LAYOUT[setup.epsilon_mode][1]
    slot1 = content_positions[0] - 1
    phi_t = Term.from_factor(phi)
    eta_t = Term.from_factor(eta)
    class_phi = build_class(phi_t, completions, setup)
    diff = build_class(add(phi_t, eta_t), completions, setup) - class_phi
    entries = []
    for mono, coeff in diff:
        names = tuple(mono.factors[p - 1].generator.name for p in content_positions)
        stripped = _strip_inner(mono.factors[slot1], setup)
        candidate = expanded = None
        kills: list[tuple[int, Factor, str]] = []
        if stripped is not None:
            factors = list(mono.factors)
            factors[slot1] = stripped
            candidate = Monomial(tuple(factors), mono.overlaps)
            expanded = apply_differential(
                setup.d, Term.from_monomial(candidate), setup.sign, setup.laws, kills=kills
            )
        entries.append((mono, coeff, names, candidate, expanded, tuple(kills)))
    return diff, tuple(entries)


def verify_independence(
    phi: Factor,
    eta: Factor,
    completions: tuple[Factor, ...],
    closure_set: ClosureSet,
    ideals: IdealRegistry,
    setup: VerifierSetup,
) -> VerificationReport:
    """Check that replacing the picked element by its sum with another
    admissible element shifts the class by an exact differential, and
    produce that primitive."""
    if None in _LAYOUT[setup.epsilon_mode][1]:
        raise LayoutError(
            "primitive reconstruction needs the paired layout (epsilon mode pair)"
        )
    diff, entries = _class_difference(phi, eta, tuple(completions), setup)

    trace: list[TraceStep] = []
    primitive = Term.zero()
    recomputed = Term.zero()
    failures: list[str] = []
    for mono, coeff, names, candidate, expanded, kills in entries:
        hypothesis = closure_set.find(names, 0)
        if hypothesis is None:
            failures.append(f"no closure condition for assignment {names}")
            continue
        if candidate is None:
            failures.append(f"cannot strip the first content slot of {mono}")
            continue
        # the ideals may have grown since the class was memoized
        reduced, del_steps = ideals.reduce_with_trace(expanded)
        for reason, m in del_steps:
            trace.append(TraceStep(reason, m, "0"))
        trace += _law_steps(kills, setup)
        remaining, cancel_steps = cancel_hypotheses(reduced, [hypothesis])
        trace += cancel_steps
        scale = _single_monomial_ratio(remaining, mono)
        if scale is None:
            failures.append(
                f"re-expansion of the candidate for {mono} left {render_term(remaining)}"
            )
            continue
        ratio = exact_quotient(coeff, scale)
        contribution = Term({candidate: ratio})
        primitive = primitive + contribution
        # d is linear, so d(primitive) sums the candidates' expansions
        recomputed = recomputed + expanded * ratio
        trace.append(TraceStep("primitive", mono, contribution))

    recomputed, final_steps = reduce_modulo(recomputed, ideals, closure_set.conditions)
    trace += final_steps
    residual = diff - recomputed
    status = "ok" if residual.is_zero and not failures else "fail"
    return VerificationReport(
        "independence", status, residual, trace,
        primitive=primitive, notes=failures,
    )


def _strip_inner(factor: Factor, setup: VerifierSetup) -> Factor | None:
    if setup.d in factor.diffs:
        diffs = list(factor.diffs)
        diffs.remove(setup.d)
        if not stack_vanishes(diffs, setup.laws):
            return Factor(factor.generator, tuple(diffs))
    return None


def _single_monomial_ratio(term: Term, mono: Monomial) -> Coefficient | None:
    if len(term) != 1:
        return None
    return term.coefficient(mono) or None

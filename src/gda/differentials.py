"""Product-rule application of the two differentials.

The horizontal differential lowers m while raising n; the vertical one
raises kappa.  Both act on products summand by summand.  Two sign
conventions are supported: the plain one puts +1 on every summand (so a
repeated horizontal differential of a 2-factor product yields a doubled
cross term instead of zero), the koszul one weights each summand by the
parity of the degrees to its left that the differential moves (n for
the horizontal one, kappa for the vertical one), restoring d^2 = 0 and
D^2 = 0 on products and making the two commute.
"""
from __future__ import annotations

from enum import Enum
from typing import Collection

from .errors import SlotError
from .terms import (
    DEFAULT_LAWS,
    Coefficient,
    DiffKind,
    DiffLaws,
    Factor,
    Monomial,
    Term,
    _integral,
    canonical_stack,
    stack_vanishes,
)


class SignMode(str, Enum):
    paper_literal = "paper"
    koszul = "koszul"


class EpsilonMode(str, Enum):
    """How the auxiliary pairing realizes its two arguments: as both
    factors of the monomial, or as the first factor alone."""

    pair = "pair"
    drop = "drop"


def classify_push(
    factor: Factor, kind: DiffKind, laws: DiffLaws = DEFAULT_LAWS
) -> tuple[Factor | None, str | None]:
    """Push one differential onto a factor, reporting why it died.

    Reasons: "closed" (generator declared closed under this kind),
    "square" (double application visible in the raw stack), or
    "commute-square" (visible only after commuting the stack).  A
    surviving factor comes back with reason None.
    """
    if not factor.diffs and factor.generator.closed_under(kind):
        return None, "closed"
    raw = factor.diffs + (kind,)
    if stack_vanishes(raw, laws):
        return None, "square"
    canon = canonical_stack(raw, laws)
    if stack_vanishes(canon, laws):
        return None, "commute-square"
    return Factor(factor.generator, canon), None


def _push(factor: Factor, kind: DiffKind, laws: DiffLaws) -> tuple[Factor | None, str | None, bool]:
    """classify_push and the parity of the degree kind moves, kept on
    the factor under (kind, laws) so each is decided once."""
    pushed, reason = classify_push(factor, kind, laws)
    index = factor.effective_index
    odd = (index.n if kind is DiffKind.delta else index.kappa) % 2 == 1
    entry = factor._pushes[kind, laws] = (pushed, reason, odd)
    return entry


def apply_differential(
    kind: DiffKind,
    term: Term,
    sign: SignMode = SignMode.paper_literal,
    laws: DiffLaws = DEFAULT_LAWS,
    slots: Collection[int] | None = None,
    kills: list[tuple[int, Factor, str]] | None = None,
) -> Term:
    """Differential of a term by the product rule.

    Each monomial gives one summand per factor, or per 1-based position
    in slots when given.  In koszul mode a summand carries the parity of
    the degrees to its left that this differential moves: n for d,
    kappa for D.  Pushes the laws kill are appended to kills as (slot,
    factor, reason), in term order.
    """
    koszul = sign is SignMode.koszul
    key = (kind, laws)
    wanted = None if slots is None else frozenset(slots)
    if wanted and term:
        # the shortest monomial is the first in term order to reject a slot
        arity = min(len(monomial.factors) for monomial, _ in term.summands())
        for slot in wanted:
            if not 1 <= slot <= arity:
                raise SlotError(f"slot {slot} out of range for arity {arity}")
    # only the kills show the order in which monomials are visited
    summands = term.summands() if kills is None else term.items()
    out: dict[Monomial, Coefficient] = {}
    for monomial, coeff in summands:
        factors = monomial.factors
        odd = False
        for pos, factor in enumerate(factors, 1):
            pushed, reason, parity = factor._pushes.get(key) or _push(factor, kind, laws)
            if wanted is None or pos in wanted:
                if pushed is None:
                    if kills is not None:
                        kills.append((pos, factor, reason))
                else:
                    new = Monomial(factors[: pos - 1] + (pushed,) + factors[pos:], monomial.overlaps)
                    signed = -coeff if odd else coeff
                    total = out.get(new)
                    out[new] = signed if total is None else total + signed
            if koszul and parity:
                odd = not odd
    return Term._from_normal({m: _integral(c) for m, c in out.items() if c})


def apply_slot_differential(
    kind: DiffKind,
    monomial: Monomial,
    slots: Collection[int],
    sign: SignMode = SignMode.paper_literal,
    laws: DiffLaws = DEFAULT_LAWS,
) -> Term:
    """Product-rule sum of one monomial restricted to the given 1-based
    factor positions; SlotError for a position outside the monomial."""
    return apply_differential(kind, Term.from_monomial(monomial), sign, laws, slots)

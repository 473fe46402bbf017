"""Square-vanishing ideals of order 2 and the factorization moves.

Membership is declared per factor pattern (generator plus exact diff
stack) that the laws leave alive.  Reduction takes normal terms only,
as the product rule and normalize() build them, and deletes monomials
by membership alone: two non-local members anywhere, two local members
side by side, or the same square member twice side by side.

The factorization moves run the vanishing rules backwards: given a
single-monomial orthogonality condition, each factor can be expressed
through its neighbours and one fresh generator whose index is solved
from the coherence equations.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import ArityError, IdealError
from .terms import (
    DEFAULT_LAWS,
    Coefficient,
    DiffLaws,
    Factor,
    GeneratorSymbol,
    Index,
    Monomial,
    SymbolRegistry,
    Term,
    canonical_stack,
    stack_vanishes,
)


class IdealKind(str, Enum):
    nonlocal2 = "nonlocal2"
    local2 = "local2"
    square2 = "square2"


class IdealRegistry:
    """Session-scoped, append-only store of ideal members."""

    def __init__(self):
        # one dict per kind; monomial_vanishes unpacks them in IdealKind order
        self._members: dict[IdealKind, dict[Factor, None]] = {k: {} for k in IdealKind}

    def register(self, kind: IdealKind, pattern: Factor, laws: DiffLaws = DEFAULT_LAWS) -> None:
        stack = canonical_stack(pattern.diffs, laws)
        if stack_vanishes(stack, laws):
            raise IdealError(f"ideal pattern {pattern} is killed by the differential laws")
        self._members[IdealKind(kind)][Factor(pattern.generator, stack)] = None

    def is_member(self, kind: IdealKind, factor: Factor) -> bool:
        return factor in self._members[IdealKind(kind)]

    def monomial_vanishes(self, monomial: Monomial) -> str | None:
        """Reason the monomial is deleted, or None if it survives."""
        nonlocal2, local2, square2 = self._members.values()
        factors = monomial.factors
        if nonlocal2 and sum(f in nonlocal2 for f in factors) >= 2:
            return "ideal:nonlocal2"
        if local2 or square2:
            for a, b in zip(factors, factors[1:]):
                if a in local2 and b in local2:
                    return "ideal:local2"
                if a in square2 and a == b:
                    return "ideal:square2"
        return None

    def reduce_with_trace(self, term: Term) -> tuple[Term, list[tuple[str, Monomial]]]:
        """Reduce a normal term and report each deletion as (reason, monomial)."""
        kept: dict[Monomial, Coefficient] = {}
        deleted: list[tuple[str, Monomial]] = []
        for monomial, coeff in term.summands():
            reason = self.monomial_vanishes(monomial)
            if reason is None:
                kept[monomial] = coeff
            else:
                deleted.append((reason, monomial))
        # deletions are reported in term order; the sort is stable, so
        # this is the order a walk over term.items() would give
        deleted.sort(key=lambda entry: entry[1].sort_key())
        return Term._from_normal(kept), deleted


class FactorizationResult(NamedTuple):
    """One resolution variant for one position of a vanishing product."""

    position: int  # 1-based
    variant: str  # left | right | two-sided
    resolved: Factor
    replacement: Monomial
    fresh: GeneratorSymbol


def factorization_moves(
    monomial: Monomial,
    registry: SymbolRegistry,
) -> list[FactorizationResult]:
    """All resolution variants for a single vanishing monomial.

    The end factors have one variant each (through the inner neighbour);
    interior factors have left, right, and two-sided variants.  Each
    variant allocates one fresh generator; its index is the resolved
    factor's index minus the neighbours', so the replacement is coherent
    by construction.
    """
    factors = monomial.factors
    if len(factors) < 2:
        raise ArityError("factorization needs at least two factors")
    out: list[FactorizationResult] = []
    for pos in range(1, len(factors) + 1):
        resolved = factors[pos - 1]
        left = factors[pos - 2] if pos >= 2 else None
        right = factors[pos] if pos <= len(factors) - 1 else None
        variants: list[tuple[str, list[Factor | None]]] = []
        if pos == 1:
            variants.append(("right", [None, right]))
        elif pos == len(factors):
            variants.append(("left", [left, None]))
        else:
            variants.append(("left", [left, None]))
            variants.append(("right", [None, right]))
            variants.append(("two-sided", [left, None, right]))
        for name, shape in variants:
            neighbour_sum = Index(0, 0, 0)
            for f in shape:
                if f is not None:
                    neighbour_sum = neighbour_sum + f.effective_index
            fresh_index = resolved.effective_index - neighbour_sum
            fresh = registry.fresh(fresh_index)
            replacement = tuple(
                Factor(fresh) if f is None else f for f in shape
            )
            out.append(
                FactorizationResult(
                    position=pos,
                    variant=name,
                    resolved=resolved,
                    replacement=Monomial(replacement),
                    fresh=fresh,
                )
            )
    return out

"""Differential and orthogonality conditions, their coherence check,
and the derivation-tree exploration.

A choice pattern is a string of I (differentiate) and 0 (keep), one per
product factor, bare or in one pair of parentheses: ``(I0)`` or ``I0``.

A condition is an equation: either an orthogonality (zero left side) or
a differential condition (left side is one differentiated generator).
The tree explorer grows a condition by three moves: differentiating both
sides, rescaling to content 1, and resolving one factor of a vanishing
product through its neighbours with a fresh generator.  Exploration is
bounded by depth and by a seen-set keyed on equations with fresh names
anonymized; a repeat below its own first occurrence signals a periodic
family.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .differentials import SignMode, apply_differential
from .errors import ArityError, CoherenceViolation
from .ideals import factorization_moves
from .terms import (
    FRESH_PREFIX,
    ZERO_INDEX,
    DiffKind,
    Factor,
    Index,
    Monomial,
    SymbolRegistry,
    Term,
    multiply,
    render_equation,
)

# a signature, bare or in exactly one pair of parentheses
_LABEL_RE = re.compile(r"\(([I0]+)\)|([I0]+)")


def _choices(pattern: str) -> str:
    """The I/0 signature of a choice pattern."""
    match = _LABEL_RE.fullmatch(pattern)
    if match is None:
        raise ArityError(f"invalid choice pattern {pattern!r}")
    return match.group(1) or match.group(2)


def collapse_signature(sig: str) -> str:
    """Quotient adjacent undifferentiated runs: with at least one
    differentiated slot present, a run of 0s plays the role of one."""
    if "I" in sig:
        return re.sub("00+", "0", sig)
    return sig


class Condition(NamedTuple):
    label: str
    lhs: Term
    rhs: Term
    expected_index: Index

    @property
    def kind(self) -> str:
        return "orthogonality" if self.lhs.is_zero else "differential"

    @property
    def equation(self) -> str:
        return render_equation(self.lhs, self.rhs)


def signature_label(term: Term) -> str:
    if term.is_zero:
        return "(-)"
    sigs = sorted({collapse_signature(m.signature()) for m in term.monomials()})
    return "(" + "|".join(sigs) + ")"


def make_condition(
    pattern: str,
    gamma: Term | None,
    phis: list[Term],
    d: DiffKind = DiffKind.delta,
    sign: SignMode = SignMode.paper_literal,
) -> Condition:
    choices = _choices(pattern)
    if len(phis) != len(choices):
        raise ArityError(f"{len(phis)} elements for {len(choices)} choices")
    parts = [
        apply_differential(d, p, sign) if choice == "I" else p
        for choice, p in zip(choices, phis)
    ]
    rhs = Term.zero()
    if all(not p.is_zero for p in parts):
        rhs = multiply(parts)
    if gamma is None:
        lhs = Term.zero()
        expected = ZERO_INDEX
    else:
        lhs = apply_differential(d, gamma, sign)
        idx = gamma.index()
        if idx is None:
            raise CoherenceViolation("condition left side must be homogeneous")
        expected = idx.shifted(d)
    return Condition(f"({choices})", lhs, rhs, expected)


def check_coherence(cond: Condition, literal_m: bool = False) -> None:
    """CoherenceViolation for the first index component of a right-hand
    monomial that differs from the expected index."""
    for monomial in cond.rhs.monomials():
        actual = monomial.index(literal_m=literal_m)
        for component, want, got in zip(Index._fields, cond.expected_index, actual):
            if want != got:
                raise CoherenceViolation(
                    f"condition {cond.label}: {component}: {want} != {got} in {monomial}"
                )


# --- derivation trees -------------------------------------------------

class TreeNode(NamedTuple):
    id: int
    depth: int
    edge: str
    condition: Condition
    note: str | None
    parent: int | None


class PeriodicFamily(NamedTuple):
    """A two-factor vanishing pattern that regenerates itself under
    resolve-then-differentiate, indexed by a running integer."""

    anchor: int
    repeat: int
    alpha0: Index
    beta0: Index
    d: DiffKind

    def relations(self) -> list[str]:
        t = self.d.token
        return [
            "0 = (alpha[k], beta[k])",
            f"alpha[k].{t} = (alpha[k+1], beta[k])",
            f"beta[k].{t} = (alpha[k], beta[k+1])",
        ]

    def indices(self, count: int) -> list[tuple[Index, Index]]:
        """(index of alpha_k, index of beta_k) for k = 0..count-1."""
        out = [(self.alpha0, self.beta0)]
        while len(out) < count:
            a, b = out[-1]
            out.append((a.shifted(self.d) - b, b.shifted(self.d) - a))
        return out[:count]

    def instantiate(self, count: int) -> list[Condition]:
        """Concrete conditions for k = 0..count-1, fit for coherence
        checking; each step's fresh indices come from the recurrences."""
        registry = SymbolRegistry()
        idx = self.indices(count + 1)
        alphas = [registry.declare(f"alpha{k}", idx[k][0]) for k in range(count + 1)]
        betas = [registry.declare(f"beta{k}", idx[k][1]) for k in range(count + 1)]
        conds = []
        for k in range(count):
            a, b = Factor(alphas[k]), Factor(betas[k])
            a1, b1 = Factor(alphas[k + 1]), Factor(betas[k + 1])
            pair = idx[k][0] + idx[k][1]
            conds.append(
                Condition(f"(II)[k={k}]", Term.zero(), Term.from_monomial(Monomial((a, b))), pair)
            )
            conds.append(
                Condition(
                    f"(II)[k={k}]a",
                    Term.from_factor(Factor(alphas[k], (self.d,))),
                    Term.from_monomial(Monomial((a1, b))),
                    idx[k][0].shifted(self.d),
                )
            )
            conds.append(
                Condition(
                    f"(II)[k={k}]b",
                    Term.from_factor(Factor(betas[k], (self.d,))),
                    Term.from_monomial(Monomial((a, b1))),
                    idx[k][1].shifted(self.d),
                )
            )
        return conds


class DerivationTree(NamedTuple):
    start: str
    depth: int
    sign: SignMode
    d: DiffKind
    nodes: list[TreeNode]
    families: list[PeriodicFamily]


def _seen_key(cond: Condition) -> tuple:
    """The equation's structure with fresh generator names blanked, so
    conditions that differ only in fresh numbering share a key."""
    return tuple(
        tuple(
            (
                coeff,
                mono.overlaps,
                tuple(
                    (FRESH_PREFIX if f.generator.fresh else f.generator.name, f.diffs)
                    for f in mono.factors
                ),
            )
            for mono, coeff in side
        )
        for side in (cond.lhs, cond.rhs)
    )


def _content(term: Term) -> Fraction:
    items = term.items()
    num = 0
    den = 1
    for _, c in items:
        num = gcd(num, abs(c.numerator))
        den = lcm(den, c.denominator)
    content = Fraction(num, den)
    if items and items[0][1] < 0:
        content = -content
    return content


def derive_tree(
    start: Condition,
    depth: int = 8,
    sign: SignMode = SignMode.paper_literal,
    d: DiffKind = DiffKind.delta,
    registry: SymbolRegistry | None = None,
) -> DerivationTree:
    if depth < 1:
        raise ArityError("depth must be at least 1")
    if registry is None:
        registry = SymbolRegistry()
    tree = DerivationTree(start.label, depth, sign, d, [], [])
    seen: dict[tuple, int] = {}

    def add_node(cond: Condition, edge: str, parent: int | None, dp: int, note: str | None) -> TreeNode:
        node = TreeNode(len(tree.nodes), dp, edge, cond, note, parent)
        tree.nodes.append(node)
        return node

    def is_ancestor(candidate: int, node_id: int) -> bool:
        cur = tree.nodes[node_id].parent
        while cur is not None:
            if cur == candidate:
                return True
            cur = tree.nodes[cur].parent
        return False

    def place(cond: Condition, edge: str, parent: int | None, dp: int, extra_note: str | None) -> None:
        if cond.lhs.is_zero and cond.rhs.is_zero:
            add_node(cond, edge, parent, dp, "zero")
            return
        key = _seen_key(cond)
        if key in seen:
            node = add_node(cond, edge, parent, dp, "seen")
            prior = seen[key]
            if is_ancestor(prior, node.id):
                _record_family(tree, prior, node.id, d)
            return
        node = add_node(cond, edge, parent, dp, extra_note or ("depth" if dp >= depth else None))
        seen[key] = node.id
        expand(node)

    def expand(node: TreeNode) -> None:
        cond = node.condition
        if node.depth >= depth:
            return
        dp = node.depth + 1
        # move 1: differentiate both sides
        lhs2 = apply_differential(d, cond.lhs, sign)
        rhs2 = apply_differential(d, cond.rhs, sign)
        note = None
        if lhs2.is_zero and len(rhs2) == 1:
            mono, coeff = rhs2.items()[0]
            if abs(coeff) != 1:
                note = f"0 or ({collapse_signature(mono.signature())})"
        child = Condition(cond.label, lhs2, rhs2, cond.expected_index.shifted(d))
        place(child, "d", node.id, dp, note)
        # move 2: rescale an orthogonality to content 1
        if cond.lhs.is_zero and not cond.rhs.is_zero:
            content = _content(cond.rhs)
            if content != 1:
                scaled = Condition(
                    cond.label, cond.lhs, cond.rhs * (1 / content), cond.expected_index
                )
                place(scaled, f"reduce {Fraction(1) / content}", node.id, dp, None)
        # move 3: resolve factors of a monic vanishing product
        if cond.lhs.is_zero and len(cond.rhs) == 1:
            mono, coeff = cond.rhs.items()[0]
            if coeff == 1 and mono.arity >= 2:
                for move in factorization_moves(mono, registry):
                    resolved_term = Term.from_factor(move.resolved)
                    child = Condition(
                        signature_label(Term.from_monomial(move.replacement)),
                        resolved_term,
                        Term.from_monomial(move.replacement),
                        move.resolved.effective_index,
                    )
                    place(child, f"resolve {move.position} {move.variant}", node.id, dp, None)

    place(start, "start", None, 0, None)
    return tree


def _record_family(tree: DerivationTree, anchor: int, repeat: int, d: DiffKind) -> None:
    cond = tree.nodes[anchor].condition
    if not cond.lhs.is_zero or len(cond.rhs) != 1:
        return
    mono = cond.rhs.monomials()[0]
    if mono.arity != 2:
        return
    for fam in tree.families:
        if fam.anchor == anchor:
            return
    tree.families.append(
        PeriodicFamily(
            anchor,
            repeat,
            mono.factors[0].effective_index,
            mono.factors[1].effective_index,
            d,
        )
    )


# --- standard start conditions ---------------------------------------

_NOMINAL_2 = [None, Index(-1, 0, 0)]
_NOMINAL_3 = [None, Index(0, 1, 0), Index(-1, -1, 0)]
_NAMES = {2: ["Phi'", "Phi"], 3: ["Phi'", "phi", "Phi"]}


def standard_start(
    pattern: str,
    registry: SymbolRegistry,
    d: DiffKind = DiffKind.delta,
    sign: SignMode = SignMode.paper_literal,
) -> Condition:
    """Orthogonality condition for a start pattern over the standard
    generators, with the first index solved so the product lands at the
    zero index.  Patterns with redundant undifferentiated runs collapse
    first."""
    choices = collapse_signature(_choices(pattern))
    arity = len(choices)
    if arity not in _NAMES:
        raise ArityError(f"no standard generators for arity {arity}")
    nominal = _NOMINAL_2 if arity == 2 else _NOMINAL_3
    shift = ZERO_INDEX.shifted(d)
    rest = ZERO_INDEX
    for base, choice in zip(nominal[1:], choices[1:]):
        rest = rest + base
        if choice == "I":
            rest = rest + shift
    first = ZERO_INDEX - rest
    if choices[0] == "I":
        first = first - shift
    indices = [first] + nominal[1:]
    phis = [
        Term.from_factor(Factor(registry.declare(name, idx)))
        for name, idx in zip(_NAMES[arity], indices)
    ]
    return make_condition(choices, None, phis, d=d, sign=sign)


# --- rendering --------------------------------------------------------

def render_tree(tree: DerivationTree) -> str:
    lines = [
        f"derive start={tree.start} depth={tree.depth}"
        f" sign={tree.sign.value} d={tree.d.value}"
    ]
    for node in tree.nodes:
        indent = "  " * node.depth
        label = signature_label(node.condition.rhs)
        line = f"{indent}[{node.edge}] {label}: {node.condition.equation}"
        if node.note:
            line += f"  ## {node.note}"
        lines.append(line)
    if tree.families:
        lines.append("")
        for fam in tree.families:
            rel = "; ".join(fam.relations())
            lines.append(
                f"family @node {fam.anchor}: {rel};"
                f" index alpha[0]={fam.alpha0} beta[0]={fam.beta0}"
            )
    return "\n".join(lines) + "\n"


def tree_to_json(tree: DerivationTree | None) -> dict:
    if tree is None or not tree.nodes:
        return {"edges": []}
    nodes = [
        {
            "id": n.id,
            "depth": n.depth,
            "label": signature_label(n.condition.rhs),
            "equation": n.condition.equation,
            "note": n.note,
        }
        for n in tree.nodes
    ]
    edges = [
        {"from": n.parent, "to": n.id, "move": n.edge}
        for n in tree.nodes
        if n.parent is not None
    ]
    families = [
        {
            "anchor": f.anchor,
            "repeat": f.repeat,
            "alpha0": str(f.alpha0),
            "beta0": str(f.beta0),
            "relations": f.relations(),
        }
        for f in tree.families
    ]
    return {
        "start": tree.start,
        "depth": tree.depth,
        "sign": tree.sign.value,
        "d": tree.d.value,
        "nodes": nodes,
        "edges": edges,
        "families": families,
    }

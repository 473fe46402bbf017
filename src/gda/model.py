"""Small exterior-algebra models for spot-checking symbolic identities.

A model carries k degree-one generators, a coefficient field (the
rationals or the two-element field), and one table per differential
mapping generators to algebra elements.  Tables extend to the whole
algebra as derivations and everything is checked numerically, so a
symbolic identity can be compared against honest arithmetic.

Elements are dicts from generator bitmask to coefficient; basis
products are ordered by ascending generator index.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import AssignmentError, ModelError
from .terms import DiffKind, Term

Element = dict[int, Fraction]

MAX_GENERATORS = 6


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _crossings(left: int, right: int) -> int:
    # inversions between ascending sequences: pairs (x in left, y in right)
    # with x above y
    count = 0
    y = right
    while y:
        bit = y & -y
        count += _popcount(left & ~(bit | (bit - 1)))
        y &= y - 1
    return count


def _coeff(field_name: str, value: Fraction) -> Fraction:
    if field_name == "gf2":
        if value.denominator % 2 == 0:
            raise ModelError(
                "coefficient with even denominator has no value in the"
                " two-element field"
            )
        return Fraction(value.numerator % 2)
    return value


def element_add(field_name: str, a: Element, b: Element) -> Element:
    out = dict(a)
    for mask, c in b.items():
        out[mask] = out.get(mask, Fraction(0)) + c
    return {m: _coeff(field_name, c) for m, c in out.items() if _coeff(field_name, c)}


def element_scale(field_name: str, c: Fraction, a: Element) -> Element:
    c = _coeff(field_name, c)
    if not c:
        return {}
    return {m: _coeff(field_name, c * v) for m, v in a.items() if _coeff(field_name, c * v)}


def wedge(field_name: str, a: Element, b: Element) -> Element:
    out: Element = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue
            c = ca * cb
            if field_name == "q" and _crossings(ma, mb) % 2:
                c = -c
            mask = ma | mb
            out[mask] = out.get(mask, Fraction(0)) + c
    return {m: _coeff(field_name, c) for m, c in out.items() if _coeff(field_name, c)}


ONE: Element = {0: Fraction(1)}


@dataclass(frozen=True)
class Model:
    k: int
    field: str
    tables: dict[DiffKind, dict[int, Element]] = field(default_factory=dict)

    @property
    def basis(self) -> list[int]:
        return list(range(1 << self.k))


def _derive(model: Model, kind: DiffKind, element: Element) -> Element:
    table = model.tables.get(kind)
    if table is None:
        raise ModelError(f"model has no table for {kind.token}")
    out: Element = {}
    for mask, coeff in element.items():
        seen_below = 0
        m = mask
        while m:
            bit = m & -m
            m &= m - 1
            image = table.get(bit)
            if image:
                below = mask & (bit - 1)
                above = mask & ~(bit | (bit - 1))
                piece = wedge(model.field, {below: Fraction(1)}, wedge(model.field, image, {above: Fraction(1)}))
                sign = Fraction(-1 if (model.field == "q" and seen_below % 2) else 1)
                out = element_add(model.field, out, element_scale(model.field, sign * coeff, piece))
            seen_below += 1
    return out


def derive_element(model: Model, kind: DiffKind, element: Element) -> Element:
    """Public face of the derivation extension."""
    return _derive(model, kind, element)


def build_model(
    k: int,
    field_name: str,
    tables: dict[DiffKind, dict[int, Element]],
    require_commute: bool = True,
) -> Model:
    """Validate and freeze a model.

    Over the rationals each table must raise exterior parity (generator
    images supported on even degrees), which is what makes the
    derivation square vanish on products; over the two-element field any
    square-zero table is allowed.
    """
    if not 1 <= k <= MAX_GENERATORS:
        raise ModelError(f"generator count must be between 1 and {MAX_GENERATORS}, got {k}")
    if field_name not in ("q", "gf2"):
        raise ModelError(f"unknown field {field_name!r}")
    if not tables:
        raise ModelError("a model needs at least one differential table")
    for kind, table in tables.items():
        for bit, image in table.items():
            if _popcount(bit) != 1 or bit >= (1 << k):
                raise ModelError(f"table key {bit} is not a generator bitmask")
            for mask in image:
                if mask >= (1 << k):
                    raise ModelError(f"image mask {mask} outside the algebra")
                if field_name == "q" and _popcount(mask) % 2:
                    raise ModelError(
                        f"{kind.token}(generator {bit.bit_length()}) has an"
                        " odd-degree component; rational tables must raise"
                        " parity"
                    )
    model = Model(k, field_name, {k_: dict(t) for k_, t in tables.items()})
    for kind in model.tables:
        for bit in model.tables[kind]:
            twice = _derive(model, kind, _derive(model, kind, {bit: Fraction(1)}))
            if twice:
                raise ModelError(f"{kind.token} does not square to zero on generator {bit.bit_length()}")
    if require_commute and len(model.tables) == 2:
        a, b = sorted(model.tables, key=lambda kk: kk.value)
        for bit in range(k):
            gen = {1 << bit: Fraction(1)}
            ab = _derive(model, a, _derive(model, b, gen))
            ba = _derive(model, b, _derive(model, a, gen))
            if element_add(model.field, ab, element_scale(model.field, Fraction(-1), ba)):
                raise ModelError("the two tables do not commute")
    return model


def evaluate(term: Term, model: Model, assignment: dict[str, Element]) -> Element:
    """Numeric value of a term: assignments for the generators, tables
    for the stacks, wedge for the products.  Overlap annotations carry
    no numeric content and are ignored."""
    total: Element = {}
    for mono, coeff in term:
        value = dict(ONE)
        for factor in mono.factors:
            name = factor.generator.name
            if name not in assignment:
                raise AssignmentError(f"no value assigned to {name}")
            v = assignment[name]
            for kind in factor.diffs:
                v = _derive(model, kind, v)
            value = wedge(model.field, value, v)
        total = element_add(model.field, total, element_scale(model.field, coeff, value))
    return total


def check_identity(
    lhs: Term, rhs: Term, model: Model, assignment: dict[str, Element]
) -> bool:
    left = evaluate(lhs, model, assignment)
    right = evaluate(rhs, model, assignment)
    return element_add(model.field, left, element_scale(model.field, Fraction(-1), right)) == {}


def random_element(
    model: Model, rng: random.Random, parity: int | None = None
) -> Element:
    out: Element = {}
    for mask in model.basis:
        if parity is not None and _popcount(mask) % 2 != parity % 2:
            continue
        c = Fraction(rng.randint(0, 1)) if model.field == "gf2" else Fraction(rng.randint(-3, 3))
        if c:
            out[mask] = c
    return out


def kernel_basis(model: Model, kind: DiffKind, parity: int | None = None) -> list[Element]:
    """Basis of the kernel of one extended derivation, by Gaussian
    elimination over the model's field."""
    cols = [
        m for m in model.basis
        if parity is None or _popcount(m) % 2 == parity % 2
    ]
    images = [_derive(model, kind, {m: Fraction(1)}) for m in cols]
    rows = sorted({mask for img in images for mask in img})
    matrix = [[img.get(r, Fraction(0)) for img in images] for r in rows]
    n_rows, n_cols = len(matrix), len(cols)

    def reduce_mod(v: Fraction) -> Fraction:
        return _coeff(model.field, v)

    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if reduce_mod(matrix[i][c])), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = 1 / matrix[r][c]
        matrix[r] = [reduce_mod(x * inv) for x in matrix[r]]
        for i in range(n_rows):
            if i != r and reduce_mod(matrix[i][c]):
                f = matrix[i][c]
                matrix[i] = [reduce_mod(x - f * y) for x, y in zip(matrix[i], matrix[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    basis: list[Element] = []
    pivot_set = set(pivot_cols)
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = {cols[free]: Fraction(1)}
        for row_idx, pc in enumerate(pivot_cols):
            coeff = reduce_mod(-matrix[row_idx][free])
            if coeff:
                vec[cols[pc]] = coeff
        basis.append(vec)
    return basis


def random_kernel_element(
    model: Model, kind: DiffKind, rng: random.Random, parity: int | None = None
) -> Element:
    return random_in_span(model, kernel_basis(model, kind, parity), rng)


def random_in_span(model: Model, basis: list[Element], rng: random.Random) -> Element:
    """Random combination of basis vectors with small coefficients."""
    out: Element = {}
    for vec in basis:
        c = Fraction(rng.randint(0, 1)) if model.field == "gf2" else Fraction(rng.randint(-2, 2))
        if c:
            out = element_add(model.field, out, element_scale(model.field, c, vec))
    return out


def corner_model() -> Model:
    """Two commuting square-zero tables over the two-element field whose
    composite is nonzero on the first generator."""
    one = Fraction(1)
    return build_model(
        4,
        "gf2",
        {
            DiffKind.delta: {1: {2: one}, 4: {8: one}},
            DiffKind.Delta: {1: {4: one}, 2: {8: one}},
        },
    )


def raising_model() -> Model:
    """Single rational table with a one-dimensional image, so any two
    elements with equal image wedge the image to zero."""
    one = Fraction(1)
    return build_model(
        4,
        "q",
        {DiffKind.delta: {1: {6: one}, 8: {6: one}}},
    )

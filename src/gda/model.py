"""Small exterior-algebra models for spot-checking symbolic identities.

A model carries k degree-one generators, a coefficient field (the
rationals or the two-element field), and one table per differential
mapping generators to algebra elements.  Tables extend to the whole
algebra as derivations and everything is checked numerically, so a
symbolic identity can be compared against honest arithmetic.

Elements are dicts from generator bitmask to coefficient; basis
products are ordered by ascending generator index.  Coefficients are
exact: an int wherever the value is integral and a Fraction only where
it is not, so over the two-element field every stored value is the
int 1.  Each derivation is computed once per model as the image of
every basis mask, and each kernel basis once per (kind, parity).
"""
from __future__ import annotations

import random
from collections.abc import Iterable
from fractions import Fraction

from .errors import AssignmentError, ModelError
from .terms import Coefficient, DiffKind, Monomial, Term, _frozen, _integral, _set

Element = dict[int, Coefficient]

MAX_GENERATORS = 6


def _crossing_parities(k: int) -> list[bytes]:
    # row `left`, column `right`: parity of the inversions between the
    # ascending generator lists, pairs (x in left, y in right) with x
    # above y.  A right side whose top generator is j crosses what the
    # same side without j crosses, plus the generators of left above j.
    flip = bytes.maketrans(b"\x00\x01", b"\x01\x00")
    rows = []
    for left in range(1 << k):
        row = b"\x00"
        for j in range(k):
            row += row.translate(flip) if (left >> (j + 1)).bit_count() % 2 else row
        rows.append(row)
    return rows


_ODD_CROSSINGS = _crossing_parities(MAX_GENERATORS)
# every mask an element can carry in a model of at most MAX_GENERATORS
_MASKS = frozenset(range(1 << MAX_GENERATORS))


def _coeff(field_name: str, value: Coefficient) -> Coefficient:
    """The exact value in the field: an int when integral, else a Fraction."""
    if type(value) is not int:
        value = _integral(value)
        if type(value) is not int:
            if field_name != "gf2":
                return value
            if value.denominator % 2 == 0:
                raise ModelError(
                    "coefficient with even denominator has no value in the"
                    " two-element field"
                )
            value = value.numerator
    return value & 1 if field_name == "gf2" else value


def _reduced(field_name: str, acc: dict[int, Coefficient]) -> Element:
    # the accumulated sums in the field, zero entries dropped
    if field_name == "gf2":
        return {m: 1 for m, c in acc.items() if (c & 1 if type(c) is int else _coeff(field_name, c))}
    return {m: c for m, c in acc.items() if c}


def wedge(field_name: str, a: Element, b: Element) -> Element:
    if not (_MASKS.issuperset(a) and _MASKS.issuperset(b)):
        bad = next(m for m in (*a, *b) if m not in _MASKS)
        raise ModelError(f"element mask {bad} outside the algebra")
    acc: dict[int, Coefficient] = {}
    if field_name == "gf2":
        for ma, ca in a.items():
            for mb, cb in b.items():
                if not ma & mb:
                    m = ma | mb
                    acc[m] = acc.get(m, 0) + ca * cb
    else:
        for ma, ca in a.items():
            odd = _ODD_CROSSINGS[ma]
            for mb, cb in b.items():
                if not ma & mb:
                    m = ma | mb
                    acc[m] = acc.get(m, 0) + (-ca * cb if odd[mb] else ca * cb)
    return _reduced(field_name, acc)


def _basis_image(field_name: str, table: dict[int, Element], mask: int) -> Element:
    # the derivation on one basis product: each generator in turn is
    # replaced by its image, with the sign of the generators before it
    acc: dict[int, Coefficient] = {}
    seen_below = 0
    m = mask
    while m:
        bit = m & -m
        m &= m - 1
        image = table.get(bit)
        if image:
            image = {im: _coeff(field_name, c) for im, c in image.items()}
            below = mask & (bit - 1)
            piece = wedge(field_name, {below: 1}, wedge(field_name, image, {m: 1}))
            negate = field_name == "q" and seen_below % 2
            for pm, c in piece.items():
                acc[pm] = acc.get(pm, 0) + (-c if negate else c)
        seen_below += 1
    return _reduced(field_name, acc)


class Model:
    """k generators over a field ("q" or "gf2"), one table per differential,
    and from the tables: each derivation's image of every basis mask, the
    basis masks per parity (None: all) and as a set, and the kernels
    solved per (kind, parity)."""

    __slots__ = ("k", "field", "tables", "images", "masks", "basis_set", "kernels")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, k: int, field: str, tables: dict[DiffKind, dict[int, Element]]):
        _set(self, "k", k)
        _set(self, "field", field)
        _set(self, "tables", tables)
        basis = list(range(1 << k))
        _set(self, "images", {
            kind: {mask: _basis_image(field, table, mask) for mask in basis}
            for kind, table in tables.items()
        })
        masks: dict[int | None, list[int]] = {None: basis, 0: [], 1: []}
        for mask in basis:
            masks[mask.bit_count() % 2].append(mask)
        _set(self, "masks", masks)
        _set(self, "basis_set", frozenset(basis))
        _set(self, "kernels", {})

    def __reduce__(self):
        # copies and unpickling rebuild from the tables
        return Model, (self.k, self.field, self.tables)


def derive_element(model: Model, kind: DiffKind, element: Element) -> Element:
    """The derivation extension of one table, applied to an element."""
    images = model.images.get(kind)
    if images is None:
        raise ModelError(f"model has no table for {kind.token}")
    acc: dict[int, Coefficient] = {}
    try:
        for mask, c in element.items():
            for m, v in images[mask].items():
                acc[m] = acc.get(m, 0) + c * v
    except KeyError:
        raise ModelError(f"element mask {mask} outside the algebra") from None
    return _reduced(model.field, acc)


def build_model(
    k: int,
    field_name: str,
    tables: dict[DiffKind, dict[int, Element]],
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
            if bit.bit_count() != 1 or bit >= (1 << k):
                raise ModelError(f"table key {bit} is not a generator bitmask")
            for mask in image:
                if mask >= (1 << k):
                    raise ModelError(f"image mask {mask} outside the algebra")
                if field_name == "q" and mask.bit_count() % 2:
                    raise ModelError(
                        f"{kind.token}(generator {bit.bit_length()}) has an"
                        " odd-degree component; rational tables must raise"
                        " parity"
                    )
    model = Model(k, field_name, {k_: dict(t) for k_, t in tables.items()})
    for kind, table in model.tables.items():
        for bit in table:
            if derive_element(model, kind, model.images[kind][bit]):
                raise ModelError(f"{kind.token} does not square to zero on generator {bit.bit_length()}")
    if len(model.tables) == 2:
        a, b = sorted(model.tables, key=lambda kk: kk.value)
        for bit in range(k):
            ab = derive_element(model, a, model.images[b][1 << bit])
            ba = derive_element(model, b, model.images[a][1 << bit])
            if ab != ba:
                raise ModelError("the two tables do not commute")
    return model


def evaluate(term: Term, model: Model, assignment: dict[str, Element]) -> Element:
    """Numeric value of a term: assignments for the generators, tables
    for the stacks, wedge for the products.  Overlap annotations carry
    no numeric content and are ignored.

    The summands are walked unsorted, since the sum does not depend on
    their order.  Each factor's value, and the product of each distinct
    run of leading factors, is computed once per call, so monomials
    that share a prefix share its multiplications.  A monomial stops
    multiplying once its product is zero, but its remaining factors
    still need a value in the algebra and a table, as does its
    coefficient a value in the field.  When one of those is missing,
    the walk is repeated in term order, so the error raised is the
    first monomial's in that order."""
    try:
        return _evaluate(term.summands(), model, assignment)
    except (AssignmentError, ModelError):
        return _evaluate(term.items(), model, assignment)


def _evaluate(
    summands: Iterable[tuple[Monomial, Coefficient]], model: Model, assignment: dict[str, Element]
) -> Element:
    field_name = model.field
    basis = model.basis_set
    values: dict[tuple, Element] = {}
    # a trie of factor prefixes: each node maps the next factor's sort
    # key, its generator name and stack, to the node it leads to and the
    # product of the prefix ending there
    root: dict = {}
    one: Element = {0: 1}
    acc: dict[int, Coefficient] = {}
    for mono, coeff in summands:
        node, product = root, one
        for factor in mono.factors:
            key = factor._key
            step = node.get(key)
            if step is None:
                v = values.get(key)
                if v is None:
                    name = key[0]
                    if name not in assignment:
                        raise AssignmentError(f"no value assigned to {name}")
                    v = assignment[name]
                    if not basis.issuperset(v):
                        bad = next(m for m in v if m not in basis)
                        raise ModelError(f"element mask {bad} outside the algebra")
                    for kind in factor.diffs:
                        v = derive_element(model, kind, v)
                    values[key] = v
                if product is one:
                    # wedge({0: 1}, v) without its products: v in the field
                    product = _reduced(field_name, v)
                elif product:
                    product = wedge(field_name, product, v)
                step = node[key] = ({}, product)
            node, product = step
        c = _coeff(field_name, coeff)
        if c:
            for m, v in product.items():
                acc[m] = acc.get(m, 0) + c * v
    return _reduced(field_name, acc)


def _draws(rng: random.Random, keys: Iterable, low: int, high: int) -> dict:
    # rng.randint(low, high) for each key in turn, without its call layers:
    # the same rejection sampling on getrandbits, so the same values and
    # end state; the nonzero draws by key
    width = high - low + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    out = {}
    for key in keys:
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        c = low + r
        if c:
            out[key] = c
    return out


def random_element(
    model: Model, rng: random.Random, parity: int | None = None
) -> Element:
    low, high = (0, 1) if model.field == "gf2" else (-3, 3)
    return _draws(rng, model.masks[None if parity is None else parity % 2], low, high)


def kernel_basis(model: Model, kind: DiffKind, parity: int | None = None) -> list[Element]:
    """Basis of the kernel of one extended derivation, by Gaussian
    elimination over the model's field.  Solved once per (kind, parity)
    on the model; every call gets fresh copies."""
    return [dict(vec) for vec in _kernel(model, kind, parity)]


def _kernel(model: Model, kind: DiffKind, parity: int | None) -> list[Element]:
    # the model's memo itself, for callers that only read it
    key = (kind, None if parity is None else parity % 2)
    basis = model.kernels.get(key)
    if basis is None:
        basis = model.kernels[key] = _solve_kernel(model, kind, key[1])
    return basis


def _solve_kernel(model: Model, kind: DiffKind, parity: int | None) -> list[Element]:
    cols = model.masks[parity]
    images = [derive_element(model, kind, {m: 1}) for m in cols]
    rows = sorted({mask for img in images for mask in img})
    matrix = [[img.get(r, 0) for img in images] for r in rows]
    n_rows, n_cols = len(matrix), len(cols)

    def reduce_mod(v: Coefficient) -> Coefficient:
        return _coeff(model.field, v)

    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if reduce_mod(matrix[i][c])), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = Fraction(1, matrix[r][c])
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
        vec = {cols[free]: 1}
        for row_idx, pc in enumerate(pivot_cols):
            coeff = reduce_mod(-matrix[row_idx][free])
            if coeff:
                vec[cols[pc]] = coeff
        basis.append(vec)
    return basis


def random_kernel_element(
    model: Model, kind: DiffKind, rng: random.Random, parity: int | None = None
) -> Element:
    return random_in_span(model, _kernel(model, kind, parity), rng)


def random_in_span(model: Model, basis: list[Element], rng: random.Random) -> Element:
    """Random combination of basis vectors with small coefficients."""
    low, high = (0, 1) if model.field == "gf2" else (-2, 2)
    acc: dict[int, Coefficient] = {}
    for i, c in _draws(rng, range(len(basis)), low, high).items():
        for m, v in basis[i].items():
            acc[m] = acc.get(m, 0) + c * v
    return _reduced(model.field, acc)


def corner_model() -> Model:
    """Two commuting square-zero tables over the two-element field whose
    composite is nonzero on the first generator."""
    return build_model(
        4,
        "gf2",
        {
            DiffKind.delta: {1: {2: 1}, 4: {8: 1}},
            DiffKind.Delta: {1: {4: 1}, 2: {8: 1}},
        },
    )


def raising_model() -> Model:
    """Single rational table with a one-dimensional image, so any two
    elements with equal image wedge the image to zero."""
    return build_model(4, "q", {DiffKind.delta: {1: {6: 1}, 8: {6: 1}}})

"""Exact noncommutative terms over a tri-indexed complex family.

A term is a rational linear combination of monomials; a monomial is an
ordered tuple of factors; a factor is a generator symbol with a stack of
differentials applied to it.  Nothing here ever commutes: (a, b) and
(b, a) are different monomials and stay that way.

Index bookkeeping: every generator carries an Index (n, m, kappa).  The
first differential shifts (n, m) by (+1, -1), the second shifts kappa by
+1.  A product of factors lands at the componentwise sum of the factor
indices, minus declared per-factor overlap counts (r on n, t on m).

Coefficients are exact: an int wherever the value is integral and a
fractions.Fraction only where it is not; a coefficient that is not an
int or a Fraction raises TypeError.

Indices, laws, bounds and generator symbols are named tuples.  Factors
and monomials are frozen slotted values that compute their hash once and
their sort key on first use; equal factors are shared through one table.
A term is a dict from monomial to nonzero coefficient: items() sorts it
for everything that shows an order (rendering, traces), summands() leaves
it unsorted for sums and lookups.
"""
from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from typing import ItemsView, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ArityError, CoherenceViolation, HeterogeneousSum, NameClash

FRESH_PREFIX = "_f"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*\Z")


class DiffKind(str, Enum):
    """The two differentials.  delta is the horizontal one (prints "d"),
    Delta the vertical one (prints "D")."""

    delta = "delta"
    Delta = "Delta"

    @property
    def token(self) -> str:
        return "d" if self is DiffKind.delta else "D"

    @property
    def other(self) -> "DiffKind":
        return DiffKind.Delta if self is DiffKind.delta else DiffKind.delta


# index shift per application, as (dn, dm, dkappa)
_SHIFTS = {DiffKind.delta: (1, -1, 0), DiffKind.Delta: (0, 0, 1)}


class Index(NamedTuple):
    n: int
    m: int
    kappa: int

    def __add__(self, other: "Index") -> "Index":
        return Index(self.n + other.n, self.m + other.m, self.kappa + other.kappa)

    def __sub__(self, other: "Index") -> "Index":
        return Index(self.n - other.n, self.m - other.m, self.kappa - other.kappa)

    def shifted(self, kind: DiffKind) -> "Index":
        dn, dm, dk = _SHIFTS[kind]
        return Index(self.n + dn, self.m + dm, self.kappa + dk)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n, self.m, self.kappa)

    def __str__(self) -> str:
        return f"({self.n},{self.m},{self.kappa})"


ZERO_INDEX = Index(0, 0, 0)


class IndexBounds(NamedTuple):
    """Optional componentwise bounds on admissible indices."""

    n_min: int | None = None
    n_max: int | None = None
    m_min: int | None = None
    m_max: int | None = None
    kappa_min: int | None = None
    kappa_max: int | None = None

    def check(self, index: Index, context: str = "") -> None:
        where = f" in {context}" if context else ""
        for value, lo, hi, name in (
            (index.n, self.n_min, self.n_max, "n"),
            (index.m, self.m_min, self.m_max, "m"),
            (index.kappa, self.kappa_min, self.kappa_max, "kappa"),
        ):
            if lo is not None and value < lo:
                raise CoherenceViolation(f"{name}={value} below bound {lo}{where}")
            if hi is not None and value > hi:
                raise CoherenceViolation(f"{name}={value} above bound {hi}{where}")


class DiffLaws(NamedTuple):
    """Structural laws the factor stacks obey.

    delta is always chain-cochain (two in a row kill the monomial); for
    Delta that is configurable.  commute says the two differentials may
    be reordered past each other, which also canonicalizes stacks.
    """

    Delta_chain_cochain: bool = False
    commute: bool = True

    def chain_cochain(self, kind: DiffKind) -> bool:
        if kind is DiffKind.delta:
            return True
        return self.Delta_chain_cochain


DEFAULT_LAWS = DiffLaws()


class GeneratorSymbol(NamedTuple):
    """A named generator of the complex, fixed to one space via its index.

    flags carries closedness declarations (dclosed, Dclosed); ideal
    membership lives in an IdealRegistry.  role is one of plain, picked,
    completion; it is bookkeeping for layouts only.
    """

    name: str
    index: Index
    flags: frozenset[str] = frozenset()
    role: str = "plain"
    fresh: bool = False

    def closed_under(self, kind: DiffKind) -> bool:
        return ("dclosed" if kind is DiffKind.delta else "Dclosed") in self.flags

    def __str__(self) -> str:
        return self.name


def canonical_stack(stack: tuple[DiffKind, ...], laws: DiffLaws = DEFAULT_LAWS) -> tuple[DiffKind, ...]:
    # with commuting differentials a stack is determined by its kind counts;
    # sort delta entries first so equal stacks compare equal
    if laws.commute and len(stack) > 1:
        return tuple(sorted(stack, key=lambda k: 0 if k is DiffKind.delta else 1))
    return stack


def stack_vanishes(stack: Sequence[DiffKind], laws: DiffLaws = DEFAULT_LAWS) -> bool:
    for a, b in zip(stack, stack[1:]):
        if a is b and laws.chain_cochain(a):
            return True
    return False


_set = object.__setattr__


def _frozen(self, name, *value):
    raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")


# equal factors built while the table holds one are one object; the table
# is emptied at its cap, so its size stays bounded, and equality stays by
# value, so a factor built after a clear equals one built before it
FACTOR_TABLE_CAP = 1 << 15
_FACTORS: dict[tuple[GeneratorSymbol, tuple[DiffKind, ...]], "Factor"] = {}


class Factor:
    """One generator with its applied differentials, innermost first.

    The sort key and the hash are computed once, when the factor is
    built; equality stays by value.  _pushes holds what differentials.py
    decides about pushing one differential onto this factor.
    """

    __slots__ = ("generator", "diffs", "_key", "_hash", "_pushes")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, generator: GeneratorSymbol, diffs: tuple[DiffKind, ...] = ()):
        factor = _FACTORS.get((generator, diffs))
        if factor is not None:
            return factor
        if len(_FACTORS) >= FACTOR_TABLE_CAP:
            _FACTORS.clear()
        factor = _FACTORS[generator, diffs] = object.__new__(cls)
        key = (generator.name, tuple(k.value for k in diffs))
        _set(factor, "generator", generator)
        _set(factor, "diffs", diffs)
        _set(factor, "_key", key)
        _set(factor, "_hash", hash(key))
        _set(factor, "_pushes", {})
        return factor

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Factor):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.generator == other.generator
            and self.diffs == other.diffs
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between processes
        return Factor, (self.generator, self.diffs)

    def __repr__(self) -> str:
        return f"Factor(generator={self.generator!r}, diffs={self.diffs!r})"

    @property
    def effective_index(self) -> Index:
        idx = self.generator.index
        for kind in self.diffs:
            idx = idx.shifted(kind)
        return idx

    def sort_key(self):
        return self._key

    def __str__(self) -> str:
        return self.generator.name + "".join("." + k.token for k in self.diffs)


class Monomial:
    """An ordered product of factors with per-factor overlap counts.

    The hash is computed when the monomial is built, the sort key and
    the printed form on first use; equality stays by value.
    """

    __slots__ = ("factors", "overlaps", "_hash", "_key", "_text")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, factors: tuple[Factor, ...], overlaps: tuple[tuple[int, int], ...] = ()):
        if not overlaps:
            overlaps = ((0, 0),) * len(factors)
        elif len(overlaps) != len(factors):
            raise ArityError(f"{len(overlaps)} overlap pairs for {len(factors)} factors")
        _set(self, "factors", factors)
        _set(self, "overlaps", overlaps)
        _set(self, "_hash", hash((factors, overlaps)))
        _set(self, "_key", None)
        _set(self, "_text", None)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Monomial):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.factors == other.factors
            and self.overlaps == other.overlaps
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between processes
        return Monomial, (self.factors, self.overlaps)

    def __repr__(self) -> str:
        return f"Monomial(factors={self.factors!r}, overlaps={self.overlaps!r})"

    @property
    def arity(self) -> int:
        return len(self.factors)

    def index(self, literal_m: bool = False) -> Index:
        """Resulting index of the product: n and kappa add; each factor's
        overlap count r is subtracted from n and t from m.  literal_m
        switches the m component to sum n_j - t_j instead of m_j - t_j
        (an alternative reading kept behind this flag)."""
        n = m = kappa = 0
        for f, (r, t) in zip(self.factors, self.overlaps):
            if r < 0 or t < 0:
                raise CoherenceViolation(f"negative overlap ({r},{t})")
            idx = f.effective_index
            n += idx.n - r
            m += (idx.n if literal_m else idx.m) - t
            kappa += idx.kappa
        return Index(n, m, kappa)

    def signature(self) -> str:
        """Choice-vector shaped string: I where a factor is differentiated."""
        return "".join("I" if f.diffs else "0" for f in self.factors)

    def sort_key(self):
        if self._key is None:
            key = (len(self.factors), tuple(f._key for f in self.factors), self.overlaps)
            _set(self, "_key", key)
        return self._key

    def __str__(self) -> str:
        if self._text is None:
            parts = []
            for f, (r, t) in zip(self.factors, self.overlaps):
                piece = str(f)
                if (r, t) != (0, 0):
                    piece += f"[r={r},t={t}]"
                parts.append(piece)
            _set(self, "_text", "(" + ", ".join(parts) + ")")
        return self._text


Coefficient = int | Fraction


def _integral(q: Coefficient) -> Coefficient:
    """q as an int when its value is integral, else q unchanged."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def _exact(coeff) -> Coefficient:
    """The coefficient as a plain int or a non-integral Fraction; anything
    but an int or a Fraction (a float above all) is refused rather than
    silently rounded."""
    if type(coeff) is int:
        return coeff
    if isinstance(coeff, int):
        return int(coeff)
    if isinstance(coeff, Fraction):
        return _integral(coeff)
    raise TypeError(
        f"term coefficients must be int or Fraction, not {type(coeff).__name__}"
    )


def exact_quotient(a: Coefficient, b: Coefficient) -> Coefficient:
    """a / b exactly: an int when the division is exact, else a Fraction."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _integral(Fraction(a) / b)


def _by_monomial(item: tuple[Monomial, Coefficient]):
    return item[0].sort_key()


class Term:
    """A finite rational combination of monomials, kept normalized:
    every stored coefficient is a nonzero int, or a Fraction whose
    denominator is not 1."""

    __slots__ = ("_summands",)

    def __init__(self, summands: Mapping[Monomial, Coefficient] | None = None):
        data: dict[Monomial, Coefficient] = {}
        if summands:
            for mono, coeff in summands.items():
                q = _exact(coeff)
                if q:
                    data[mono] = q
        self._summands = data

    # --- constructors -------------------------------------------------
    @classmethod
    def _from_normal(cls, summands: dict[Monomial, Coefficient]) -> "Term":
        """Adopt a dict that is already normal (nonzero int or
        non-integral Fraction values) without copying or checking it."""
        term = object.__new__(cls)
        term._summands = summands
        return term

    @classmethod
    def zero(cls) -> "Term":
        return cls()

    @classmethod
    def from_monomial(cls, monomial: Monomial, coeff: Coefficient = 1) -> "Term":
        return cls({monomial: coeff})

    @classmethod
    def from_factor(cls, factor: Factor, coeff: Coefficient = 1) -> "Term":
        return cls({Monomial((factor,)): coeff})

    # --- inspection ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._summands

    def items(self) -> list[tuple[Monomial, Coefficient]]:
        """(monomial, coefficient) pairs in monomial sort order, the
        order every rendering and trace shows."""
        return sorted(self._summands.items(), key=_by_monomial)

    def summands(self) -> ItemsView[Monomial, Coefficient]:
        """(monomial, coefficient) pairs in no particular order, for sums
        and lookups whose result does not depend on it."""
        return self._summands.items()

    def monomials(self) -> list[Monomial]:
        return [m for m, _ in self.items()]

    def coefficient(self, monomial: Monomial) -> Coefficient:
        return self._summands.get(monomial, 0)

    def __len__(self) -> int:
        return len(self._summands)

    def __iter__(self) -> Iterator[tuple[Monomial, Coefficient]]:
        return iter(self.items())

    def indices(self) -> set[Index]:
        return {m.index() for m in self._summands}

    def index(self) -> Index | None:
        """The common index of all monomials; None for zero or mixed terms."""
        idxs = self.indices()
        if len(idxs) == 1:
            return idxs.pop()
        return None

    # --- arithmetic ---------------------------------------------------
    def _merged(self, summands: Iterable[tuple[Monomial, Coefficient]]) -> "Term":
        merged = dict(self._summands)
        for mono, coeff in summands:
            total = merged.get(mono)
            if total is None:
                merged[mono] = coeff
            else:
                total += coeff
                if total:
                    merged[mono] = _integral(total)
                else:
                    del merged[mono]
        return Term._from_normal(merged)

    def __add__(self, other: "Term") -> "Term":
        return self._merged(other._summands.items())

    def __neg__(self) -> "Term":
        return Term._from_normal({m: -c for m, c in self._summands.items()})

    def __sub__(self, other: "Term") -> "Term":
        return self._merged((mono, -coeff) for mono, coeff in other._summands.items())

    def __mul__(self, other):
        if isinstance(other, Term):
            return multiply([self, other])
        q = _exact(other)
        if not q:
            return Term()
        return Term._from_normal({m: _integral(c * q) for m, c in self._summands.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Term) and self._summands == other._summands

    def __hash__(self) -> int:
        return hash(frozenset(self._summands.items()))

    def __str__(self) -> str:
        return render_term(self)

    def __repr__(self) -> str:
        return f"Term({render_term(self)})"


def add(left: Term, right: Term, strict: bool = True) -> Term:
    """Sum of two terms.  In strict mode both sides must be homogeneous
    of the same index; strict=False sums terms of any indices."""
    result = left + right
    if strict:
        idxs = left.indices() | right.indices()
        if len(idxs) > 1:
            raise HeterogeneousSum(
                "summands live in different spaces: " + ", ".join(sorted(map(str, idxs)))
            )
    return result


def scale(coeff: Coefficient, term: Term) -> Term:
    return term * coeff


def multiply(terms: Sequence[Term]) -> Term:
    """Ordered product of terms, fully distributed; each factor keeps
    the overlap pair its monomial carries."""
    # partial products stay bare tuples; each distinct product becomes
    # one Monomial at the end
    partial: list[tuple[tuple[Factor, ...], tuple[tuple[int, int], ...], Coefficient]] = [
        ((), (), 1)
    ]
    for term in terms:
        summands = term._summands.items()
        partial = [
            (factors + mono.factors, overlaps + mono.overlaps, acc * coeff)
            for factors, overlaps, acc in partial
            for mono, coeff in summands
        ]
        if not partial:
            break
    result: dict[Monomial, Coefficient] = {}
    for factors, overlaps, coeff in partial:
        mono = Monomial(factors, overlaps)
        total = result.get(mono)
        result[mono] = coeff if total is None else total + coeff
    return Term._from_normal({m: _integral(c) for m, c in result.items() if c})


def normalize(term: Term, laws: DiffLaws = DEFAULT_LAWS) -> Term:
    """Re-canonicalize factor stacks and drop monomials the laws kill.

    Terms built by the product rule are already normal; this is the one
    place where a term assembled from raw stacks meets the laws, so pass it
    through here before reducing it modulo the ideals.
    """
    out: dict[Monomial, Coefficient] = {}
    for mono, coeff in term.summands():
        factors = []
        dead = False
        for f in mono.factors:
            stack = canonical_stack(f.diffs, laws)
            if stack_vanishes(stack, laws):
                dead = True
                break
            factors.append(Factor(f.generator, stack))
        if dead:
            continue
        new = Monomial(tuple(factors), mono.overlaps)
        out[new] = out.get(new, 0) + coeff
    return Term(out)


# --- rendering --------------------------------------------------------

def _coeff_prefix(coeff: Coefficient) -> str:
    if coeff == 1:
        return ""
    if coeff == -1:
        return "-"
    return f"{coeff}*"


def render_term(term: Term) -> str:
    items = term.items()
    if not items:
        return "0"
    pieces = []
    for mono, coeff in items:
        pieces.append(_coeff_prefix(coeff) + str(mono))
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def render_equation(lhs: Term, rhs: Term) -> str:
    if lhs.is_zero:
        left = "0"
    else:
        items = lhs.items()
        if len(items) == 1 and items[0][1] == 1 and items[0][0].arity == 1:
            left = str(items[0][0].factors[0])
        else:
            left = render_term(lhs)
    return f"{left} = {render_term(rhs)}"


# --- registry ---------------------------------------------------------

class SymbolRegistry:
    """Session-scoped name table.  Names are unique; fresh names come
    from a counter and use a prefix users cannot declare."""

    def __init__(self):
        self._symbols: dict[str, GeneratorSymbol] = {}
        self._fresh_count = 0

    def declare(
        self,
        name: str,
        index: Index,
        flags: Iterable[str] = (),
        role: str = "plain",
    ) -> GeneratorSymbol:
        if not _NAME_RE.match(name):
            raise NameClash(f"invalid generator name {name!r}")
        if name.startswith(FRESH_PREFIX):
            raise NameClash(f"{name!r} uses the reserved fresh prefix {FRESH_PREFIX!r}")
        if name in self._symbols:
            raise NameClash(f"generator {name!r} already declared")
        sym = GeneratorSymbol(name, index, frozenset(flags), role)
        self._symbols[name] = sym
        return sym

    def fresh(self, index: Index) -> GeneratorSymbol:
        self._fresh_count += 1
        name = f"{FRESH_PREFIX}{self._fresh_count}"
        sym = GeneratorSymbol(name, index, fresh=True)
        self._symbols[name] = sym
        return sym

    def get(self, name: str) -> GeneratorSymbol:
        try:
            return self._symbols[name]
        except KeyError:
            raise NameClash(f"unknown generator {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._symbols)


"""Session files: tokenizer, parser, canonical printer, builder.

A session file is a list of statements, each ended by a semicolon, with
``#`` comments.  Statements keep their surface syntax so a parsed file
prints back canonically; resolution against the session configuration
(which differential the ``d(...)`` wrapper means, which closed flag a
generator gets) happens when the session is built.
"""
from __future__ import annotations

import re
from dataclasses import replace as dc_replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .conditions import Condition, check_coherence
from .differentials import EpsilonMode, SignMode
from .errors import GdaError, GdaSyntaxError, HypothesisError, NameClash
from .ideals import IdealKind, IdealRegistry
from .terms import (
    ZERO_INDEX,
    DiffKind,
    DiffLaws,
    Factor,
    GeneratorSymbol,
    Index,
    IndexBounds,
    Monomial,
    SymbolRegistry,
    Term,
    normalize,
)
from .verifier import (
    ClosureSet,
    VerifierSetup,
    build_class,
    build_closure_set,
)

class Setting(NamedTuple):
    """What a `set` key sets: a VerifierSetup field, a DiffLaws field or
    literal_m; and the values it accepts, by their text."""

    field: str
    values: Mapping[str, object]


def _by_text(enum) -> dict[str, object]:
    return {member.value: member for member in enum}


_ON_OFF = {"on": True, "off": False}
# every `set` key but `bound KEY`, where KEY is an IndexBounds field with - for _
SETTINGS = {
    "d": Setting("d", _by_text(DiffKind)),
    "sign-mode": Setting("sign", _by_text(SignMode)),
    "epsilon-mode": Setting("epsilon_mode", _by_text(EpsilonMode)),
    "literal-m-coherence": Setting("literal_m", _ON_OFF),
    "Delta-chain-cochain": Setting("Delta_chain_cochain", _ON_OFF),
    "commute": Setting("commute", _ON_OFF),
}
_BOUNDS = {field.replace("_", "-"): field for field in IndexBounds._fields}


def _integer(text: str) -> int:
    """int() of a digit string with an optional minus; past the
    interpreter's limit on digits, a ValueError that counts them."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"integer literal too long ({len(text.lstrip('-'))} digits)") from None


# --- statements -------------------------------------------------------

def _located(cls):
    """A record whose fields from `line` on say where it stands in a file:
    the line and column (1-based, 0 when built in code) of its first
    token, and for a definition those of each name in it.  It compares
    and hashes by what it says, not where: those fields are left out."""
    cut = cls._fields.index("line")
    cls.__eq__ = lambda self, other: type(other) is type(self) and self[:cut] == other[:cut]
    cls.__ne__ = lambda self, other: not self == other
    cls.__hash__ = lambda self: hash(self[:cut])
    return cls


@_located
class FactorExpr(NamedTuple):
    """Surface form of one factor: a generator name, differential
    wrappers innermost first, an optional overlap suffix, and where the
    name stands."""

    name: str
    wraps: tuple[str, ...] = ()
    r: int = 0
    t: int = 0
    line: int = 0
    column: int = 0

    def render(self) -> str:
        out = self.name
        for w in self.wraps:
            out = f"{w}({out})"
        if self.r or self.t:
            out += f"[r={self.r},t={self.t}]"
        return out


@_located
class SetStatement(NamedTuple):
    key: str
    value: str
    line: int = 0
    column: int = 0

    def render(self) -> str:
        return f"set {self.key} {self.value};"


@_located
class GenStatement(NamedTuple):
    name: str
    index: Index
    flags: tuple[str, ...] = ()
    line: int = 0
    column: int = 0

    def render(self) -> str:
        out = f"gen {self.name} index {self.index}"
        if self.flags:
            out += f" flags [{', '.join(self.flags)}]"
        return out + ";"


@_located
class IdealStatement(NamedTuple):
    kind: str
    pattern: FactorExpr
    line: int = 0
    column: int = 0

    def render(self) -> str:
        return f"ideal {self.kind} {self.pattern.render()};"


@_located
class ConditionStatement(NamedTuple):
    label: str
    lhs: FactorExpr | None
    rhs: tuple[FactorExpr, ...]
    line: int = 0
    column: int = 0

    def render(self) -> str:
        lhs = "0" if self.lhs is None else self.lhs.render()
        rhs = ", ".join(f.render() for f in self.rhs)
        return f"condition ({self.label}) {lhs} = ({rhs});"


# statement -> (WORD, number of heads or None for any number, what a
# second NAME is reported as, the message for a wrong completion count);
# no command reads a completion, which is only checked
DEFINITIONS = {
    "completion": ("complete", None, "completion",
                   "{heads} picked elements need {need} completion factors, got {got}"),
    "hypotheses": ("closure", 2, "closure set", "closure needs exactly {need} completion factors"),
    "class": ("invariant", 1, "class", "a class needs exactly {need} completion factors"),
}


@_located
class Definition(NamedTuple):
    """``STATEMENT NAME := WORD(HEADS; COMPLETIONS);`` for each
    statement in DEFINITIONS; `at` holds the line and column of each head
    and then each completion, or nothing when built in code."""

    statement: str
    name: str
    heads: tuple[str, ...]
    completions: tuple[str, ...]
    line: int = 0
    column: int = 0
    at: tuple[tuple[int, int], ...] = ()

    def render(self) -> str:
        return (
            f"{self.statement} {self.name} := {DEFINITIONS[self.statement][0]}("
            f"{', '.join(self.heads)}; {', '.join(self.completions)});"
        )


Statement = SetStatement | GenStatement | IdealStatement | ConditionStatement | Definition


def print_session(statements: list[Statement]) -> str:
    return "\n".join(s.render() for s in statements) + "\n"


# --- tokenizer --------------------------------------------------------

class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<assign>:=)"
    r"|(?P<number>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<punct>[()\[\],;=\-])"
)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise GdaSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1, filename
            )
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind not in ("ws", "comment"):
            tokens.append(
                Token(kind, match.group(), line, match.start() - line_start + 1)
            )
        pos = match.end()
    tokens.append(Token("end", "", line, pos - line_start + 1))
    return tokens


# --- parser -----------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def error(self, message: str, token: Token | None = None) -> GdaSyntaxError:
        tok = token or self.peek()
        return GdaSyntaxError(message, tok.line, tok.column, self.filename)

    def expect(self, text: str | None = None, kind: str | None = None) -> Token:
        tok = self.peek()
        if (kind is not None and tok.kind != kind) or (
            text is not None and tok.text != text
        ):
            want = repr(text) if text is not None else f"a {kind}"
            got = repr(tok.text) if tok.text else "end of input"
            raise self.error(f"expected {want}, got {got}")
        return self.advance()

    # pieces

    def name(self) -> str:
        return self.expect(kind="name").text

    def items(self, item: Callable[[], object], count: int | None = None) -> tuple:
        """Comma-separated items: exactly count of them, or as many as follow."""
        found = [item()]
        while len(found) < count if count else self.peek().text == ",":
            self.expect(",")
            found.append(item())
        return tuple(found)

    def hyphen_name(self) -> str:
        parts = [self.name()]
        while (
            self.peek().text == "-"
            and self.pos + 1 < len(self.tokens)
            and self.tokens[self.pos + 1].kind == "name"
        ):
            self.advance()
            parts.append(self.name())
        return "-".join(parts)

    def signed_int(self) -> int:
        negative = False
        if self.peek().text == "-":
            self.advance()
            negative = True
        tok = self.expect(kind="number")
        try:
            value = _integer(tok.text)
        except ValueError as err:
            raise self.error(str(err), tok) from None
        return -value if negative else value

    def index(self) -> Index:
        self.expect("(")
        index = Index(*self.items(self.signed_int, 3))
        self.expect(")")
        return index

    def fexpr(self) -> FactorExpr:
        # a loop, not recursion, so any depth of wrappers parses
        wraps: list[str] = []
        tok = self.expect(kind="name")
        while tok.text in ("d", "D") and self.peek().text == "(":
            self.advance()
            wraps.append(tok.text)
            tok = self.expect(kind="name")
        for _ in wraps:
            self.expect(")")
        return FactorExpr(tok.text, tuple(reversed(wraps)), line=tok.line, column=tok.column)

    def fexpr_with_overlap(self) -> FactorExpr:
        fe = self.fexpr()
        if self.peek().text == "[":
            self.advance()
            self.expect("r")
            self.expect("=")
            r = self.signed_int()
            self.expect(",")
            self.expect("t")
            self.expect("=")
            t = self.signed_int()
            self.expect("]")
            fe = fe._replace(r=r, t=t)
        return fe

    # statements

    def statement(self) -> Statement:
        head = self.expect(kind="name")
        if head.text in DEFINITIONS:
            statement = self.definition(head.text)
        else:
            handler = getattr(self, f"stmt_{head.text}", None)
            if handler is None:
                raise self.error(f"unknown statement {head.text!r}", head)
            statement = handler()
        return statement._replace(line=head.line, column=head.column)

    def definition(self, statement: str) -> Definition:
        word, heads = DEFINITIONS[statement][:2]
        name = self.name()
        self.expect(":=")
        self.expect(word)
        self.expect("(")
        token = partial(self.expect, kind="name")
        head_tokens = self.items(token, heads)
        self.expect(";")
        completion_tokens = self.items(token)
        self.expect(")")
        self.expect(";")
        return Definition(
            statement, name,
            tuple(tok.text for tok in head_tokens),
            tuple(tok.text for tok in completion_tokens),
            at=tuple((tok.line, tok.column) for tok in head_tokens + completion_tokens),
        )

    def stmt_set(self) -> SetStatement:
        key = self.hyphen_name()
        if key == "bound":
            key = f"bound {self.hyphen_name()}"
        if self.peek().kind == "name":
            value = self.hyphen_name()
        else:
            value = str(self.signed_int())
        self.expect(";")
        return SetStatement(key, value)

    def stmt_gen(self) -> GenStatement:
        name = self.name()
        self.expect("index")
        idx = self.index()
        flags: tuple[str, ...] = ()
        if self.peek().text == "flags":
            self.advance()
            self.expect("[")
            flags = self.items(self.name)
            self.expect("]")
        self.expect(";")
        return GenStatement(name, idx, flags)

    def stmt_ideal(self) -> IdealStatement:
        kind = self.expect(kind="name")
        if kind.text not in _by_text(IdealKind):
            raise self.error(f"unknown ideal kind {kind.text!r}", kind)
        pattern = self.fexpr()
        self.expect(";")
        return IdealStatement(kind.text, pattern)

    def stmt_condition(self) -> ConditionStatement:
        self.expect("(")
        label = ""
        while self.peek().text != ")":
            if self.peek().kind == "end":
                raise self.error("unclosed condition label")
            label += self.advance().text
        self.expect(")")
        if self.peek().text == "0":
            self.advance()
            lhs = None
        else:
            lhs = self.fexpr()
        self.expect("=")
        self.expect("(")
        rhs = self.items(self.fexpr_with_overlap)
        self.expect(")")
        self.expect(";")
        return ConditionStatement(label, lhs, rhs)


def parse_text(text: str, filename: str = "<input>") -> list[Statement]:
    parser = _Parser(tokenize(text, filename), filename)
    statements: list[Statement] = []
    while parser.peek().kind != "end":
        statements.append(parser.statement())
    return statements


def parse_file(path: str | Path) -> list[Statement]:
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        before = _universal_newlines(data[: err.start].decode("utf-8"))
        raise GdaSyntaxError(
            f"invalid UTF-8 byte {data[err.start]:#04x}",
            before.count("\n") + 1, len(before) - before.rfind("\n"), str(path),
        ) from None
    return parse_text(_universal_newlines(text), str(path))


def _universal_newlines(text: str) -> str:
    # what reading the file in text mode gives
    return text.replace("\r\n", "\n").replace("\r", "\n")


# --- session building -------------------------------------------------

class Session(NamedTuple):
    registry: SymbolRegistry
    ideals: IdealRegistry
    conditions: list[Condition]
    hypothesis_decls: dict[str, Definition]
    class_decls: dict[str, Definition]
    setup: VerifierSetup
    bounds: IndexBounds
    literal_m: bool
    statements: list[Statement]

    def factor(self, name: str) -> Factor:
        return Factor(self.registry.get(name))

    def closure_set(self, name: str | None = None) -> ClosureSet:
        if name is None:
            if len(self.hypothesis_decls) != 1:
                raise HypothesisError(
                    f"session declares {len(self.hypothesis_decls)} closure"
                    " sets; name one"
                )
            name = next(iter(self.hypothesis_decls))
        if name not in self.hypothesis_decls:
            raise NameClash(f"unknown closure set {name!r}")
        decl = self.hypothesis_decls[name]
        first, second = decl.heads
        return build_closure_set(
            self.factor(first),
            self.factor(second),
            tuple(self.factor(c) for c in decl.completions),
            self.ideals,
            self.setup,
        )

    def class_parts(self, name: str) -> tuple[Factor, tuple[Factor, ...]]:
        if name not in self.class_decls:
            raise NameClash(f"unknown class {name!r}")
        decl = self.class_decls[name]
        return self.factor(decl.heads[0]), tuple(self.factor(c) for c in decl.completions)

    def class_term(self, name: str) -> Term:
        phi, comps = self.class_parts(name)
        return build_class(phi, comps, self.setup)


def build_session(
    statements: list[Statement],
    filename: str = "<input>",
    settings: Mapping[str, str] | None = None,
) -> Session:
    """Build a session from parsed statements.

    settings maps ``set`` keys to values.  They act as ``set`` lines
    ahead of the file, and the file's own ``set`` lines for those keys
    are skipped, so a setting wins over the file.  Every ``set`` line
    acts before any declaration, wherever it stands in the file.
    """
    settings = dict(settings or {})
    registry = SymbolRegistry()
    ideals = IdealRegistry()
    setup = VerifierSetup()
    literal_m = False
    bounds = IndexBounds()
    conditions: list[Condition] = []
    definitions: dict[str, dict[str, Definition]] = {statement: {} for statement in DEFINITIONS}

    def wrap_kind(letter: str) -> DiffKind:
        return setup.d if letter == "d" else setup.d.other

    def generator(name: str, line: int, column: int) -> GeneratorSymbol:
        # an unknown name is reported where it stands, not at its statement
        try:
            return registry.get(name)
        except NameClash as err:
            raise GdaSyntaxError(str(err), line, column, filename) from err

    def resolve(fe: FactorExpr) -> Factor:
        sym = generator(fe.name, fe.line, fe.column)
        return Factor(sym, tuple(wrap_kind(w) for w in fe.wraps))

    def fail(message: str) -> GdaSyntaxError:
        return GdaSyntaxError(message, st.line, st.column, filename)

    given = [SetStatement(key, value) for key, value in settings.items()]
    kept = [s for s in statements if not (isinstance(s, SetStatement) and s.key in settings)]
    kept.sort(key=lambda s: not isinstance(s, SetStatement))  # stable: file order within each
    for st in given + kept:
        try:
            if isinstance(st, SetStatement):
                key, value = st.key, st.value
                if key.startswith("bound "):
                    bound = key.split(" ", 1)[1]
                    if bound not in _BOUNDS:
                        raise fail(f"unknown bound {bound!r}")
                    if not re.fullmatch(r"-?\d+", value):
                        raise fail(f"bound {bound} must be an integer, got {value!r}")
                    bounds = bounds._replace(**{_BOUNDS[bound]: _integer(value)})
                elif key not in SETTINGS:
                    raise fail(f"unknown setting {key!r}")
                else:
                    field, values = SETTINGS[key]
                    if value not in values:
                        raise fail(f"{key} must be {' or '.join(values)}, got {value!r}")
                    if field == "literal_m":
                        literal_m = values[value]
                    elif field in DiffLaws._fields:
                        laws = setup.laws._replace(**{field: values[value]})
                        setup = dc_replace(setup, laws=laws)
                    else:
                        setup = dc_replace(setup, **{field: values[value]})
            elif isinstance(st, GenStatement):
                if st.name in ("d", "D"):
                    raise fail(f"generator name {st.name!r} is reserved")
                closed: list[str] = []
                role = "plain"
                for flag in st.flags:
                    if flag in ("dclosed", "Dclosed"):
                        kind = setup.d if flag == "dclosed" else setup.d.other
                        closed.append(f"{kind.token}closed")
                    elif flag in ("picked", "completion"):
                        role = flag
                    else:
                        raise fail(f"unknown flag {flag!r}")
                bounds.check(st.index, st.name)
                registry.declare(st.name, st.index, closed, role)
            elif isinstance(st, IdealStatement):
                if st.pattern.r or st.pattern.t:
                    raise fail("ideal patterns take no overlap suffix")
                ideals.register(IdealKind(st.kind), resolve(st.pattern), setup.laws)
            elif isinstance(st, ConditionStatement):
                factors = [resolve(fe) for fe in st.rhs]
                overlaps = tuple((fe.r, fe.t) for fe in st.rhs)
                mono = Monomial(tuple(factors), overlaps)
                sig = mono.signature()
                if st.label != sig:
                    raise fail(
                        f"label ({st.label}) does not match the right-hand"
                        f" side signature ({sig})"
                    )
                rhs = normalize(Term.from_monomial(mono), setup.laws)
                if st.lhs is None:
                    lhs = Term.zero()
                    expected = ZERO_INDEX
                else:
                    lhs_factor = resolve(st.lhs)
                    lhs = normalize(Term.from_factor(lhs_factor), setup.laws)
                    expected = lhs_factor.effective_index
                cond = Condition(st.label, lhs, rhs, expected)
                check_coherence(cond, literal_m)
                conditions.append(cond)
            elif isinstance(st, Definition):
                word, heads, noun, count_error = DEFINITIONS[st.statement]
                defined = definitions[st.statement]
                if st.name in defined:
                    raise fail(f"{noun} {st.name!r} already defined")
                names = (*st.heads, *st.completions)
                for n, (line, column) in zip(names, st.at or [(st.line, st.column)] * len(names)):
                    generator(n, line, column)
                if heads and len(st.heads) != heads:
                    raise fail(f"{word} needs exactly {heads} head(s), got {len(st.heads)}")
                need = 4 if heads else len(st.heads) + 1
                if len(st.completions) != need:
                    raise fail(count_error.format(
                        heads=len(st.heads), need=need, got=len(st.completions)
                    ))
                defined[st.name] = st
            else:
                raise fail(f"unhandled statement {type(st).__name__}")
        except GdaSyntaxError:
            raise
        except (GdaError, ValueError) as err:
            raise fail(str(err)) from err

    return Session(
        registry, ideals, conditions, definitions["hypotheses"], definitions["class"],
        setup, bounds, literal_m, list(statements),
    )


def load_session(path: str | Path, settings: Mapping[str, str] | None = None) -> Session:
    path = Path(path)
    return build_session(parse_file(path), str(path), settings)

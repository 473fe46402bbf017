"""Session language: tokens, statements, canonical printing, builds."""
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gda import (
    DiffKind,
    GdaSyntaxError,
    HypothesisError,
    Index,
    NameClash,
    SignMode,
    build_session,
    load_session,
    parse_text,
    print_session,
)
from gda.dsl import (
    SETTINGS,
    Definition,
    FactorExpr,
    GenStatement,
    IdealStatement,
    SetStatement,
)

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"
# one digit past the interpreter's limit on int() of a string
LONG = "9" * 4301
LONG_ERROR = "error: integer literal too long (4301 digits)"


def build(text):
    return build_session(parse_text(text))


def test_parse_reports_position():
    with pytest.raises(GdaSyntaxError) as err:
        parse_text("gen a index (1,0,0)")
    assert err.value.line == 1
    assert err.value.column == 20
    assert str(err.value).startswith("<input>:1:20: error:")


def test_unknown_statement_rejected():
    with pytest.raises(GdaSyntaxError, match="unknown statement"):
        parse_text("frobnicate a;")


def test_comments_and_blank_lines_are_skipped():
    stmts = parse_text("# header\n\ngen a index (1,0,0); # trailing\n")
    assert len(stmts) == 1
    assert stmts[0].render() == "gen a index (1,0,0);"


def test_statement_line_numbers_survive():
    stmts = parse_text("# one\ngen a index (1,0,0);\ngen b index (0,1,0);")
    assert [st.line for st in stmts] == [2, 3]


def test_set_statements_configure_session():
    s = build(
        "set d Delta;\n"
        "set sign-mode koszul;\n"
        "set literal-m-coherence on;\n"
        "set bound n-min 0;\n"
    )
    assert s.setup.d is DiffKind.Delta
    assert s.setup.sign is SignMode.koszul
    assert s.literal_m is True
    assert s.bounds.n_min == 0


def test_set_rejects_unknown_keys_and_values():
    with pytest.raises(GdaSyntaxError, match="unknown setting"):
        build("set flavor blue;")
    with pytest.raises(GdaSyntaxError, match="on or off"):
        build("set commute maybe;")
    with pytest.raises(GdaSyntaxError, match="delta or Delta"):
        build("set d gamma;")
    # a bound given as a setting is read as the parser reads a literal
    for value in (LONG, f"-{LONG}"):
        with pytest.raises(GdaSyntaxError) as err:
            build_session(parse_text("gen a index (1,0,0);"), "x.gda", {"bound n-min": value})
        assert str(err.value) == f"x.gda:0:0: {LONG_ERROR}"


def test_settings_act_as_leading_set_lines_and_win():
    stmts = parse_text("set d delta;\ngen b index (0,1,0) flags [dclosed];")
    s = build_session(stmts, settings={"d": "Delta", "literal-m-coherence": "on"})
    assert s.setup.d is DiffKind.Delta
    assert s.registry.get("b").closed_under(DiffKind.Delta)
    assert s.literal_m is True
    # the session keeps the file's own statements
    assert s.statements == stmts


def test_build_errors_report_the_statement_column():
    with pytest.raises(GdaSyntaxError) as err:
        build("gen a index (1,0,0);\n  gen a index (0,1,0);")
    assert (err.value.line, err.value.column) == (2, 3)
    assert str(err.value).startswith("<input>:2:3: error:")


def test_gen_reserved_names_and_flags():
    with pytest.raises(GdaSyntaxError, match="reserved"):
        build("gen d index (0,0,0);")
    with pytest.raises(GdaSyntaxError, match="unknown flag"):
        build("gen a index (0,0,0) flags [sticky];")
    s = build("gen a index (0,0,0) flags [dclosed, picked];")
    sym = s.registry.get("a")
    assert sym.closed_under(DiffKind.delta)
    assert sym.role == "picked"


def test_gen_dclosed_follows_session_differential():
    # with d = Delta the dclosed flag tracks Delta, not delta; a set line
    # acts before every declaration, wherever it stands
    for text in (
        "set d Delta;\ngen a index (0,0,0) flags [dclosed];",
        "gen a index (0,0,0) flags [dclosed];\nset d Delta;",
    ):
        s = build(text)
        assert s.registry.get("a").closed_under(DiffKind.Delta)
        assert not s.registry.get("a").closed_under(DiffKind.delta)


def test_gen_respects_bounds():
    # a late bound still checks the generators above it, at their line
    for text, line in (
        ("set bound n-min 0;\ngen a index (-1,0,0);", 2),
        ("gen a index (-1,0,0);\nset bound n-min 0;", 1),
    ):
        with pytest.raises(GdaSyntaxError, match="below bound") as err:
            build(text)
        assert err.value.line == line


def test_ideal_statement_registers_membership():
    from gda import IdealKind, Factor
    s = build("gen a index (1,1,0);\nideal nonlocal2 d(a);")
    member = Factor(s.registry.get("a"), (DiffKind.delta,))
    assert s.ideals.is_member(IdealKind.nonlocal2, member)


def test_ideal_statement_rejects_overlap():
    # the grammar already stops an overlap suffix here
    with pytest.raises(GdaSyntaxError, match="expected ';'"):
        build("gen a index (1,1,0);\nideal nonlocal2 a[r=1,t=0];")
    # and the builder guards statements constructed programmatically
    from gda.dsl import FactorExpr, GenStatement, IdealStatement
    stmts = [
        GenStatement("a", Index(1, 1, 0)),
        IdealStatement("nonlocal2", FactorExpr("a", (), 1, 0)),
    ]
    with pytest.raises(GdaSyntaxError, match="no overlap"):
        build_session(stmts)


def test_condition_statement_checks_label():
    text = (
        "gen g index (-2,0,0);\n"
        "gen p index (0,1,0);\n"
        "condition (I) d(g) = (p);\n"
    )
    with pytest.raises(GdaSyntaxError, match="does not match"):
        build(text)


def test_condition_statement_checks_coherence():
    for text in (
        "gen g index (0,0,0);\ngen p index (0,1,0);\ncondition (0) d(g) = (p);\n",
        # coherent in m = sum m_j - t_j, not in the literal m = sum n_j - t_j,
        # which a late set line still selects
        "gen g index (-2,0,0);\ngen p index (0,1,0);\ncondition (0) d(g) = (p[r=1,t=2]);\n"
        "set literal-m-coherence on;\n",
    ):
        with pytest.raises(GdaSyntaxError):
            build(text)


def test_condition_statement_accepts_coherent_declaration():
    text = (
        "gen g index (-2,0,0);\n"
        "gen p index (0,1,0);\n"
        "condition (0) d(g) = (p[r=1,t=2]);\n"
    )
    s = build(text)
    assert len(s.conditions) == 1
    assert s.conditions[0].kind == "differential"


def test_class_and_hypotheses_need_four_completions():
    base = (
        "gen phi index (1,1,0);\n"
        "gen eta index (1,1,0);\n"
        "gen P1 index (0,2,0);\n"
        "gen P2 index (2,0,1);\n"
        "gen P3 index (1,0,0);\n"
        "gen P4 index (0,1,0);\n"
        "ideal nonlocal2 d(phi);\n"
        "ideal nonlocal2 d(eta);\n"
    )
    with pytest.raises(GdaSyntaxError, match="exactly 4"):
        build(base + "class C := invariant(phi; P1, P2, P3);")
    with pytest.raises(GdaSyntaxError, match="exactly 4"):
        build(base + "hypotheses H := closure(phi, eta; P1, P2);")
    s = build(
        base
        + "hypotheses H := closure(phi, eta; P1, P2, P3, P4);\n"
        + "class C := invariant(phi; P1, P2, P3, P4);"
    )
    assert len(s.closure_set("H").conditions) == 54
    assert s.class_term("C").index() is not None


def test_definitions_built_in_code_need_their_head_count():
    # the parser reads exactly the heads a statement takes; a Definition
    # built in code must meet the same count when the session is built
    base = parse_text(
        "gen phi index (1,1,0);\ngen eta index (1,1,0);\n"
        + "".join(f"gen P{i} index (0,0,0);\n" for i in range(1, 5))
        + "ideal nonlocal2 d(phi);\nideal nonlocal2 d(eta);\n"
    )
    comps = ("P1", "P2", "P3", "P4")
    for statement, heads, word, need in (
        ("hypotheses", ("phi",), "closure", 2),
        ("class", ("phi", "eta"), "invariant", 1),
    ):
        bad = Definition(statement, "X", heads, comps, 7, 3)
        with pytest.raises(GdaSyntaxError) as err:
            build_session(base + [bad], "x.gda")
        assert str(err.value) == (
            f"x.gda:7:3: error: {word} needs exactly {need} head(s), got {len(heads)}"
        )
    good = build_session(base + [Definition("hypotheses", "H", ("phi", "eta"), comps)])
    assert good.hypothesis_decls["H"].heads == ("phi", "eta")


def test_closure_preconditions_are_checked_after_every_statement():
    # the ideal lines may follow the hypotheses line; a head whose d is
    # in no ideal is reported at the head once every statement has acted
    heads = "gen phi index (1,1,0);\ngen eta index (1,1,0);\ngen P index (0,0,0);\n"
    closure = "hypotheses H := closure(phi, eta; P, P, P, P);\n"
    session = build_session(parse_text(heads + closure + "ideal nonlocal2 d(phi);\nideal nonlocal2 d(eta);\n"))
    assert list(session.hypothesis_decls) == ["H"]
    with pytest.raises(GdaSyntaxError) as err:
        build_session(parse_text(heads + closure + "ideal nonlocal2 d(eta);\n"), "x.gda")
    assert str(err.value) == (
        "x.gda:4:25: error: d(phi) must be registered in the non-local order-2"
        " ideal before closure conditions can be formed"
    )


def test_duplicate_class_names_rejected():
    text = (
        "gen phi index (1,1,0);\n"
        "gen P1 index (0,2,0);\n"
        "gen P2 index (2,0,1);\n"
        "gen P3 index (1,0,0);\n"
        "gen P4 index (0,1,0);\n"
        "class C := invariant(phi; P1, P2, P3, P4);\n"
        "class C := invariant(phi; P1, P2, P3, P4);"
    )
    with pytest.raises(GdaSyntaxError, match="already defined"):
        build(text)


def test_completion_statement_is_checked_at_build():
    base = "gen phi index (1,1,0);\ngen P1 index (0,2,0);\ngen P2 index (2,0,1);\n"
    with pytest.raises(GdaSyntaxError, match="unknown generator 'Q'"):
        build(base + "completion C := complete(phi; P1, Q);")
    with pytest.raises(GdaSyntaxError) as err:
        build(base + "  completion C := complete(phi; P1);")
    assert str(err.value) == (
        "<input>:4:3: error: 1 picked elements need 2 completion factors, got 1"
    )
    with pytest.raises(GdaSyntaxError, match="completion 'C' already defined"):
        build(base + "completion C := complete(phi; P1, P2);\n"
              "completion C := complete(phi; P2, P1);")
    text = base + "completion C := complete(phi; P1, P2);\n"
    stmts = parse_text(text)
    assert print_session(stmts) == text
    assert build_session(stmts).statements == stmts


def test_session_closure_default_requires_single_declaration():
    s = build("gen a index (1,1,0);")
    with pytest.raises(HypothesisError):
        s.closure_set()
    with pytest.raises(NameClash):
        s.closure_set("nope")


def test_print_session_round_trips_shipped_files():
    for path in sorted(SESSIONS.glob("*.gda")):
        text = path.read_text()
        assert print_session(parse_text(text)) == text, path.name


# deterministic and small: these run with the rest of tier-1
kernel = settings(max_examples=20, derandomize=True, database=None, deadline=None)

# plain names, a prime, a keyword, and the d and D that also wrap factors
names = st.sampled_from(["a", "phi", "eta", "Phi1", "x_2", "b'", "_", "index", "d", "D"])
small = st.integers(-3, 3)
name_lists = st.lists(names, min_size=1, max_size=5).map(tuple)
set_lines = st.one_of(
    st.sampled_from([(key, value) for key, s in SETTINGS.items() for value in s.values]),
    st.tuples(
        st.sampled_from(["n-min", "n-max", "m-min", "m-max", "kappa-min", "kappa-max"]),
        small.map(str),
    ).map(lambda kv: (f"bound {kv[0]}", kv[1])),
).map(lambda kv: SetStatement(*kv))
gen_lines = st.tuples(
    names, st.tuples(small, small, small),
    st.lists(st.sampled_from(["dclosed", "Dclosed", "picked", "completion"]), max_size=2),
).map(lambda g: GenStatement(g[0], Index(*g[1]), tuple(g[2])))
ideal_lines = st.tuples(
    st.sampled_from(["nonlocal2", "local2", "square2"]), names,
    st.lists(st.sampled_from("dD"), max_size=3),
).map(lambda i: IdealStatement(i[0], FactorExpr(i[1], tuple(i[2]))))
definition_lines = st.one_of(
    st.tuples(names, name_lists, name_lists).map(lambda c: Definition("completion", *c)),
    st.tuples(names, st.tuples(names, names), name_lists).map(lambda h: Definition("hypotheses", *h)),
    st.tuples(names, st.tuples(names), name_lists).map(lambda c: Definition("class", *c)),
)
sessions = st.lists(st.one_of(set_lines, gen_lines, ideal_lines, definition_lines), max_size=8)


@kernel
@given(sessions)
def test_printed_sessions_parse_back_to_the_same_statements(statements):
    text = print_session(statements)
    parsed = parse_text(text)
    assert parsed == statements
    assert print_session(parsed) == text


def test_load_session_carries_filename_into_errors(tmp_path):
    bad = tmp_path / "broken.gda"
    bad.write_text("gen a index (1,0,0)\n")
    with pytest.raises(GdaSyntaxError) as err:
        load_session(bad)
    assert err.value.filename.endswith("broken.gda")


def test_wrapped_overlap_parses_and_renders():
    stmts = parse_text("condition (I) 0 = (d(g)[r=1,t=1]);")
    assert stmts[0].render() == "condition (I) 0 = (d(g)[r=1,t=1]);"


# every malformed definition keeps its message and its line:column
@pytest.mark.parametrize("text, error", [
    ("hypotheses H := closure(phi; P1, P2, P3, P4);", "1:28: error: expected ',', got ';'"),
    ("hypotheses H := closure(phi, eta, zeta; P1, P2, P3, P4);",
     "1:33: error: expected ';', got ','"),
    ("hypotheses H := closure(phi eta; P1, P2, P3, P4);",
     "1:29: error: expected ',', got 'eta'"),
    ("hypotheses H := closure(phi, eta,; P1);", "1:33: error: expected ';', got ','"),
    ("hypotheses H := closure(phi, eta; P1, P2,);", "1:42: error: expected a name, got ')'"),
    ("hypotheses H := closure(; P1);", "1:25: error: expected a name, got ';'"),
    ("hypotheses := closure(phi, eta; P1);", "1:12: error: expected a name, got ':='"),
    ("hypotheses H := closure(phi, eta; P1, P2, P3, P4)",
     "1:50: error: expected ';', got end of input"),
    ("hypotheses H := closure(phi, eta; P1, P2, P3, P4",
     "1:49: error: expected ')', got end of input"),
    ("class C := invariant(phi, eta; P1);", "1:25: error: expected ';', got ','"),
    ("class C := invariant(phi P1);", "1:26: error: expected ';', got 'P1'"),
    ("class C := invariant(phi; P1,);", "1:30: error: expected a name, got ')'"),
    ("class C := invariant(; P1);", "1:22: error: expected a name, got ';'"),
    ("class C := complete(phi; P1);", "1:12: error: expected 'invariant', got 'complete'"),
    ("class 3 := invariant(phi; P1);", "1:7: error: expected a name, got '3'"),
    ("class C := invariant(phi;", "1:26: error: expected a name, got end of input"),
    ("class C := invariant(phi; P1", "1:29: error: expected ')', got end of input"),
    ("class C := invariant(phi; P1)", "1:30: error: expected ';', got end of input"),
    ("class C = invariant(phi; P1);", "1:9: error: expected ':=', got '='"),
    ("class C invariant(phi; P1);", "1:9: error: expected ':=', got 'invariant'"),
    ("hypotheses H = closure(phi, eta; P1);", "1:14: error: expected ':=', got '='"),
    ("completion C := complete(; P1);", "1:26: error: expected a name, got ';'"),
    ("completion C := complete(phi; P1,);", "1:34: error: expected a name, got ')'"),
    ("completion C := complete(phi, ; P1);", "1:31: error: expected a name, got ';'"),
    ("completion C := complete(phi P1);", "1:30: error: expected ';', got 'P1'"),
    ("completion C := closure(phi; P1);", "1:17: error: expected 'complete', got 'closure'"),
    ("completion C := complete phi; P1);", "1:26: error: expected '(', got 'phi'"),
    ("completion C := complete(phi; P1)", "1:34: error: expected ';', got end of input"),
    ("completion C := complete(phi; P1", "1:33: error: expected ')', got end of input"),
    pytest.param(f"gen a index ({LONG},0,0);", f"1:14: {LONG_ERROR}", id="long-index"),
    pytest.param(f"set bound n-min -{LONG};", f"1:18: {LONG_ERROR}", id="long-bound"),
    pytest.param(f"condition (I) 0 = (d(g)[r=1,t={LONG}]);", f"1:31: {LONG_ERROR}",
                 id="long-overlap"),
])
def test_malformed_definition_error_lines(text, error):
    with pytest.raises(GdaSyntaxError) as err:
        parse_text(text)
    assert str(err.value) == f"<input>:{error}"

"""Command-line surface: exit codes, report formats, derive output."""
import argparse
import ast
import contextlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import jsonschema
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cli_corpus
import gda.cli
from gda import (
    Factor,
    GdaSyntaxError,
    Monomial,
    Term,
    apply_differential,
    build_session,
    corner_model,
    parse_text,
    print_session,
    raising_model,
    random_element,
    random_kernel_element,
)
from gda.cli import _build_parser, main
from gda.dsl import SETTINGS

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
CLASS_FILE = str(SESSIONS / "invariant_class.gda")
GOLDEN = ROOT / "tests" / "golden"


def test_cli_corpus_digests_are_unchanged(monkeypatch):
    # exit code, stdout and stderr of each committed command; see
    # tests/cli_corpus.py for how to regenerate the file
    monkeypatch.chdir(ROOT)
    entries = cli_corpus.read()
    assert [argv for argv, _ in entries] == cli_corpus.commands()
    changed = [shlex.join(argv) for argv, sha in entries if cli_corpus.digest(argv) != sha]
    assert not changed, "output differs from tests/golden/cli_corpus.txt:\n" + "\n".join(changed)


def test_check_reports_statement_count(capsys):
    assert main(["check", CLASS_FILE]) == 0
    out = capsys.readouterr().out
    assert "statements: 10" in out
    assert "status: ok" in out


def test_check_exit_2_on_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.gda"
    bad.write_text("gen a index (1,0,0)\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad.gda" in err


def test_check_exit_2_on_missing_file(capsys):
    assert main(["check", str(SESSIONS / "no_such.gda")]) == 2


def test_print_echoes_canonical_text(capsys):
    assert main(["print", CLASS_FILE]) == 0
    out = capsys.readouterr().out
    assert out == Path(CLASS_FILE).read_text()


def test_derive_text_output(capsys):
    assert main(["derive", "--start", "(00)", "--depth", "8"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "derive start=(00) depth=8 sign=paper d=delta"
    assert "family @node" in out


def test_derive_matches_frozen_fixture(capsys):
    main(["derive", "--start", "(00)", "--depth", "8"])
    out = capsys.readouterr().out
    frozen = (ROOT / "tests" / "golden" / "case_00.tree.txt").read_text()
    assert out == frozen


def test_derive_json_output(capsys):
    assert main(["derive", "--start", "(I0)", "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["start"] == "(I0)"
    assert payload["edges"]


def test_derive_rejects_bad_pattern(capsys):
    # a pattern is bare or inside exactly one pair of parentheses
    for pattern in ["(X0)", "(00", ")00(", "((00))", "00)", "()"]:
        assert main(["derive", "--start", pattern]) == 2, pattern
        assert "error: invalid choice pattern" in capsys.readouterr().err


def test_derive_accepts_bare_and_parenthesised_pattern(capsys):
    assert main(["derive", "--start", "00"]) == 0
    bare = capsys.readouterr().out
    assert main(["derive", "--start", "(00)"]) == 0
    assert capsys.readouterr().out == bare


def test_derive_rejects_depth_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--start", "(00)", "--depth", "0"])
    assert exc.value.code == 2
    assert "--depth: must be at least 1, got 0" in capsys.readouterr().err


def test_model_check_rejects_negative_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["model-check", CLASS_FILE, "--trials", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--trials: must be at least 1, got -5" in captured.err
    assert "status" not in captured.out


def test_module_entry_point_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "gda.cli", "check", str(SESSIONS / "minimal.gda")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("claim: check\nstatus: ok\n")
    assert "statements: 3" in proc.stdout


def test_verify_class_ok_and_json_schema(capsys):
    rc = main([
        "verify-class", CLASS_FILE,
        "--class", "INV", "--hypotheses", "H",
        "--report", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    schema = json.loads(
        (ROOT / "src" / "gda" / "schemas" / "report.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)
    assert payload["status"] == "ok"


def test_verify_class_unknown_name_is_config_error(capsys):
    assert main(["verify-class", CLASS_FILE, "--class", "NOPE"]) == 2


def test_verify_independence_ok(capsys):
    rc = main([
        "verify-independence", CLASS_FILE,
        "--class", "INV", "--eta", "eta", "--hypotheses", "H",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "claim: independence" in out
    assert "status: ok" in out


def test_model_check_runs_and_respects_seed(capsys):
    assert main(["model-check", CLASS_FILE, "--trials", "5", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["model-check", CLASS_FILE, "--trials", "5", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_model_check_koszul_uses_rational_model(capsys):
    rc = main([
        "model-check", CLASS_FILE, "--sign-mode", "koszul", "--trials", "5",
    ])
    assert rc == 0
    assert "status: ok" in capsys.readouterr().out


def test_failing_verification_exits_1(tmp_path, capsys):
    # closure conditions over the wrong completions cancel nothing
    mismatched = tmp_path / "mismatched.gda"
    mismatched.write_text(
        "gen phi index (1,1,0);\n"
        "gen eta index (1,1,0);\n"
        "gen P1 index (0,2,0);\n"
        "gen P2 index (2,0,1);\n"
        "gen P3 index (1,0,0);\n"
        "gen P4 index (0,1,0);\n"
        "gen Q1 index (0,2,0);\n"
        "gen Q2 index (2,0,1);\n"
        "gen Q3 index (1,0,0);\n"
        "gen Q4 index (0,1,0);\n"
        "ideal nonlocal2 d(phi);\n"
        "ideal nonlocal2 d(eta);\n"
        "hypotheses H := closure(phi, eta; Q1, Q2, Q3, Q4);\n"
        "class INV := invariant(phi; P1, P2, P3, P4);\n"
    )
    rc = main([
        "verify-class", str(mismatched), "--class", "INV", "--hypotheses", "H",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "status: fail" in out
    assert "surviving terms" in out


@pytest.mark.parametrize("mode, flags", [
    ("paper", ["--sign-mode", "paper"]),
    ("koszul", ["--sign-mode", "koszul"]),
    ("drop", ["--epsilon-mode", "drop"]),
])
@pytest.mark.parametrize("command, args", [
    ("verify-class", ["--class", "INV", "--hypotheses", "H"]),
    ("verify-independence", ["--class", "INV", "--eta", "eta", "--hypotheses", "H"]),
])
def test_verify_report_matches_frozen_text(command, args, mode, flags, capsys):
    rc = main([command, CLASS_FILE, *args, *flags])
    captured = capsys.readouterr()
    if (command, mode) == ("verify-independence", "drop"):
        # the primitive is rebuilt in the paired layout only
        assert rc == 2 and captured.out == ""
        assert "primitive reconstruction needs the paired layout" in captured.err
        return
    # every trace step, before and after, in order
    frozen = (GOLDEN / f"{command.replace('-', '_')}.{mode}.txt").read_text()
    assert captured.out == frozen
    assert rc == (0 if "status: ok\n" in frozen else 1)


@pytest.mark.parametrize("mode", ["paper", "koszul"])
@pytest.mark.parametrize("command, args", [
    ("verify-class", ["--class", "INV", "--hypotheses", "H"]),
    ("verify-independence", ["--class", "INV", "--eta", "eta", "--hypotheses", "H"]),
])
def test_verify_report_matches_frozen_json(command, args, mode, capsys):
    rc = main([command, CLASS_FILE, *args, "--sign-mode", mode, "--report", "json"])
    # every trace step's rule, before and after, byte for byte
    frozen = (GOLDEN / f"{command.replace('-', '_')}.{mode}.json").read_text()
    assert capsys.readouterr().out == frozen
    assert rc == (0 if json.loads(frozen)["status"] == "ok" else 1)


SESSION_NAMES = ["conditions.gda", "invariant_class.gda", "minimal.gda"]
SESSION_COMMANDS = {
    "check": [],
    "verify-class": ["--class", "INV", "--hypotheses", "H"],
    "verify-independence": ["--class", "INV", "--eta", "eta"],
    "model-check": ["--trials", "5", "--seed", "3"],
}
SESSION_FLAGS = {
    "--sign-mode koszul": "set sign-mode koszul;",
    "--epsilon-mode drop": "set epsilon-mode drop;",
    "--d Delta": "set d Delta;",
    "--literal-m-coherence": "set literal-m-coherence on;",
}


def _run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("flag", SESSION_FLAGS)
@pytest.mark.parametrize("command", SESSION_COMMANDS)
@pytest.mark.parametrize("name", SESSION_NAMES)
def test_session_flag_equals_leading_set_line(name, command, flag, tmp_path, capsys):
    path = SESSIONS / name
    copy = tmp_path / name
    copy.write_text(SESSION_FLAGS[flag] + "\n" + path.read_text())
    extra = SESSION_COMMANDS[command]
    rc_flag, out_flag = _run([command, str(path), *extra, *flag.split()], capsys)
    rc_set, out_set = _run([command, str(copy), *extra], capsys)

    def body(out):
        # the set line is one more statement in the copy
        return [line for line in out.splitlines() if not line.startswith("  statements:")]

    assert rc_flag == rc_set
    assert body(out_flag) == body(out_set)


# the exit code of every subcommand on every shipped session, as the
# README documents it; only invariant_class.gda declares INV and H
DOCUMENTED_EXITS = {
    ("check", "conditions.gda"): 0,
    ("check", "invariant_class.gda"): 0,
    ("check", "minimal.gda"): 0,
    ("print", "conditions.gda"): 0,
    ("print", "invariant_class.gda"): 0,
    ("print", "minimal.gda"): 0,
    ("verify-class", "conditions.gda"): 2,
    ("verify-class", "invariant_class.gda"): 0,
    ("verify-class", "minimal.gda"): 2,
    ("verify-independence", "conditions.gda"): 2,
    ("verify-independence", "invariant_class.gda"): 0,
    ("verify-independence", "minimal.gda"): 2,
    ("model-check", "conditions.gda"): 0,
    ("model-check", "invariant_class.gda"): 0,
    ("model-check", "minimal.gda"): 0,
}


@pytest.mark.parametrize("command, name", DOCUMENTED_EXITS)
def test_shipped_sessions_give_documented_exit_codes(command, name, capsys):
    extra = SESSION_COMMANDS.get(command, [])
    assert main([command, str(SESSIONS / name), *extra]) == DOCUMENTED_EXITS[command, name]


@pytest.mark.parametrize("flags", [
    ["--sign-mode", "paper"],
    ["--sign-mode", "koszul"],
    ["--sign-mode", "paper", "--d", "Delta"],
])
def test_model_check_samples_closed_generators_in_the_kernel(flags, capsys):
    # b is dclosed: d(b) is 0 symbolically, so its value must be too
    argv = ["model-check", str(SESSIONS / "minimal.gda"), "--trials", "200", *flags]
    assert main(argv) == 0
    assert "status: ok" in capsys.readouterr().out


@pytest.mark.parametrize("name, flags", [
    ("invariant_class.gda", ["--sign-mode", "paper"]),
    ("invariant_class.gda", ["--sign-mode", "koszul"]),
    ("minimal.gda", ["--sign-mode", "paper"]),
    ("minimal.gda", ["--sign-mode", "koszul"]),
])
def test_model_check_draws_only_the_generators_a_trial_names(name, flags, monkeypatch, capsys):
    pending, trials = [], []

    def spy(how, draw):
        def wrapped(*args):
            pending.append(how)
            return draw(*args)
        return wrapped

    def holds(term, symbolic, kind, model, assignment):
        # called once a trial, after its draws
        trials.append((list(pending), assignment, term))
        pending.clear()
        return real_holds(term, symbolic, kind, model, assignment)

    real_holds = gda.cli.derivation_holds
    monkeypatch.setattr(gda.cli, "random_element", spy("free", gda.cli.random_element))
    monkeypatch.setattr(gda.cli, "random_kernel_element", spy("kernel", gda.cli.random_kernel_element))
    monkeypatch.setattr(gda.cli, "derivation_holds", holds)
    path = SESSIONS / name
    assert main(["model-check", str(path), "--trials", "60", "--seed", "4", *flags]) == 0
    assert "status: ok" in capsys.readouterr().out
    assert len(trials) == 60
    session = build_session(parse_text(path.read_text()), str(path), {"sign-mode": flags[1]})
    registry = session.registry
    kinds = set()
    for draws, assignment, term in trials:
        named = {f.generator.name for mono in term.monomials() for f in mono.factors}
        expected = [n for n in registry.names() if n in named]
        assert list(assignment) == expected
        closed = [registry.get(n).closed_under(session.setup.d) for n in expected]
        assert draws == ["kernel" if c else "free" for c in closed]
        kinds.update(zip(expected, draws))
    if name == "minimal.gda":
        # b is dclosed: every draw of b is from the kernel of d
        assert kinds == {("a", "free"), ("b", "kernel")}


def _drawn_trials(session, model, seed, trials):
    # each trial's term and assignment as model-check drew them with
    # randint and choice, one generator at a time in registry order
    rng = random.Random(seed)
    d = session.setup.d
    gens = [session.registry.get(name) for name in session.registry.names()]
    stacks = [()] + [(kind,) for kind in model.tables]
    out = []
    for _ in range(trials):
        arity = rng.randint(1, 3)
        factors = tuple(Factor(rng.choice(gens), rng.choice(stacks)) for _ in range(arity))
        named = {f.generator.name for f in factors}
        assignment = {}
        for sym in gens:
            if sym.name in named:
                parity = sym.index.n % 2 if model.field == "q" else None
                if sym.closed_under(d):
                    assignment[sym.name] = random_kernel_element(model, d, rng, parity)
                else:
                    assignment[sym.name] = random_element(model, rng, parity)
        out.append((Term.from_monomial(Monomial(factors)), list(assignment.items())))
    return out


@pytest.mark.parametrize("name, flags", [
    ("invariant_class.gda", ["--sign-mode", "paper"]),
    ("invariant_class.gda", ["--sign-mode", "koszul"]),
    ("conditions.gda", ["--sign-mode", "paper"]),
    ("minimal.gda", ["--sign-mode", "paper", "--d", "Delta"]),
    ("minimal.gda", ["--sign-mode", "koszul"]),
])
def test_model_check_draws_the_stream_randint_and_choice_draw(name, flags, monkeypatch, capsys):
    # the same terms and values, trial by trial, for every seed, and each
    # trial checks the differential of its own term
    seen = []

    def holds(term, symbolic, kind, model, assignment):
        seen.append((term, list(assignment.items())))
        assert kind is d
        assert symbolic == apply_differential(d, term, session.setup.sign, session.setup.laws)
        return real_holds(term, symbolic, kind, model, assignment)

    real_holds = gda.cli.derivation_holds
    monkeypatch.setattr(gda.cli, "derivation_holds", holds)
    path = SESSIONS / name
    settings_ = {flags[i][2:]: flags[i + 1] for i in range(0, len(flags), 2)}
    session = build_session(parse_text(path.read_text()), str(path), settings_)
    d = session.setup.d
    model = corner_model() if settings_["sign-mode"] == "paper" else raising_model()
    for seed in (0, 3, 12345):
        seen.clear()
        assert main(["model-check", str(path), "--trials", "40", "--seed", str(seed), *flags]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "status: ok"
        assert seen == _drawn_trials(session, model, seed, 40)


@pytest.mark.parametrize("name, where, error", [
    ("missing_closure_ideal.gda", "8:30",
     "d(eta) must be registered in the non-local order-2 ideal before closure conditions can be formed"),
    ("mixed_closure_spaces.gda", "9:30",
     "closure heads phi and eta live in different spaces: (1,1,0), (1,1,1)"),
    ("same_closure_heads.gda", "9:30",
     "closure heads must be two different generators, got phi twice"),
])
def test_closure_preconditions_fail_check_at_the_head(name, where, error, capsys):
    path = GOLDEN / "malformed" / name
    for command in (["check"], ["verify-class", "--class", "INV"],
                    ["verify-independence", "--class", "INV", "--eta", "eta"]):
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr().err == f"{path}:{where}: error: {error}\n"


@pytest.mark.parametrize("argv", [
    ["check", CLASS_FILE, "--seed", "1"],
    ["verify-class", CLASS_FILE, "--class", "INV", "--depth", "4"],
    ["model-check", CLASS_FILE, "--field", "gf2"],
    ["print", CLASS_FILE, "--report", "json"],
    ["derive", "--start", "(00)", "--epsilon-mode", "drop"],
    ["verify-class", CLASS_FILE, "--class", "INV", "--xi-mode", "sum"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_set_depth_in_a_session_exits_2(tmp_path, capsys):
    # neither key is a session setting: depth is a derive flag, and closure
    # conditions have one layout, so there is no xi mode to choose
    for key, value in (("depth", "4"), ("xi-mode", "sum")):
        session = tmp_path / "depth.gda"
        session.write_text(f"set {key} {value};\n")
        assert main(["check", str(session)]) == 2
        assert f"depth.gda:1:1: error: unknown setting '{key}'" in capsys.readouterr().err


# a bad value for every `set` key, one line down and indented
BAD_SETTINGS = {
    "d": "d must be delta or Delta, got 'x'",
    "sign-mode": "sign-mode must be paper or koszul, got 'x'",
    "epsilon-mode": "epsilon-mode must be pair or drop, got 'x'",
    "literal-m-coherence": "literal-m-coherence must be on or off, got 'x'",
    "Delta-chain-cochain": "Delta-chain-cochain must be on or off, got 'x'",
    "commute": "commute must be on or off, got 'x'",
    **{
        f"bound {bound}": f"bound {bound} must be an integer, got 'x'"
        for bound in ("n-min", "n-max", "m-min", "m-max", "kappa-min", "kappa-max")
    },
}


@pytest.mark.parametrize("key", BAD_SETTINGS)
def test_bad_setting_value_exits_2_at_its_position(key, tmp_path, capsys):
    session = tmp_path / "bad.gda"
    session.write_text(f"gen a index (1,0,0);\n  set {key} x;\n")
    assert main(["check", str(session)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{session}:2:3: error: {BAD_SETTINGS[key]}\n"


def test_bad_settings_cover_every_set_key():
    bounds = {key for key in BAD_SETTINGS if key.startswith("bound ")}
    assert set(BAD_SETTINGS) - bounds == set(SETTINGS)


def _flags(command):
    """The parser's --flags of a subcommand, by name without the dashes."""
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        option[2:]: action
        for action in subparsers.choices[command]._actions
        for option in action.option_strings
    }


def _accepted(key, value):
    try:
        build_session([], settings={key: value})
    except GdaSyntaxError:
        return False
    return True


# every value some flag offers, and values none does
CANDIDATES = sorted({v for s in SETTINGS.values() for v in s.values} | {"x", "ON", "Pair", ""})


@pytest.mark.parametrize("command", ["check", "verify-class", "verify-independence", "model-check"])
def test_session_flags_offer_exactly_their_set_values(command):
    flags = {key: action for key, action in _flags(command).items() if key in SETTINGS}
    assert sorted(flags) == ["d", "epsilon-mode", "literal-m-coherence", "sign-mode"]
    for key, action in flags.items():
        accepted = [value for value in CANDIDATES if _accepted(key, value)]
        if action.choices is None:
            # a switch gives one of the values
            assert action.const in accepted, key
        else:
            assert sorted(action.choices) == accepted, key


def test_derive_flags_offer_exactly_their_set_values():
    flags = _flags("derive")
    for key in ("sign-mode", "d"):
        assert sorted(flags[key].choices) == [v for v in CANDIDATES if _accepted(key, v)]


def test_deeply_nested_wrappers_print_back_and_check(tmp_path, capsys):
    # far past the interpreter's recursion limit: wrappers are read in a loop
    pattern = "D(" * 2000 + "a" + ")" * 2000
    text = f"gen a index (1,0,0);\nideal nonlocal2 {pattern};\n"
    session = tmp_path / "deep.gda"
    session.write_text(text)
    assert main(["print", str(session)]) == 0
    assert capsys.readouterr().out == text
    assert main(["check", str(session)]) == 0
    captured = capsys.readouterr()
    assert "status: ok" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("lines, error", [
    ("ideal nonlocal2 d(d(a));", "ideal pattern a.d.d is killed by the differential laws"),
    ("ideal square2 d(D(d(a)));", "ideal pattern a.d.D.d is killed by the differential laws"),
])
def test_ideal_pattern_the_laws_kill_exits_2(lines, error, tmp_path, capsys):
    # such a member could never delete anything
    session = tmp_path / "dead.gda"
    session.write_text(f"gen a index (1,0,0);\n{lines}\n")
    assert main(["check", str(session)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{session}:2:1: error: {error}\n"


def test_negative_overlap_in_a_condition_exits_2_at_the_statement(tmp_path, capsys):
    session = tmp_path / "overlap.gda"
    session.write_text(
        "gen g index (0,0,0);\ngen phi index (1,-1,0);\n"
        "condition (0) d(g) = (phi[r=-1,t=2]);\n"
    )
    assert main(["check", str(session)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{session}:3:1: error: negative overlap (-1,2)\n"


def test_ideal_pattern_alive_without_commuting_is_accepted(tmp_path, capsys):
    session = tmp_path / "alive.gda"
    session.write_text("set commute off;\ngen a index (1,0,0);\nideal square2 d(D(d(a)));\n")
    assert main(["check", str(session)]) == 0
    assert "status: ok" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "print"])
def test_non_utf8_session_exits_2_at_the_byte(command, tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.gda").write_bytes(b"gen a index (1,0,0);\n\xff\n")
    monkeypatch.chdir(tmp_path)
    assert main([command, "bad.gda"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad.gda:2:1: error:")
    assert "Traceback" not in err


def test_schema_lists_only_the_claims_the_cli_emits(capsys):
    schema = json.loads((ROOT / "src" / "gda" / "schemas" / "report.schema.json").read_text())
    claims = set()
    for command, extra in SESSION_COMMANDS.items():
        main([command, CLASS_FILE, *extra, "--report", "json"])
        claims.add(json.loads(capsys.readouterr().out)["claim"])
    assert claims == set(schema["properties"]["claim"]["enum"])


@pytest.mark.parametrize("name, where, generator", [
    ("unknown_name.gda", "5:47", "Phi4"),
    ("deep_nesting.gda", "2:4017", "b"),
])
def test_malformed_files_report_the_unknown_generator_at_the_name(name, where, generator, capsys):
    path = GOLDEN / "malformed" / name
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"{path}:{where}: error: unknown generator '{generator}'\n"


@pytest.mark.parametrize("statement", [
    "ideal nonlocal2 d(D(zz));",
    "condition (0) d(zz) = (a);",
    "condition (0I) 0 = (a, d(zz)[r=1,t=1]);",
    "completion C := complete(zz; a, a);",
    "hypotheses H := closure(a, zz; a, a, a, a);",
    "class C := invariant(a; a, a, zz, a);",
])
def test_unknown_generator_is_reported_at_the_name(statement, tmp_path, capsys):
    session = tmp_path / "unknown.gda"
    session.write_text(f"gen a index (1,0,0);\n{statement}\n")
    assert main(["check", str(session)]) == 2
    column = statement.index("zz") + 1
    assert capsys.readouterr().err == f"{session}:2:{column}: error: unknown generator 'zz'\n"


# a session file split into its tokens (odd places) and what stands
# between them (even places)
_TOKEN_SPLIT = re.compile(r"([A-Za-z_][A-Za-z0-9_']*|\d+|:=|[^\sA-Za-z0-9_])")
_SHIPPED = {name: (SESSIONS / name).read_text() for name in SESSION_NAMES}
# every token of the shipped sessions, plus an unknown name, a character
# no token takes, a comment start and a number too large for an index
_VOCABULARY = sorted(
    {tok for text in _SHIPPED.values() for tok in _TOKEN_SPLIT.split(text)[1::2]}
    | {"zz", "@", "#", "123456789012345678901234567890"}
)
_FUZZ_COMMANDS = [
    ["check"],
    ["print"],
    ["verify-class", "--class", "INV"],
    ["verify-independence", "--class", "INV", "--eta", "eta"],
    ["model-check", "--trials", "5"],
]


# the unlocated errors a session that passes check can still meet: a
# --class the file does not define, and independence in the drop layout
_UNLOCATED_AFTER_CHECK = {
    "error: unknown class 'INV'\n",
    "error: primitive reconstruction needs the paired layout (epsilon mode pair)\n",
}


def _kind(token):
    # (a number, a name); punctuation and a deleted token are neither
    return token[:1].isdigit(), token[:1].isalpha() or token[:1] == "_"


def _mutate(text, rnd):
    """One or two token edits at random places: an insertion, a deletion,
    or, as often as both, a replacement by a token of the same kind, so
    that many edited files parse and reach the session builder."""
    pieces = _TOKEN_SPLIT.split(text)
    for _ in range(rnd.randint(1, 2)):
        place = 2 * rnd.randrange(len(pieces) // 2) + 1
        action = rnd.choice(["insert", "delete", "replace", "replace"])
        if action == "delete":
            pieces[place] = ""
        elif action == "insert":
            pieces[place] = f"{rnd.choice(_VOCABULARY)} {pieces[place]}"
        else:
            pieces[place] = rnd.choice([tok for tok in _VOCABULARY if _kind(tok) == _kind(pieces[place])])
    return "".join(pieces)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "session.gda"


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(SESSION_NAMES), rnd=st.randoms(use_true_random=False))
def test_mutated_sessions_exit_cleanly_with_one_located_error(fuzz_file, name, rnd):
    text = _mutate(_SHIPPED[name], rnd)
    fuzz_file.write_text(text)
    lines = text.split("\n")
    checked = False
    for command in _FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(fuzz_file), *command[1:]])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), command
        checked = checked or (command[0] == "check" and code == 0)
        if code != 2:
            assert err == "", command
            if command[0] == "print":
                assert print_session(parse_text(out)) == out
            continue
        # one line: located in the file, or about the command line
        assert err.count("\n") == 1 and err.endswith("\n"), err
        located = re.fullmatch(rf"{re.escape(str(fuzz_file))}:(\d+):(\d+): error: (.*)\n", err)
        if located is None:
            assert err.startswith("error: "), err
            # once check passes, the file's content cannot fail a command
            # unlocated: only the command line or the drop-mode refusal can
            assert not checked or err in _UNLOCATED_AFTER_CHECK, (command, err)
            continue
        unknown = re.fullmatch(r"unknown generator ('.*'|\".*\")", located[3])
        if unknown:
            line, column = int(located[1]), int(located[2])
            assert lines[line - 1][column - 1:].startswith(ast.literal_eval(unknown[1])), err

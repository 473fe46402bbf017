"""Command line front end.

Exit codes: 0 when the requested check passes, 1 when a verification
runs to completion and fails, 2 for malformed input, bad configuration,
or any other deliberate error.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import sys

from .conditions import derive_tree, render_tree, standard_start, tree_to_json
from .differentials import SignMode, apply_differential
from .dsl import SETTINGS, Session, load_session, parse_file, print_session
from .errors import GdaError, GdaSyntaxError, ModelError
from .model import (
    corner_model,
    derive_element,
    evaluate,
    raising_model,
    random_element,
    random_kernel_element,
)
from .terms import (
    DiffKind,
    Factor,
    Monomial,
    SymbolRegistry,
    Term,
    render_term,
)
from .verifier import VerificationReport, verify_cocycle, verify_independence


def _print_report(report: VerificationReport, mode: str) -> int:
    data = report.to_json()
    if mode == "json":
        sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        lines = [f"{key}: {data[key]}" for key in ("claim", "status", "residual")]
        lines.append("trace:")
        lines.extend(f"  {s['rule']}: {s['before']} -> {s['after']}" for s in data["trace"])
        if data["primitive"] is not None:
            lines.append(f"primitive: {data['primitive']}")
        if data["notes"]:
            lines.append("notes:")
            lines.extend(f"  {note}" for note in data["notes"])
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if report.ok else 1


def _load(args) -> Session:
    """The session file with each session flag given as its `set` line."""
    flags = {key: getattr(args, key.replace("-", "_"), None) for key in SETTINGS}
    return load_session(args.file, {key: value for key, value in flags.items() if value})


def _cmd_check(args) -> int:
    session = _load(args)
    report = VerificationReport(
        "check", "ok", Term.zero(), [],
        notes=[
            f"statements: {len(session.statements)}",
            f"conditions checked: {len(session.conditions)}",
        ],
    )
    return _print_report(report, args.report)


def _cmd_print(args) -> int:
    statements = parse_file(args.file)
    sys.stdout.write(print_session(statements))
    return 0


def _cmd_derive(args) -> int:
    registry = SymbolRegistry()
    sign = SignMode(args.sign_mode)
    d = DiffKind(args.d)
    start = standard_start(args.start, registry, d, sign)
    tree = derive_tree(start, args.depth, sign, d, registry)
    if args.report == "json":
        sys.stdout.write(json.dumps(tree_to_json(tree), sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(render_tree(tree))
    return 0


def _cmd_verify_class(args) -> int:
    session = _load(args)
    class_term = session.class_term(args.class_name)
    closure_set = session.closure_set(args.hypotheses)
    report = verify_cocycle(class_term, closure_set, session.ideals, session.setup)
    return _print_report(report, args.report)


def _cmd_verify_independence(args) -> int:
    session = _load(args)
    phi, completions = session.class_parts(args.class_name)
    eta = session.factor(args.eta)
    closure_set = session.closure_set(args.hypotheses)
    report = verify_independence(
        phi, eta, completions, closure_set, session.ideals, session.setup
    )
    return _print_report(report, args.report)


def _cmd_model_check(args) -> int:
    session = _load(args)
    model = corner_model() if session.setup.sign is SignMode.paper_literal else raising_model()
    d = session.setup.d
    if d not in model.tables:
        raise ModelError(f"the {model.field} model has no table for {d.token}")
    rng = random.Random(args.seed)
    gens = [session.registry.get(name) for name in session.registry.names()]
    notes: list[str] = []
    status = "ok"
    if not gens:
        notes.append("no generators declared; nothing to sample")
    else:
        stack_options = [()] + [(kind,) for kind in model.tables]
        for trial in range(args.trials):
            arity = rng.randint(1, 3)
            factors = tuple(
                Factor(rng.choice(gens), rng.choice(stack_options))
                for _ in range(arity)
            )
            term = Term.from_monomial(Monomial(factors))
            assignment = {}
            for sym in gens:
                parity = sym.index.n % 2 if model.field == "q" else None
                if sym.closed_under(d):
                    # a d-closed generator takes values in the kernel of d
                    assignment[sym.name] = random_kernel_element(model, d, rng, parity)
                else:
                    assignment[sym.name] = random_element(model, rng, parity)
            symbolic = apply_differential(
                d, term, session.setup.sign, session.setup.laws
            )
            left = evaluate(symbolic, model, assignment)
            right = derive_element(model, d, evaluate(term, model, assignment))
            if left != right:
                status = "fail"
                notes.append(f"trial {trial}: mismatch for {render_term(term)}")
    report = VerificationReport("model", status, Term.zero(), [], notes=notes)
    return _print_report(report, args.report)


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", choices=["text", "json"], default="text")
    session = argparse.ArgumentParser(add_help=False, parents=[report])
    session.add_argument("file")
    for key in ("sign-mode", "epsilon-mode", "d"):
        session.add_argument(f"--{key}", choices=SETTINGS[key].values, help=f"as `set {key}`")
    session.add_argument("--literal-m-coherence", action="store_const", const="on",
                         help="as `set literal-m-coherence on`")

    parser = argparse.ArgumentParser(
        prog="gda",
        description="Work with graded differential sessions: derive"
        " consequence trees, verify classes, spot-check in finite models.",
        epilog="A session flag acts as its `set` line at the top of the"
        " file and wins over the file's own line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[session],
                       help="parse and validate a session file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("print", help="reprint a session file canonically")
    p.add_argument("file")
    p.set_defaults(func=_cmd_print)

    p = sub.add_parser("derive", parents=[report],
                       help="expand the consequence tree of a start pattern")
    p.add_argument("--start", required=True, metavar="PATTERN")
    p.add_argument("--sign-mode", choices=SETTINGS["sign-mode"].values, default="paper")
    p.add_argument("--d", choices=SETTINGS["d"].values, default="delta")
    p.add_argument("--depth", type=_at_least_one, default=8)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("verify-class", parents=[session],
                       help="check that a declared class is a cocycle")
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("--hypotheses")
    p.set_defaults(func=_cmd_verify_class)

    p = sub.add_parser("verify-independence", parents=[session],
                       help="check the class shift against a reconstructed primitive")
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--hypotheses")
    p.set_defaults(func=_cmd_verify_independence)

    p = sub.add_parser("model-check", parents=[session],
                       help="evaluate the symbolic differential in a finite model")
    p.add_argument("--trials", type=_at_least_one, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_model_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GdaSyntaxError as err:
        print(str(err), file=sys.stderr)
        return 2
    except (GdaError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


# what the imports built lives until exit: keep main()'s collections off it
gc.freeze()


if __name__ == "__main__":
    entry()

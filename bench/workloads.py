"""Inputs, operations and known answers of the three benchmark workloads.

Paths are relative to the root of a checkout, which is the working
directory the benchmark runs in.  Every operation is split into `run`
(the timed part) and `check` (the comparison against its known answer,
untimed), so the runner can time, verify and count each one the same way.
"""
from __future__ import annotations

import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from gda import (
    DiffKind,
    EpsilonMode,
    Factor,
    IdealKind,
    IdealRegistry,
    Index,
    Monomial,
    SignMode,
    SymbolRegistry,
    Term,
    VerifierSetup,
    add,
    apply_differential,
    build_class,
    build_closure_set,
    corner_model,
    derive_element,
    evaluate,
    load_session,
    raising_model,
    random_element,
    random_kernel_element,
    render_term,
    verify_cocycle,
    verify_independence,
)
from gda.cli import main as gda_main

import tracing

SRC = Path("src")
SESSIONS = Path("sessions")
GOLDEN = Path("tests") / "golden"
SCHEMA = SRC / "gda" / "schemas" / "report.schema.json"
CLASS_FILE = SESSIONS / "invariant_class.gda"
SESSION_FILES = [SESSIONS / "conditions.gda", CLASS_FILE, SESSIONS / "minimal.gda"]
PATTERNS = ["00", "I0", "0I", "II", "000", "I0I", "II0", "0II"]
D = DiffKind.delta
PAPER, KOSZUL = SignMode.paper_literal, SignMode.koszul

# oracle-crosscheck model trials per op, sized so the model layer holds
# roughly a third of an op, as it does in criterion 7
CORNER_TRIALS = 8
RAISING_TRIALS = 400
MODEL_CHECK_TRIALS = "200"

# the gda package is not installed, and `python -m gda.cli` has no
# __main__ guard (it exits 0 having run nothing), so each child imports
# main() itself and reports import and main() time on its last stderr line
CLI_CHILD = (
    "import sys, time; t0 = time.perf_counter(); from gda.cli import main; "
    "t1 = time.perf_counter(); rc = main(sys.argv[1:]); t2 = time.perf_counter(); "
    f"sys.stderr.write('\\n{tracing.TIMING_MARK} %r %r\\n' % (t1 - t0, t2 - t1)); "
    "sys.exit(rc)"
)
CLI_TRACED_CHILD = (
    "import sys; sys.path.insert(0, {bench!r}); import tracing; "
    "sys.exit(tracing.cli_child(sys.argv[1:]))"
)
CHILD_TIMEOUT_S = 60

# `gda model-check sessions/minimal.gda` exits 1 in both sign modes
# (ROADMAP item 4: closed generators are sampled as arbitrary elements).
# Its known answer stays exit 0, so these commands count as failed; the
# run stays correct as long as they fail only in that documented way.
KNOWN_DEFECTS = {
    ("minimal.gda", "paper"),
    ("minimal.gda", "koszul"),
}


@dataclass
class Outcome:
    """What one operation returned: its result, and for a `gda` command
    the seconds spent inside main()."""

    result: object
    main_s: float | None = None


@dataclass
class Op:
    kind: str
    run: Callable[[tracing.Tracer | None], Outcome]
    check: Callable[[object], list[str]]
    cmd: str | None = None  # command kind for the cmd_*_ms metrics
    # for a known defect: True when a failed result shows the documented symptom
    defect_symptom: Callable[[object], bool] | None = None


# --- shared inputs ----------------------------------------------------

def random_context(rng: random.Random, setup: VerifierSetup):
    """A re-indexed theorem context, drawn like criterion 4's."""
    reg = SymbolRegistry()
    shared = Index(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2))
    phi = Factor(reg.declare("phi", shared))
    eta = Factor(reg.declare("eta", shared))
    comps = tuple(
        Factor(reg.declare(
            f"Phi{i}",
            Index(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2)),
            (),
            "completion",
        ))
        for i in range(1, 5)
    )
    ideals = IdealRegistry()
    for f in (phi, eta):
        ideals.register(IdealKind.nonlocal2, Factor(f.generator, (setup.d,)), setup.laws)
    return phi, eta, comps, ideals


def rule_profile(trace) -> tuple[list[str], list[str], list[str]]:
    rules = [step.rule for step in trace]
    return (
        [r for r in rules if r.startswith("ideal:")],
        sorted(r for r in rules if r.startswith("law:")),
        [r for r in rules if r.startswith("hypothesis:")],
    )


# --- cocycle-sweep ----------------------------------------------------

COCYCLE_SETUPS = [
    VerifierSetup(sign=sign, epsilon_mode=eps)
    for sign in (PAPER, KOSZUL)
    for eps in (EpsilonMode.pair, EpsilonMode.drop)
]


def cocycle_op(rng: random.Random, setup: VerifierSetup) -> Op:
    phi, eta, comps, ideals = random_context(rng, setup)

    def run(tracer):
        closure_set = build_closure_set(phi, eta, comps, ideals, setup)
        class_term = build_class(phi, comps, setup)
        return Outcome(verify_cocycle(class_term, closure_set, ideals, setup))

    def check(report) -> list[str]:
        ideal, law, hyp = rule_profile(report.trace)
        problems = []
        if not report.ok:
            problems.append(f"status {report.status}")
        if ideal != ["ideal:nonlocal2"]:
            problems.append(f"ideal deletions {ideal}")
        if len(hyp) != 1:
            problems.append(f"hypothesis steps {hyp}")
        if setup.epsilon_mode is EpsilonMode.pair and law != ["law:commute-square", "law:square"]:
            problems.append(f"law steps {law}")
        return problems

    return Op(f"cocycle:{setup.sign.value}/{setup.epsilon_mode.value}", run, check)


# --- oracle-crosscheck ------------------------------------------------

ABLATIONS = [
    names for names in itertools.product(("phi", "eta"), repeat=3)
    if names != ("phi", "phi", "phi")
]


@dataclass
class OracleInputs:
    shipped: tuple  # (phi, eta, comps, ideals, setup) from invariant_class.gda
    corner: object
    raising: object


def load_oracle_inputs() -> OracleInputs:
    session = load_session(CLASS_FILE)
    phi, comps = session.class_parts("INV")
    shipped = (phi, session.factor("eta"), comps, session.ideals, session.setup)
    return OracleInputs(shipped, corner_model(), raising_model())


def _corner_trials(phi, eta, comps, setup, primitive, model, rng) -> list[str]:
    phi_t, eta_t = Term.from_factor(phi), Term.from_factor(eta)
    class_phi = build_class(phi_t, comps, setup)
    difference = build_class(add(phi_t, eta_t, strict=False), comps, setup) - class_phi
    d_class = apply_differential(D, class_phi, setup.sign, setup.laws)
    d_primitive = apply_differential(D, primitive, setup.sign, setup.laws)
    problems = []
    for trial in range(CORNER_TRIALS):
        assignment = {"phi": random_element(model, rng), "eta": random_element(model, rng)}
        for c in comps:
            # the closure hypotheses hold when every completion is a cycle
            assignment[c.generator.name] = random_kernel_element(model, D, rng)
        if evaluate(d_class, model, assignment) != {}:
            problems.append(f"corner trial {trial}: d(class) != 0")
        if evaluate(d_primitive, model, assignment) != evaluate(difference, model, assignment):
            problems.append(f"corner trial {trial}: d(primitive) != class difference")
    return problems


def _raising_trials(gens, model, rng) -> list[str]:
    problems = []
    for trial in range(RAISING_TRIALS):
        term = Term.from_monomial(Monomial(tuple(
            Factor(rng.choice(gens), rng.choice(((), (D,))))
            for _ in range(rng.randint(1, 3))
        )))
        assignment = {g.name: random_element(model, rng, g.index.n % 2) for g in gens}
        symbolic = apply_differential(D, term, KOSZUL)
        if evaluate(symbolic, model, assignment) != derive_element(
            model, D, evaluate(term, model, assignment)
        ):
            problems.append(f"raising trial {trial}: chain rule fails for {render_term(term)}")
        if evaluate(apply_differential(D, symbolic, KOSZUL), model, assignment) != {}:
            problems.append(f"raising trial {trial}: d^2 does not evaluate to 0")
    return problems


def oracle_op(rng: random.Random, inputs: OracleInputs, shipped: bool, sign: SignMode) -> Op:
    if shipped:
        phi, eta, comps, ideals, base = inputs.shipped
        setup = replace(base, sign=sign)
    else:
        setup = VerifierSetup(sign=sign)
        phi, eta, comps, ideals = random_context(rng, setup)
    trial_rng = random.Random(rng.getrandbits(64))

    def run(tracer):
        closure_set = build_closure_set(phi, eta, comps, ideals, setup)
        report = verify_independence(phi, eta, comps, closure_set, ideals, setup)
        ablated = [
            verify_independence(
                phi, eta, comps, closure_set.without("|".join(names) + "|D"), ideals, setup
            )
            for names in ABLATIONS
        ]
        if report.primitive is None:
            model_problems = ["no primitive to evaluate"]
        elif sign is PAPER:
            model_problems = _corner_trials(
                phi, eta, comps, setup, report.primitive, inputs.corner, trial_rng
            )
        else:
            gens = [f.generator for f in (phi, eta, *comps)]
            model_problems = _raising_trials(gens, inputs.raising, trial_rng)
        return Outcome((report, ablated, model_problems))

    def check(result) -> list[str]:
        report, ablated, model_problems = result
        problems = list(model_problems)
        if not report.ok:
            problems.append(f"independence status {report.status}")
        if report.primitive is None or len(report.primitive) != 7:
            problems.append("primitive is not the seven-summand combination")
        survivors = set()
        for names, ab in zip(ABLATIONS, ablated):
            if ab.ok:
                problems.append(f"dropping {names} still verified")
            if len(ab.residual) != 1:
                problems.append(f"dropping {names} left {len(ab.residual)} terms")
            if not any(repr(names) in note for note in ab.notes):
                problems.append(f"dropping {names} did not name the assignment")
            survivors.add(render_term(ab.residual))
        if len(survivors) != len(ABLATIONS):
            problems.append(f"{len(survivors)} distinct ablation survivors")
        return problems

    origin = "shipped" if shipped else "random"
    return Op(f"oracle:{origin}/{sign.value}", run, check)


# --- gda commands -------------------------------------------------------

def _schema_errors(value, schema: dict, where: str = "$") -> list[str]:
    """The part of JSON Schema that report.schema.json uses."""
    errors = []
    if "const" in schema and value != schema["const"]:
        errors.append(f"{where}: expected {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{where}: {value!r} not in {schema['enum']}")
    if "type" in schema:
        kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        python_types = {
            "object": dict, "array": list, "string": str, "null": type(None),
            "boolean": bool, "integer": int, "number": (int, float),
        }
        if not any(isinstance(value, python_types[k]) for k in kinds):
            return errors + [f"{where}: not of type {kinds}"]
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{where}: missing {key}")
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                errors += _schema_errors(item, properties[key], f"{where}.{key}")
            elif schema.get("additionalProperties") is False:
                errors.append(f"{where}: unexpected {key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors += _schema_errors(item, schema["items"], f"{where}[{i}]")
    return errors


@dataclass
class CommandInputs:
    schema: dict
    session_text: dict[str, str]
    golden: dict[str, str]


def load_command_inputs() -> CommandInputs:
    return CommandInputs(
        json.loads(SCHEMA.read_text(encoding="utf-8")),
        {str(p): p.read_text(encoding="utf-8") for p in SESSION_FILES},
        {p: (GOLDEN / f"case_{p}.tree.txt").read_text(encoding="utf-8") for p in PATTERNS},
    )


def _report_checker(inputs: CommandInputs, claim: str, extra=None):
    def check(result) -> list[str]:
        rc, stdout = result
        try:
            report = json.loads(stdout)
        except ValueError:
            return [f"exit {rc}, stdout is not a JSON report"]
        problems = _schema_errors(report, inputs.schema)
        if rc != 0:
            problems.append(f"exit {rc}")
        if report.get("claim") != claim or report.get("status") != "ok":
            problems.append(f"{report.get('claim')}: {report.get('status')}")
        if extra is not None and not problems:
            problems += extra(report)
        return problems

    return check


def _cocycle_trace(report) -> list[str]:
    rules = [step["rule"] for step in report["trace"]]
    problems = []
    if [r for r in rules if r.startswith("ideal:")] != ["ideal:nonlocal2"]:
        problems.append("ideal deletions differ")
    if len([r for r in rules if r.startswith("hypothesis:")]) != 1:
        problems.append("hypothesis steps differ")
    return problems


def _seven_summands(report) -> list[str]:
    # a rendered monomial is one parenthesised factor list
    if (report["primitive"] or "").count("(") != 7:
        return ["primitive is not the seven-summand combination"]
    return []


def _exact_output(expected: str):
    def check(result) -> list[str]:
        rc, stdout = result
        problems = [] if stdout == expected else ["stdout differs from the expected text"]
        if rc != 0:
            problems.append(f"exit {rc}")
        return problems

    return check


def _model_check_fails(inputs: CommandInputs):
    """The documented symptom of a known model-check defect: exit 1
    with a valid report whose status is fail."""
    def symptom(result) -> bool:
        rc, stdout = result
        try:
            report = json.loads(stdout)
        except ValueError:
            return False
        return (rc == 1 and not _schema_errors(report, inputs.schema)
                and report["status"] == "fail")

    return symptom


@dataclass
class Command:
    cmd: str
    argv: list[str]
    check: Callable[[object], list[str]]
    defect_symptom: Callable[[object], bool] | None = None


def command_specs(inputs: CommandInputs, probe: bool = False) -> list[Command]:
    """The cli-sessions command list; with probe=True, the one command
    per kind that the in-process workloads time through main()."""
    cls = str(CLASS_FILE)
    vc = ["verify-class", cls, "--class", "INV", "--hypotheses", "H", "--report", "json"]
    vi = ["verify-independence", cls, "--class", "INV", "--eta", "eta", "--report", "json"]
    mc = ["--trials", MODEL_CHECK_TRIALS, "--report", "json"]
    if probe:
        return [
            Command("check", ["check", cls, "--report", "json"], _report_checker(inputs, "check")),
            Command("verify_class", vc, _report_checker(inputs, "cocycle", _cocycle_trace)),
            Command("verify_independence", vi,
                    _report_checker(inputs, "independence", _seven_summands)),
            Command("model_check", ["model-check", cls] + mc, _report_checker(inputs, "model")),
            Command("derive", ["derive", "--start", "(000)"], _exact_output(inputs.golden["000"])),
        ]
    specs = []
    for path in SESSION_FILES:
        specs.append(Command("check", ["check", str(path), "--report", "json"],
                             _report_checker(inputs, "check")))
        specs.append(Command("print", ["print", str(path)],
                             _exact_output(inputs.session_text[str(path)])))
    for mode in (["--sign-mode", "paper"], ["--sign-mode", "koszul"], ["--epsilon-mode", "drop"]):
        specs.append(Command("verify_class", vc + mode,
                             _report_checker(inputs, "cocycle", _cocycle_trace)))
    for sign in ("paper", "koszul"):
        specs.append(Command("verify_independence", vi + ["--sign-mode", sign],
                             _report_checker(inputs, "independence", _seven_summands)))
    for path, sign in [(CLASS_FILE, "paper"), (CLASS_FILE, "koszul"),
                       (SESSIONS / "conditions.gda", "paper"),
                       (SESSIONS / "minimal.gda", "paper"), (SESSIONS / "minimal.gda", "koszul")]:
        specs.append(Command(
            "model_check", ["model-check", str(path), "--sign-mode", sign] + mc,
            _report_checker(inputs, "model"),
            _model_check_fails(inputs) if (path.name, sign) in KNOWN_DEFECTS else None,
        ))
    for pattern in PATTERNS:
        specs.append(Command("derive", ["derive", "--start", f"({pattern})"],
                             _exact_output(inputs.golden[pattern])))
    return specs


def _with_seed(spec: Command, rng: random.Random) -> list[str]:
    if spec.cmd == "model_check":
        return spec.argv + ["--seed", str(rng.randrange(2**31))]
    return spec.argv


def inprocess_op(spec: Command, rng: random.Random) -> Op:
    """One gda command through main() in this process (warm imports)."""
    argv = _with_seed(spec, rng)

    def run(tracer):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            rc = gda_main(argv)
        return Outcome((rc, out.getvalue()), time.perf_counter() - start)

    return Op(f"main: gda {' '.join(spec.argv)}", run, spec.check, spec.cmd, spec.defect_symptom)


def child_op(spec: Command, rng: random.Random, op_id: int, out_dir: Path) -> Op:
    """One gda command in a fresh interpreter."""
    argv = _with_seed(spec, rng)

    def run(tracer):
        env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
        code = CLI_CHILD
        trace_file = out_dir / f"child-{op_id}.json"
        if tracer is not None:
            code = CLI_TRACED_CHILD.format(bench=str(Path(__file__).resolve().parent))
            env[tracing.CHILD_OUT_ENV] = str(trace_file.resolve())
            env[tracing.CHILD_OP_ENV] = str(op_id)
        proc = subprocess.run(
            [sys.executable, "-c", code] + argv,
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
        )
        main_s = None
        last = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1].split()
        if len(last) == 3 and last[0] == tracing.TIMING_MARK:
            main_s = float(last[2])
            if tracer is not None:
                tracer.merge(json.loads(trace_file.read_text(encoding="utf-8")))
                trace_file.unlink()
        return Outcome((proc.returncode, proc.stdout), main_s)

    return Op(f"child: gda {' '.join(spec.argv)}", run, spec.check, spec.cmd, spec.defect_symptom)


# --- workloads ----------------------------------------------------------

class Workload:
    """Rounds of operations for one workload.  A round is the unit the
    runner plans, times and (in a traced run) alternates between traced
    and untraced.  The in-process workloads also spend probe_share of
    their time on probe commands through main(), interleaved with the
    ops and rotating over the command kinds; every kind but the slowest,
    model-check, repeats in each rotation, because on a box whose speed
    drifts a run's figure for a kind steadies only with many samples."""

    name: str
    in_process = True
    probe_share = 0.0
    PROBE_REPEATS = {"check": 8, "derive": 4, "verify_class": 2, "verify_independence": 2}

    def __init__(self, seed: str, out_dir: Path):
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.commands = load_command_inputs()
        self.probe_specs = [
            spec
            for spec in command_specs(self.commands, probe=True)
            for _ in range(self.PROBE_REPEATS.get(spec.cmd, 1))
        ]
        self.probe_queue: list[Command] = []

    def round(self) -> list[Op]:
        raise NotImplementedError

    def next_probe(self) -> Op:
        if not self.probe_queue:
            self.probe_queue = list(self.probe_specs)
            self.rng.shuffle(self.probe_queue)
        return inprocess_op(self.probe_queue.pop(), self.rng)


class CocycleSweep(Workload):
    name = "cocycle-sweep"
    probe_share = 0.5

    def round(self):
        return [cocycle_op(self.rng, setup) for setup in COCYCLE_SETUPS]


class OracleCrosscheck(Workload):
    name = "oracle-crosscheck"
    probe_share = 0.5

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.inputs = load_oracle_inputs()

    def round(self):
        return [
            oracle_op(self.rng, self.inputs, shipped, sign)
            for sign in (PAPER, KOSZUL)
            for shipped in (True, False)
        ]


class CliSessions(Workload):
    name = "cli-sessions"
    in_process = False

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.specs = command_specs(self.commands)
        self.next_id = 0

    def round(self):
        specs = list(self.specs)
        self.rng.shuffle(specs)
        ops = []
        for spec in specs:
            ops.append(child_op(spec, self.rng, self.next_id, self.out_dir))
            self.next_id += 1
        return ops


WORKLOADS = {w.name: w for w in (CocycleSweep, OracleCrosscheck, CliSessions)}


def setup_inputs(name: str, seed: str) -> None:
    """What one set-up does after `import gda`: load or generate the
    workload's inputs (the first rounds, for the seeded workloads)."""
    workload = WORKLOADS[name](seed, Path(".bench_out"))
    if workload.in_process:
        for _ in range(4):
            workload.round()

"""Acceptance gate: eight criteria, one verdict line each.

Run with -s (or read the -v listing) to see the verdict lines. Budgets
are wall-clock and generous for CI noise; the algebraic checks are exact.
"""
import itertools
import json
import jsonschema
import re
import time
import random
from fractions import Fraction
from pathlib import Path

from gda import (
    DiffKind,
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
    check_coherence,
    corner_model,
    derive_element,
    derive_tree,
    evaluate,
    load_session,
    multiply,
    normalize,
    parse_file,
    print_session,
    raising_model,
    random_element,
    random_kernel_element,
    render_tree,
    render_term,
    scale,
    standard_start,
    tree_to_json,
    verify_cocycle,
    verify_independence,
)
from gda.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SESSIONS = ROOT / "sessions"
CLASS_FILE = SESSIONS / "invariant_class.gda"

PATTERNS = ["00", "I0", "0I", "II", "000", "I0I", "II0", "0II"]
SEED = 20260822

D = DiffKind.delta
DD = DiffKind.Delta


# filled per criterion; conftest reprints it after the run so the
# verdict lines survive pytest's output capture
VERDICTS: list[str] = []


def verdict(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {num}] {name}: {status}"
    VERDICTS.append(line)
    print(line)
    assert not failures, f"criterion {num}: " + "; ".join(failures[:8])


def fresh_tree(pattern, depth=8):
    reg = SymbolRegistry()
    start = standard_start(f"({pattern})", reg)
    return derive_tree(start, depth=depth, registry=reg)


def line_matcher(line):
    """Golden lines quote fresh names as <fN>; matching is per line, with
    repeats of one placeholder bound to the same concrete name."""
    groups = {}
    out = []
    for piece in re.split(r"(<f\d+>)", line):
        if re.fullmatch(r"<f\d+>", piece):
            if piece in groups:
                out.append(f"\\{groups[piece]}")
            else:
                groups[piece] = len(groups) + 1
                out.append(r"(_f\d+)")
        else:
            out.append(re.escape(piece))
    return re.compile("".join(out))


def test_criterion_1_golden_reproduction():
    failures = []
    for pattern in PATTERNS:
        t0 = time.perf_counter()
        tree = fresh_tree(pattern)
        elapsed = time.perf_counter() - t0
        if elapsed >= 1.0:
            failures.append(f"({pattern}) took {elapsed:.2f}s")
        rendered = render_tree(tree)
        frozen = (GOLDEN / f"case_{pattern}.tree.txt").read_text()
        if rendered != frozen:
            failures.append(f"({pattern}) drifted from frozen output")
        equations = [node.condition.equation for node in tree.nodes]
        for line in (GOLDEN / f"case_{pattern}.lines.txt").read_text().splitlines():
            if not line.strip():
                continue
            pat = line_matcher(line)
            if not any(pat.fullmatch(eq) for eq in equations):
                failures.append(f"({pattern}) missing line: {line}")
    verdict(1, "derivation lines reproduced", failures)


def test_criterion_2_periodic_families():
    failures = []
    expected_relations = [
        "0 = (alpha[k], beta[k])",
        "alpha[k].d = (alpha[k+1], beta[k])",
        "beta[k].d = (alpha[k], beta[k+1])",
    ]
    seen_any = False
    for pattern in PATTERNS:
        tree = fresh_tree(pattern)
        if not tree.families:
            failures.append(f"({pattern}) found no periodic family")
            continue
        for fam in tree.families:
            seen_any = True
            if fam.relations() != expected_relations:
                failures.append(f"({pattern}) wrong relations: {fam.relations()}")
            conds = fam.instantiate(6)
            if len(conds) != 18:
                failures.append(f"({pattern}) expected 18 instances, got {len(conds)}")
            for cond in conds:
                try:
                    check_coherence(cond)
                except Exception as err:
                    failures.append(f"({pattern}) k-instance incoherent: {err}")
                    break
    if not seen_any:
        failures.append("no family detected anywhere")
    verdict(2, "periodic family relations", failures)


def test_criterion_3_differential_laws():
    failures = []
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    reg = SymbolRegistry()
    gens = [
        reg.declare(
            f"g{i}",
            Index(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(0, 2)),
        )
        for i in range(8)
    ]
    stacks = [(), (D,), (DD,), (D, DD), (DD, DD)]

    def random_monomial(arity):
        factors = tuple(
            Factor(rng.choice(gens), rng.choice(stacks)) for _ in range(arity)
        )
        return Monomial(factors)

    # square-zero under the graded convention, on sums as well as monomials
    for i in range(120):
        mono = random_monomial(rng.randint(1, 5))
        term = Term.from_monomial(mono)
        if rng.random() < 0.5:
            shuffled = list(mono.factors)
            rng.shuffle(shuffled)
            other = Monomial(tuple(shuffled))
            term = add(
                scale(rng.randint(1, 3), term),
                scale(rng.randint(1, 3), Term.from_monomial(other)),
                strict=False,
            )
        twice = apply_differential(
            D, apply_differential(D, term, SignMode.koszul), SignMode.koszul
        )
        if not normalize(twice).is_zero:
            failures.append(f"koszul square left {render_term(twice)}")
            break

    # the literal convention leaves twice the cross term on two-factor products
    for i in range(80):
        left = Factor(rng.choice(gens), rng.choice(stacks))
        right = Factor(rng.choice(gens), rng.choice(stacks))
        prod = Term.from_monomial(Monomial((left, right)))
        twice = apply_differential(D, apply_differential(D, prod))
        da = apply_differential(D, Term.from_factor(left))
        db = apply_differential(D, Term.from_factor(right))
        expect = scale(2, multiply([da, db])) if not (da.is_zero or db.is_zero) else Term.zero()
        if normalize(add(twice, scale(-1, expect), strict=False)) != Term.zero():
            failures.append(
                f"literal square on ({left}, {right}): {render_term(twice)}"
                f" != {render_term(expect)}"
            )
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"law sweep took {elapsed:.2f}s")
    verdict(3, "square rules in both sign modes", failures)


def cocycle_trace_profile(report):
    rules = [step.rule for step in report.trace]
    ideal = [r for r in rules if r.startswith("ideal:")]
    law = [r for r in rules if r.startswith("law:")]
    hyp = [r for r in rules if r.startswith("hypothesis:")]
    return ideal, sorted(law), hyp


def random_theorem_context(rng):
    reg = SymbolRegistry()
    setup = VerifierSetup()
    shared = Index(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2))
    phi = Factor(reg.declare("phi", shared))
    eta = Factor(reg.declare("eta", shared))
    comps = tuple(
        Factor(
            reg.declare(
                f"Phi{i}",
                Index(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2)),
                (),
                "completion",
            )
        )
        for i in range(1, 5)
    )
    ideals = IdealRegistry()
    for f in (phi, eta):
        ideals.register(IdealKind.nonlocal2, Factor(f.generator, (setup.d,)), setup.laws)
    return phi, eta, comps, ideals, setup


def test_criterion_4_cocycle_verification():
    failures = []
    t0 = time.perf_counter()
    session = load_session(CLASS_FILE)
    report = verify_cocycle(
        session.class_term("INV"), session.closure_set("H"), session.ideals, session.setup
    )
    if not report.ok:
        failures.append("shipped declaration not verified")
    ideal, law, hyp = cocycle_trace_profile(report)
    if ideal != ["ideal:nonlocal2"]:
        failures.append(f"ideal deletions: {ideal}")
    if law != ["law:commute-square", "law:square"]:
        failures.append(f"law deletions: {law}")
    if len(hyp) != 1:
        failures.append(f"hypothesis cancellations: {hyp}")

    rng = random.Random(SEED)
    for round_no in range(100):
        phi, eta, comps, ideals, setup = random_theorem_context(rng)
        closure_set = build_closure_set(phi, eta, comps, ideals, setup)
        rep = verify_cocycle(build_class(phi, comps, setup), closure_set, ideals, setup)
        ideal, law, hyp = cocycle_trace_profile(rep)
        if not rep.ok or ideal != ["ideal:nonlocal2"] or len(law) != 2 or len(hyp) != 1:
            failures.append(f"re-indexing {round_no} broke the proof")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"cocycle sweep took {elapsed:.2f}s")
    verdict(4, "closure of the invariant class", failures)


def test_criterion_5_independence_verification():
    failures = []
    t0 = time.perf_counter()
    session = load_session(CLASS_FILE)
    phi, comps = session.class_parts("INV")
    eta = session.factor("eta")
    closure_set = session.closure_set("H")
    report = verify_independence(
        phi, eta, comps, closure_set, session.ideals, session.setup
    )
    if not report.ok:
        failures.append("independence not verified on the shipped declaration")
    if report.primitive is None or len(report.primitive.monomials()) != 7:
        failures.append("primitive is not the seven-summand combination")

    crosses = [
        names
        for names in itertools.product(("phi", "eta"), repeat=3)
        if names != ("phi", "phi", "phi")
    ]
    survivors = set()
    for names in crosses:
        tag = "|".join(names) + "|D"
        ablated = verify_independence(
            phi, eta, comps, closure_set.without(tag), session.ideals, session.setup
        )
        if ablated.ok:
            failures.append(f"dropping {tag} still verified")
            continue
        if len(ablated.residual.monomials()) != 1:
            failures.append(
                f"dropping {tag} left {len(ablated.residual.monomials())} terms"
            )
            continue
        survivors.add(render_term(ablated.residual))
        if not any(f"({names[0]!r}, {names[1]!r}, {names[2]!r})" in note
                   for note in ablated.notes):
            failures.append(f"dropping {tag} did not name the assignment")
    if len(survivors) != 7:
        failures.append(f"ablations produced {len(survivors)} distinct survivors")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"independence sweep took {elapsed:.2f}s")
    verdict(5, "primitive for the class difference", failures)


def test_criterion_6_index_coherence():
    failures = []
    rng = random.Random(SEED)
    reg = SymbolRegistry()
    gens = [
        reg.declare(
            f"h{i}",
            Index(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(0, 3)),
        )
        for i in range(10)
    ]
    stacks = [(), (D,), (DD,), (D, DD), (DD, DD), (D, DD, DD)]
    shift = {D: (1, -1, 0), DD: (0, 0, 1)}
    for case in range(500):
        arity = rng.randint(1, 6)
        factors = []
        overlaps = []
        for _ in range(arity):
            factors.append(Factor(rng.choice(gens), rng.choice(stacks)))
            overlaps.append((rng.randint(0, 2), rng.randint(0, 2)))
        mono = Monomial(tuple(factors), tuple(overlaps))

        n = m = kappa = 0
        m_lit = 0
        for f, (r, t) in zip(factors, overlaps):
            fn, fm, fk = f.generator.index.as_tuple()
            for kind in f.diffs:
                dn, dm, dk = shift[kind]
                fn, fm, fk = fn + dn, fm + dm, fk + dk
            n += fn - r
            m += fm - t
            m_lit += fn - t
            kappa += fk
        if mono.index() != Index(n, m, kappa):
            failures.append(f"case {case}: {mono.index()} != {(n, m, kappa)}")
            break
        if mono.index(literal_m=True) != Index(n, m_lit, kappa):
            failures.append(f"case {case}: literal-m variant off")
            break
    verdict(6, "index arithmetic", failures)


def element_add(a, b):
    out = dict(a)
    for bits, c in b.items():
        out[bits] = out.get(bits, Fraction(0)) + c
    return {bits: c for bits, c in out.items() if c}


def test_criterion_7_model_oracles():
    failures = []
    t0 = time.perf_counter()

    # literal-sign side over the two-differential gf2 model
    model = corner_model()
    session = load_session(CLASS_FILE)
    setup = session.setup
    phi, comps = session.class_parts("INV")
    eta = session.factor("eta")
    closure_set = session.closure_set("H")
    cls = session.class_term("INV")
    primitive = verify_independence(
        phi, eta, comps, closure_set, session.ideals, setup
    ).primitive
    phi_t, eta_t = Term.from_factor(phi), Term.from_factor(eta)
    diff = add(
        build_class(add(phi_t, eta_t), comps, setup), scale(-1, cls)
    )
    d_cls = apply_differential(D, cls, setup.sign, setup.laws)
    d_prim = apply_differential(D, primitive, setup.sign, setup.laws)

    rng = random.Random(SEED)
    for trial in range(25):
        assignment = {
            "phi": random_element(model, rng),
            "eta": random_element(model, rng),
        }
        for c in comps:
            # closure hypotheses are true when every completion is a cycle
            assignment[c.generator.name] = random_kernel_element(model, D, rng)
        if evaluate(d_cls, model, assignment) != {}:
            failures.append(f"gf2 trial {trial}: class differential nonzero")
            break
        left = evaluate(d_prim, model, assignment)
        right = evaluate(diff, model, assignment)
        if left != right:
            failures.append(f"gf2 trial {trial}: primitive identity fails")
            break
        a = random_element(model, rng)
        b = random_element(model, rng)
        ab = wedge_eval(model, a, b)
        twice = derive_element(model, D, derive_element(model, D, ab))
        if twice != {}:
            failures.append(f"gf2 trial {trial}: model square nonzero")
            break

    # graded side over the rational raising model
    qmodel = raising_model()
    reg = SymbolRegistry()
    qgens = [reg.declare(f"q{i}", Index(rng.randint(0, 3), 0, 0)) for i in range(4)]
    qstacks = [(), (D,)]
    for trial in range(25):
        arity = rng.randint(1, 3)
        term = Term.from_monomial(
            Monomial(tuple(Factor(rng.choice(qgens), rng.choice(qstacks)) for _ in range(arity)))
        )
        assignment = {
            g.name: random_element(qmodel, rng, g.index.n % 2) for g in qgens
        }
        symbolic = apply_differential(D, term, SignMode.koszul)
        left = evaluate(symbolic, qmodel, assignment)
        right = derive_element(qmodel, D, evaluate(term, qmodel, assignment))
        if left != right:
            failures.append(f"q trial {trial}: chain rule fails for {render_term(term)}")
            break
        twice = apply_differential(D, symbolic, SignMode.koszul)
        if evaluate(twice, qmodel, assignment) != {}:
            failures.append(f"q trial {trial}: square survives evaluation")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"model sweep took {elapsed:.2f}s")
    verdict(7, "finite-model agreement", failures)


def wedge_eval(model, a, b):
    from gda import wedge
    return wedge(model.field, a, b)


def test_criterion_8_cli_contract(tmp_path, capsys):
    failures = []

    for path in sorted(SESSIONS.glob("*.gda")):
        if print_session(parse_file(path)) != path.read_text():
            failures.append(f"{path.name} does not round-trip")

    if main(["check", str(CLASS_FILE)]) != 0:
        failures.append("check on the shipped session should exit 0")
    broken = tmp_path / "broken.gda"
    broken.write_text("gen a index (1,0,0)\n")
    if main(["check", str(broken)]) != 2:
        failures.append("syntax errors should exit 2")
    if main(["check", str(tmp_path / "absent.gda")]) != 2:
        failures.append("missing files should exit 2")
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
    rc = main(["verify-class", str(mismatched), "--class", "INV", "--hypotheses", "H"])
    if rc != 1:
        failures.append(f"failed verification should exit 1, got {rc}")
    capsys.readouterr()

    schema = json.loads(
        (ROOT / "src" / "gda" / "schemas" / "report.schema.json").read_text()
    )
    json_runs = [
        ["verify-class", str(CLASS_FILE), "--class", "INV", "--hypotheses", "H"],
        ["verify-independence", str(CLASS_FILE), "--class", "INV", "--eta", "eta"],
        ["model-check", str(CLASS_FILE), "--trials", "5"],
        ["check", str(CLASS_FILE)],
    ]
    for argv in json_runs:
        rc = main(argv + ["--report", "json"])
        payload = json.loads(capsys.readouterr().out)
        try:
            jsonschema.validate(payload, schema)
        except jsonschema.ValidationError as err:
            failures.append(f"{argv[0]} report invalid: {err.message}")
        if rc != 0:
            failures.append(f"{argv[0]} unexpectedly exited {rc}")

    if tree_to_json(None) != {"edges": []}:
        failures.append("empty tree serialization drifted")

    verdict(8, "session files and exit codes", failures)

"""Benchmark of the gda workbench: one workload, one seed, one run.

    python3 bench/run.py --workload oracle-crosscheck --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout.  Workloads (see workloads.py):

  cocycle-sweep      closure set + class + cocycle check on re-indexed
                     contexts, cycled over {paper, koszul} x {pair, drop};
                     not listed in BENCHMARK.json, because on a 2-core box
                     its figures spread too far between runs to gate a change
  oracle-crosscheck  one closure set per op, read by the independence
                     check, 7 ablations and finite-model trials
  cli-sessions       every gda subcommand on the shipped sessions, one
                     fresh interpreter per command

Each is a closed loop: one client, one op at a time, and at most one
child process at a time.  A run is SEGMENTS stretches of rounds; each
round starts only if it is expected to end inside its stretch's share
of --seconds.  The in-process workloads run each stretch in a fresh
worker interpreter with its own hash seed, so one run averages several
dict layouts, and they spend half of their time on probe commands
through main(), so the cmd_*_ms metrics exist on every workload (warm
there, cold on cli-sessions).  Set-ups are timed between the stretches.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced rounds, prints per-layer metrics per traced op with the
tracing overhead, and writes the spans to .bench_out/.  Every op is
checked against its known answer.  Human-readable lines come first; the
last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
REQUIRED = ["src/gda/__init__.py", "sessions", "tests/golden"]
SEGMENTS = 4
SETUPS_PER_SEGMENT = 2  # plus one at the end: the median of 9 set-ups
CHILD_PRELUDE = "import sys; sys.path[:0] = ['src', {bench!r}]; "
SETUP_CHILD = CHILD_PRELUDE + "import workloads; workloads.setup_inputs(sys.argv[1], sys.argv[2])"
WORKER_CHILD = CHILD_PRELUDE + "import run; run.worker(sys.argv[1:])"
CMD_METRICS = ["check", "verify_class", "verify_independence", "model_check", "derive"]
LAYER_FUNCTIONS = [
    "terms.Term.__add__", "terms.Term.items", "terms.multiply",
    "differentials.apply_slot_differential", "differentials.apply_differential",
    "differentials.classify_push",
    "ideals.IdealRegistry.reduce_with_trace",
    "verifier.build_closure_set", "verifier.cancel_hypotheses",
    "verifier.verify_cocycle", "verifier.verify_independence",
    "model.evaluate", "model.wedge", "model.derive_element", "model.kernel_basis",
    "conditions.derive_tree",
    "dsl.load_session",
    "cli.main",
]


@dataclass
class Record:
    kind: str
    cmd: str | None
    work: bool  # a workload op, as opposed to an in-process command probe
    seconds: float
    main_s: float | None
    problems: list[str]
    traced: bool
    known_defect: bool
    symptom_ok: bool  # failed the documented way of a known defect


def child(code: str, args: list[str], timeout: float, env=None) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", code.format(bench=str(BENCH_DIR))] + args,
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child {args} failed:\n{proc.stderr}")
    return proc


def measure_setup(workload: str, seed: str) -> float:
    """Wall time of one fresh interpreter that imports gda and builds the
    workload's inputs."""
    start = time.perf_counter()
    child(SETUP_CHILD, [workload, seed], 60)
    return time.perf_counter() - start


def run_op(op, work, tracer, op_id, root_span=False) -> Record:
    span = tracer.op(op_id, op.kind) if root_span else nullcontext()
    outcome = error = None
    with span:
        start = time.perf_counter()
        try:
            outcome = op.run(tracer)
        except Exception as err:  # a raising op is a failed op, not a crash of the run
            error = f"raised {type(err).__name__}: {err}"
        seconds = time.perf_counter() - start
    if error is None:
        try:
            problems = op.check(outcome.result)
        except Exception as err:
            problems = [f"check raised {type(err).__name__}: {err}"]
    else:
        problems = [error]
    symptom_ok = bool(problems) and error is None and op.defect_symptom is not None \
        and op.defect_symptom(outcome.result)
    main_s = outcome.main_s if outcome is not None else None
    return Record(op.kind, op.cmd, work, seconds, main_s, problems, tracer is not None,
                  op.defect_symptom is not None, symptom_ok)


def measure(workload, budget: float, trace: bool, round_times: list[float]) -> dict:
    """Run rounds of the workload for about `budget` seconds: a round
    starts only if the mean of `round_times` (which carries over between
    the stretches of one interpreter) still fits, and the first round of
    an interpreter always runs.  In a traced run rounds alternate
    between traced and untraced, starting traced, so even a one-round
    stretch yields per-layer figures."""
    import tracing
    import workloads

    tracer = tracing.Tracer(tracing.SPAN_CAP // SEGMENTS) if trace else None
    records: list[Record] = []
    rounds = 0
    probe_credit = 0.0
    begin = time.perf_counter()
    while not round_times or time.perf_counter() - begin + statistics.fmean(round_times) <= budget:
        traced = trace and len(round_times) % 2 == 0
        round_start = time.perf_counter()
        restore = tracing.install(tracer, [workloads]) if traced and workload.in_process else None
        try:
            for op in workload.round():
                record = run_op(op, True, tracer if traced else None, len(records),
                                root_span=traced and workload.in_process)
                records.append(record)
                if trace or not workload.probe_share:
                    continue
                probe_credit += record.seconds * workload.probe_share / (1 - workload.probe_share)
                while probe_credit > 0:
                    probe = run_op(workload.next_probe(), False, None, len(records))
                    records.append(probe)
                    probe_credit -= probe.seconds
        finally:
            if restore is not None:
                tracing.uninstall(restore)
        round_times.append(time.perf_counter() - round_start)
        rounds += 1
    return {
        "records": [asdict(r) for r in records],
        "trace": tracer.payload() if tracer is not None else None,
        "rounds": rounds,
    }


def worker(argv: list[str]) -> None:
    """One stretch of an in-process workload, in a fresh interpreter;
    prints what `measure` returned, with this interpreter's gda import time."""
    name, seed, budget, trace = argv
    start = time.perf_counter()
    import gda  # noqa: F401
    import_s = time.perf_counter() - start
    import workloads

    workload = workloads.WORKLOADS[name](seed, OUT_DIR)
    part = measure(workload, float(budget), trace == "1", [])
    part["import_s"] = import_s
    print(json.dumps(part))


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def trimmed_mean(values: list[float]) -> float:
    """Mean of `values` without their highest and lowest twentieth.
    On a box whose speed drifts over seconds, one command's times spread
    flat between the slow and the fast state; there a mean varies about
    half as much from run to run as a median does, and the trim keeps a
    stray stall from moving it."""
    ordered = sorted(values)
    cut = len(ordered) // 20
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def cmd_ms(records, cmd) -> tuple[float | None, int, int]:
    """Trimmed mean main() time of each command of one kind, averaged over
    the kind's commands (their costs differ by mode and session, so one
    figure over the pooled samples would depend on their mix)."""
    by_command: dict[str, list[float]] = {}
    for r in records:
        if r.cmd == cmd and r.main_s is not None:
            by_command.setdefault(r.kind, []).append(r.main_s)
    if not by_command:
        return None, 0, 0
    value = statistics.fmean(trimmed_mean(v) for v in by_command.values()) * 1000
    return value, len(by_command), sum(map(len, by_command.values()))


def peak_rss_mb() -> float:
    """Largest peak RSS of a child: the workers, CLI commands and set-ups."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def src_line_count() -> int:
    return sum(p.read_bytes().count(b"\n") for p in Path("src/gda").rglob("*.py"))


def per_layer(tracer, records, import_s) -> dict:
    traced = [r.seconds for r in records if r.work and r.traced]
    untraced = [r.seconds for r in records if r.work and not r.traced]
    ops = max(tracer.ops, 1)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        calls, self_s, total_s = tracer.stats.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / ops, "s/op")
        metrics[f"{name}.total_s"] = (total_s / ops, "s/op")
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["differentials.push_kill_ratio"] = (
        ratio(c["differentials.pushes_killed"], c["differentials.pushes"]), "ratio")
    metrics["ideals.delete_ratio"] = (
        ratio(c["ideals.monomials_deleted"], c["ideals.monomials_examined"]), "ratio")
    metrics["verifier.hypotheses_built"] = (c["verifier.hypotheses_built"] / ops, "count/op")
    metrics["verifier.hypotheses_used_ratio"] = (
        ratio(c["verifier.hypotheses_used"], c["verifier.hypotheses_built"]), "ratio")
    kernel_calls = tracer.stats.get("model.kernel_basis", (0,))[0]
    metrics["model.kernel_basis_repeat_ratio"] = (
        ratio(c["model.kernel_basis_repeats"], kernel_calls), "ratio")
    metrics["conditions.nodes"] = (c["conditions.nodes"] / ops, "count/op")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.op_s"] = (statistics.fmean(traced) if traced else 0.0, "s/op")
    metrics["trace.ops"] = (tracer.ops, "count")
    overhead = 0.0
    if traced and untraced:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not Path(p).exists()]
    if missing:
        print(f"error: run from the root of a gda checkout; missing {missing}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path[:0] = [str(Path("src").resolve()), str(BENCH_DIR)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r};"
              f" choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    in_process = workloads.WORKLOADS[args.workload].in_process
    OUT_DIR.mkdir(exist_ok=True)
    seed = str(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    cli = None if in_process else workloads.WORKLOADS[args.workload](seed, OUT_DIR)
    cli_round_times: list[float] = []
    records: list[Record] = []
    setups: list[float] = []
    import_times: list[float] = []
    rounds = 0
    begin = time.perf_counter()
    for segment in range(SEGMENTS):
        if not args.trace:
            setups += [measure_setup(args.workload, seed) for _ in range(SETUPS_PER_SEGMENT)]
        budget = begin + (segment + 1) * args.seconds / SEGMENTS - time.perf_counter()
        if in_process:
            stretch_seed = f"{args.seed}/{segment}"
            env = dict(os.environ, PYTHONHASHSEED=str(random.Random(stretch_seed).getrandbits(32)))
            proc = child(WORKER_CHILD, [args.workload, stretch_seed, str(budget), str(args.trace)],
                         budget + 60, env)
            part = json.loads(proc.stdout.strip().splitlines()[-1])
            import_times.append(part["import_s"])
        else:
            part = measure(cli, budget, bool(args.trace), cli_round_times)
        records += [Record(**r) for r in part["records"]]
        rounds += part["rounds"]
        if tracer is not None:
            tracer.merge(part["trace"])
    measured_s = time.perf_counter() - begin
    if not args.trace:
        setups.append(measure_setup(args.workload, seed))

    failed = [r for r in records if r.problems]
    correct = all(r.known_defect and r.symptom_ok for r in failed)
    work = [r for r in records if r.work]
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "src_gda_lines": src_line_count(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "rounds": rounds,
        "measured_s": measured_s, "ops": len(work), "attempted": len(records),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"failed_share {len(failed) / len(records):.6f} ratio"
          f"  ({len(failed)} of {len(records)} ops)")
    for r in failed:
        label = "known defect" if r.symptom_ok else "FAILED"
        print(f"  {label}: {r.kind}: {'; '.join(r.problems)[:300]}")

    if args.trace:
        if in_process:
            import_s = statistics.fmean(import_times)
        else:
            import_s = tracer.counters["cli.import_s"] / max(tracer.ops, 1)
        metrics = per_layer(tracer, records, import_s)
        spans = OUT_DIR / f"spans-{args.workload}.jsonl"
        tracer.write_spans(spans)
        op_s = metrics["trace.op_s"][0] or 1.0
        print(f"per traced op ({tracer.ops} ops, {op_s * 1000:.3f} ms each); spans in {spans}")
        for name in LAYER_FUNCTIONS:
            total = metrics[f"{name}.total_s"][0]
            if total:
                print(f"  {name:42s} self {metrics[f'{name}.self_s'][0] / op_s:6.1%}"
                      f"  total {total / op_s:6.1%}"
                      f"  calls {metrics[f'{name}.calls'][0]:.1f}")
    else:
        seconds = [r.seconds for r in work]
        pct, tail_s = tail(seconds)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ops_per_s": (len(seconds) / sum(seconds), "1/s"),
            "op_p50_ms": (statistics.median(seconds) * 1000, "ms"),
            "op_tail_ms": (tail_s * 1000, "ms"),
        }
        print(f"op_tail_ms is p{pct:.1f} of {len(seconds)} ops; op_p50_ms of the same")
        for cmd in CMD_METRICS:
            value, commands, samples = cmd_ms(records, cmd)
            metrics[f"cmd_{cmd}_ms"] = (value, "ms")
            print(f"cmd_{cmd}_ms: mean over {commands} commands of each one's 5%-trimmed"
                  f" mean main() time ({samples} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Committed digests of whole verification reports: the independence
check with its 7 ablations, and the cocycle check with every 7th closure
condition left out, over the shipped class and seeded random contexts in
both sign modes.

Each line of `tests/golden/report_digests.txt` is the sha256 of one
report's `to_json()` (keys sorted) and the report's label, so the trace,
the residual, the primitive and the notes are all pinned, not only the
verdict.  `tests/test_verifier.py` recomputes every line.  A change that
alters a report on purpose regenerates the file from the repository root
with

    PYTHONPATH=src python tests/report_digests.py

and explains the changed lines, as for any golden file.
"""
import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path

from gda import SignMode, build_class, build_closure_set, load_session, verify_cocycle, verify_independence
from test_acceptance import random_theorem_context

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "report_digests.txt"
CLASS_FILE = ROOT / "sessions" / "invariant_class.gda"
RANDOM_CONTEXTS = 20
SEED = 20261020
# every ordered assignment but the diagonal one, at slot-1 depth 0
ABLATIONS = [
    "|".join(names) + "|D"
    for names in itertools.product(("phi", "eta"), repeat=3)
    if names != ("phi", "phi", "phi")
]


def contexts():
    """(label, phi, eta, completions, ideals, setup), both signs each."""
    session = load_session(CLASS_FILE)
    phi, comps = session.class_parts("INV")
    bases = [("shipped", phi, session.factor("eta"), comps, session.ideals, session.setup)]
    rng = random.Random(SEED)
    for i in range(RANDOM_CONTEXTS):
        bases.append((f"random-{i:02d}", *random_theorem_context(rng)))
    for (label, phi, eta, comps, ideals, setup), sign in itertools.product(bases, SignMode):
        yield f"{label} {sign.value}", phi, eta, comps, ideals, dataclasses.replace(setup, sign=sign)


def reports():
    """(label, report) for every pinned report, in file order."""
    for label, phi, eta, comps, ideals, setup in contexts():
        closure_set = build_closure_set(phi, eta, comps, ideals, setup)
        yield f"{label} independence", verify_independence(phi, eta, comps, closure_set, ideals, setup)
        for tag in ABLATIONS:
            yield f"{label} independence without {tag}", verify_independence(
                phi, eta, comps, closure_set.without(tag), ideals, setup
            )
        class_term = build_class(phi, comps, setup)
        yield f"{label} cocycle", verify_cocycle(class_term, closure_set, ideals, setup)
        # from the second condition on, so that the one the class needs
        # (phi|phi|phi|Dd) is among those left out
        for h in closure_set.conditions[1::7]:
            yield f"{label} cocycle without {h.tag}", verify_cocycle(
                class_term, closure_set.without(h.tag), ideals, setup
            )


def digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


def read() -> list[tuple[str, str]]:
    """(label, digest) for each line of the committed file."""
    entries = []
    for line in DIGESTS.read_text().splitlines():
        if line and not line.startswith("#"):
            sha, label = line.split(" ", 1)
            entries.append((label, sha))
    return entries


def write() -> None:
    lines = [f"{digest(report)} {label}" for label, report in reports()]
    header = (
        "# sha256 of a verification report's to_json() (keys sorted), then its label;\n"
        "# regenerate with: PYTHONPATH=src python tests/report_digests.py\n"
    )
    DIGESTS.write_text(header + "\n".join(lines) + "\n")


if __name__ == "__main__":
    write()

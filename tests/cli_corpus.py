"""The committed CLI corpus: a list of `gda` command lines, each with the
sha256 of what `main()` gives for it (exit code, stdout, stderr).

`tests/test_cli.py` reruns every line in process and names each command
whose digest differs.  A change that alters CLI output on purpose
regenerates the file from the repository root with

    PYTHONPATH=src python tests/cli_corpus.py

and explains the changed lines, as for any golden file.  Paths in the
commands are relative to the repository root, so the commands run there.
"""
import contextlib
import hashlib
import io
import json
import os
import shlex
from pathlib import Path

from gda.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "cli_corpus.txt"
MALFORMED = ROOT / "tests" / "golden" / "malformed"

SESSIONS = ["sessions/conditions.gda", "sessions/invariant_class.gda", "sessions/minimal.gda"]
SESSION_FLAGS = [
    [],
    ["--sign-mode", "koszul"],
    ["--epsilon-mode", "drop"],
    ["--d", "Delta"],
    ["--literal-m-coherence"],
    ["--sign-mode", "koszul", "--d", "Delta"],
]
SESSION_COMMANDS = [
    ["check"],
    ["verify-class", "--class", "INV"],
    ["verify-class", "--class", "INV", "--hypotheses", "H"],
    ["verify-independence", "--class", "INV", "--eta", "eta"],
    ["model-check", "--trials", "20", "--seed", "3"],
]
# the start patterns of the golden derive trees
PATTERNS = ["(00)", "(000)", "(0I)", "(0II)", "(I0)", "(I0I)", "(II)", "(II0)"]
REPORTS = [[], ["--report", "json"]]


def commands() -> list[list[str]]:
    out = []
    for path in SESSIONS:
        for command in SESSION_COMMANDS:
            for flags in SESSION_FLAGS:
                for report in REPORTS:
                    out.append([command[0], path, *command[1:], *flags, *report])
    out += [["print", path] for path in SESSIONS]
    for pattern in PATTERNS:
        for sign in ("paper", "koszul"):
            for d in ("delta", "Delta"):
                for report in REPORTS:
                    out.append(["derive", "--start", pattern, "--sign-mode", sign, "--d", d, *report])
    for path in sorted(MALFORMED.glob("*.gda")):
        for report in REPORTS:
            out.append(["check", path.relative_to(ROOT).as_posix(), *report])
    out.append(["derive", "--start", "(00)", "--depth", "0"])
    return out


def digest(argv: list[str]) -> str:
    """sha256 of [exit code, stdout, stderr] of `main(argv)` as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse rejects the command line
            code = stop.code
    payload = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(payload.encode()).hexdigest()


def read() -> list[tuple[list[str], str]]:
    """(argv, digest) for each line of the committed corpus."""
    entries = []
    for line in CORPUS.read_text().splitlines():
        if line and not line.startswith("#"):
            sha, command = line.split(" ", 1)
            entries.append((shlex.split(command), sha))
    return entries


def write() -> None:
    os.chdir(ROOT)
    lines = [f"{digest(argv)} {shlex.join(argv)}" for argv in commands()]
    header = (
        "# sha256 of [exit code, stdout, stderr] of gda.cli.main(argv), then argv;\n"
        "# regenerate with: PYTHONPATH=src python tests/cli_corpus.py\n"
    )
    CORPUS.write_text(header + "\n".join(lines) + "\n")


if __name__ == "__main__":
    write()

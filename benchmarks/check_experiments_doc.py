"""Gate the docs against the live registry and the live CLI.

Usage::

    PYTHONPATH=src python benchmarks/check_experiments_doc.py [EXPERIMENTS.md]

EXPERIMENTS.md carries a "paper artefact -> experiment" mapping table
between ``experiment-registry-table:begin/end`` markers.  This check
fails when the two drift in either direction:

* an experiment registered in :data:`repro.harness.experiments.REGISTRY`
  is missing from the table (or listed out of catalog order), or
* the table lists a name that is not registered, or
* a row's paper artefact / description no longer matches the spec's
  ``figure`` / ``description``.

It also parses every ``silo-repro ...`` and ``python -m
repro.harness ...`` command line of README.md, EXPERIMENTS.md and
docs/MODEL.md (fenced code-block lines and inline code spans) through
the CLI's parser — parse only, nothing runs — and fails on any line
the CLI rejects, or that names an unregistered experiment.

Exit status 0 = in sync, 1 = drift (with a per-row explanation),
2 = the document or its markers cannot be parsed.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The documents whose command lines must parse.
COMMAND_DOCS = ("README.md", "EXPERIMENTS.md", "docs/MODEL.md")

BEGIN = "<!-- experiment-registry-table:begin -->"
END = "<!-- experiment-registry-table:end -->"
ROW = re.compile(r"^\|\s*(?P<figure>[^|]+?)\s*\|\s*`(?P<name>[^`]+)`\s*\|\s*(?P<description>[^|]+?)\s*\|$")


def parse_table(text: str) -> List[Tuple[str, str, str]]:
    """(figure, name, description) rows between the drift markers."""
    try:
        begin = text.index(BEGIN)
        end = text.index(END)
    except ValueError:
        raise SystemExit(
            f"error: EXPERIMENTS.md is missing the {BEGIN} / {END} markers"
        )
    rows: List[Tuple[str, str, str]] = []
    for line in text[begin:end].splitlines():
        match = ROW.match(line.strip())
        if match:
            rows.append(
                (match["figure"], match["name"], match["description"])
            )
    if not rows:
        raise SystemExit("error: no experiment rows found between the markers")
    return rows


#: A command line: optional environment assignments, then the console
#: script or the package's ``-m`` entry point (not a submodule such as
#: ``repro.harness.equivalence``).
COMMAND = re.compile(
    r"^(?:\w+=\S*\s+)*(?:silo-repro|python3? -m repro\.harness)(?=\s|$)"
)
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")


def command_lines(text: str) -> List[Tuple[int, str]]:
    """(line number, command) for every CLI command line in a Markdown
    document: lines of fenced code blocks (backslash continuations
    joined) and inline code spans (which may wrap across lines)."""
    found: List[Tuple[int, str]] = []
    prose_end = 0
    chunks = []
    for fence in FENCE.finditer(text):
        chunks.append((prose_end, text[prose_end : fence.start()], False))
        chunks.append((fence.start(), fence.group(0), True))
        prose_end = fence.end()
    chunks.append((prose_end, text[prose_end:], False))
    for offset, chunk, fenced in chunks:
        first_line = text.count("\n", 0, offset) + 1
        if fenced:
            lines = chunk.splitlines()
            number = 0
            while number < len(lines):
                start, line = number, lines[number].strip()
                while line.endswith("\\") and number + 1 < len(lines):
                    number += 1
                    line = line[:-1].rstrip() + " " + lines[number].strip()
                number += 1
                if COMMAND.match(line):
                    found.append((first_line + start, line))
            continue
        for span in SPAN.finditer(chunk):
            command = " ".join(span.group(1).split())
            if COMMAND.match(command):
                line = first_line + chunk.count("\n", 0, span.start())
                found.append((line, command))
    return found


def cli_arguments(command: str) -> List[str]:
    """The argument vector after the program name."""
    tokens = shlex.split(command, comments=True)
    while tokens and re.match(r"^\w+=", tokens[0]):
        tokens.pop(0)
    if tokens[0] == "silo-repro":
        return tokens[1:]
    return tokens[3:]  # python -m repro.harness


def check_command(command: str, registry) -> str:
    """Why the CLI rejects ``command`` ("" when it parses)."""
    from repro.harness.cli import build_parser, expand_aliases

    output = io.StringIO()
    try:
        with contextlib.redirect_stderr(output), contextlib.redirect_stdout(output):
            args = build_parser().parse_args(expand_aliases(cli_arguments(command)))
    except SystemExit as exc:  # argparse: --help/--version exit 0
        return output.getvalue().strip().splitlines()[-1] if exc.code else ""
    if args.command == "exp" and args.exp_command == "run":
        unknown = [name for name in args.names if name not in registry]
        if unknown:
            return f"unknown experiment(s) {', '.join(unknown)}"
    return ""


def check_commands(registry, docs=COMMAND_DOCS) -> Tuple[int, List[str]]:
    """(commands checked, problems) over ``docs``."""
    problems: List[str] = []
    checked = 0
    for name in docs:
        for line, command in command_lines((ROOT / name).read_text()):
            checked += 1
            why = check_command(command, registry)
            if why:
                problems.append(f"{name}:{line}: `{command}`: {why}")
    return checked, problems


def main(argv: List[str]) -> int:
    doc = Path(argv[0]) if argv else Path(__file__).parent.parent / "EXPERIMENTS.md"
    from repro.harness.experiments import load_all

    registry = load_all()
    rows = parse_table(doc.read_text())
    problems: List[str] = []

    documented = [name for _, name, _ in rows]
    registered = registry.names()
    for name in registered:
        if name not in documented:
            problems.append(
                f"registered experiment {name!r} has no row in {doc.name}"
            )
    for name in documented:
        if name not in registry:
            problems.append(
                f"{doc.name} lists {name!r}, which is not registered"
            )
    if not problems and documented != registered:
        problems.append(
            f"{doc.name} rows are out of catalog order: "
            f"{documented} != {registered}"
        )
    for figure, name, description in rows:
        if name not in registry:
            continue
        spec = registry.get(name)
        if figure != spec.figure:
            problems.append(
                f"{name!r}: artefact column says {figure!r}, "
                f"spec.figure is {spec.figure!r}"
            )
        if description != spec.description:
            problems.append(
                f"{name!r}: description column drifted from the spec:\n"
                f"    doc : {description}\n"
                f"    spec: {spec.description}"
            )

    checked, command_problems = check_commands(registry)
    problems += command_problems
    if problems:
        print("experiment registry / CLI / docs drift:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(
        f"{doc.name} registry table in sync: "
        f"{len(registered)} experiments documented; "
        f"{checked} documented command lines parse"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

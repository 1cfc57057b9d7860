#!/usr/bin/env python3
"""Run hand-written mutants of the source against a pytest selection.

Each mutant is one text edit: ``find`` must occur exactly once in
``file`` and is replaced by ``replace``. For each mutant the checkout is
copied to a temporary directory, the edit is applied there, and the
pytest selection runs in the copy; the checkout itself is never written.
One verdict line is printed per mutant:

    killed    the selection failed (the first failing test is named)
    survived  the selection passed; a mutant the list marks equivalent
              says so, with the list's reason
    timeout   the selection ran longer than ``TIMEOUT`` seconds

The unmutated copy runs first; if it fails, no mutant is run.

Usage, from the root of a checkout:

    python3 tools/mutate.py tools/mutants_encoders.json -- -q tests \\
        --deselect tests/test_acceptance.py::TestAcceptance::test_08_desk_scale_training

Everything after ``--`` is passed to ``python -m pytest``. The exit
status is 0 when every mutant is killed or marked equivalent, 1 when one
survives unmarked, and 2 when the unmutated copy fails. A mutant list is
a JSON list of objects with the keys ``name``, ``file``, ``find``,
``replace`` and, for a mutant that cannot change any result, an optional
``equivalent`` reason.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# left out of each copy: nothing a test reads, and some of it large
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*")
# seconds one selection may run, so a mutant that loops forever ends
TIMEOUT = 600.0


def load_mutants(path: Path) -> list[dict]:
    mutants = json.loads(path.read_text())
    names = [m["name"] for m in mutants]
    if len(set(names)) != len(names):
        raise SystemExit(f"{path}: mutant names repeat")
    for m in mutants:
        text = (ROOT / m["file"]).read_text()
        if text.count(m["find"]) != 1:
            raise SystemExit(f"{m['name']}: 'find' occurs {text.count(m['find'])} times "
                             f"in {m['file']}, not once")
        if m["find"] == m["replace"]:
            raise SystemExit(f"{m['name']}: 'replace' equals 'find'")
    return mutants


def run_selection(tree: Path, pytest_args: list[str]):
    """(pytest exit code or None on timeout, first failing test id or '')."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-rfE", "-p", "no:cacheprovider",
           *pytest_args]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, ""
    first = next((line.split(" ", 1)[1].split(" - ")[0] for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return done.returncode, first


def verdict(mutant: dict, tree: Path, pytest_args: list[str]):
    """Copy the checkout, apply ``mutant`` and run the selection: (word, detail)."""
    copy = tree / "copy"
    shutil.copytree(ROOT, copy, ignore=SKIP)
    try:
        if mutant is not None:
            target = copy / mutant["file"]
            target.write_text(target.read_text().replace(mutant["find"], mutant["replace"]))
        code, first = run_selection(copy, pytest_args)
    finally:
        shutil.rmtree(copy)
    if code is None:
        return "timeout", f"over {TIMEOUT:g} s"
    if code == 0:
        reason = (mutant or {}).get("equivalent")
        return "survived", f"equivalent: {reason}" if reason else ""
    return "killed", first or f"pytest exit {code}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ours, pytest_args = (argv[:argv.index("--")], argv[argv.index("--") + 1:]) \
        if "--" in argv else (argv, [])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mutants", type=Path, help="JSON list of mutants")
    args = parser.parse_args(ours)
    mutants = load_mutants(args.mutants)
    width = max(len(m["name"]) for m in mutants)
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        word, detail = verdict(None, Path(tmp), pytest_args)
        if word != "survived":
            print(f"unmutated copy fails ({word}: {detail}); no mutant run", flush=True)
            return 2
        unmarked = 0
        for m in mutants:
            word, detail = verdict(m, Path(tmp), pytest_args)
            unmarked += word == "survived" and "equivalent" not in m
            print(f"{m['name']:<{width}}  {word:<8}  {detail}".rstrip(), flush=True)
    return 1 if unmarked else 0


if __name__ == "__main__":
    sys.exit(main())

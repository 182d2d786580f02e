"""Golden CLI corpus: stdout and exit code of every subcommand on fixed,
seeded inputs, compared byte for byte with `golden/cli_corpus.json`.

A deliberate change of output is recorded by running this file as a
script (`PYTHONPATH=src python tests/test_cli_golden.py`), which rewrites
the golden file from the current code; name each changed entry in
CHANGES.md. Every `$ ecgroups ...` example in README.md must print the
line quoted under it.
"""

import contextlib
import functools
import io
import json
import shlex
from pathlib import Path

import pytest

from ecgroups.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_corpus.json"
README = Path(__file__).parents[1] / "README.md"

F8 = "p=2;n=3;mod=1,1,0,1"
F9 = "p=3;n=2;mod=1,0,1"

CORPUS = [
    ["info", "--field", "p=13", "--curve", "0,0,0,6,11"],
    ["info", "--field", F8, "--curve", "1,0,0,0,1"],
    ["info", "--field", "p=13", "--curve", "0,0,0,0,0"],
    ["info", "--field", "p=13", "--curve", "0,1,0,0,0"],
    ["--format", "table", "info", "--field", F9, "--curve", "0,1,0,1,1"],
    ["info", "--field", "p=12", "--curve", "0,0,0,1,1"],
    ["info", "--field", "p=13", "--curve", "0,0,0,1"],
    ["count", "--field", "p=10007", "--curve", "0,0,0,2,3"],
    ["count", "--field", "p=1009", "--curve", "1,2,3,4,5", "--method", "random"],
    ["--seed", "5", "count", "--field", "p=1000003", "--curve", "0,0,0,7,11",
     "--method", "bsgs"],
    ["--seed", "2", "count", "--field", "p=2;n=5;mod=1,0,1,0,0,1", "--curve", "1,0,0,0,1",
     "--method", "bsgs"],
    ["count", "--field", "p=1009", "--curve", "0,0,0,0,3", "--method", "closed"],
    ["count", "--field", "p=13", "--curve", "0,0,0,6,11", "--method", "lucas", "--n", "7"],
    ["count", "--field", "p=13", "--curve", "0,0,0,0,0"],
    ["count", "--field", "p=13", "--curve", "0,0,0,1,1", "--method", "closed"],
    ["structure", "--field", "p=13", "--curve", "0,0,0,6,11"],
    ["--seed", "3", "structure", "--field", "p=101", "--curve", "0,0,0,1,0"],
    ["structure", "--field", F9, "--curve", "0,0,0,1,0"],
    ["structure", "--field", F8, "--curve", "1,0,0,0,1"],
    ["torsion", "--field", "p=13", "--curve", "0,0,0,6,11", "--n", "3"],
    ["torsion", "--field", "p=31", "--curve", "0,0,0,-1,0", "--n", "2"],
    ["twist", "--field", "p=13", "--curve", "0,0,0,6,11"],
    ["twist", "--field", F8, "--curve", "1,0,0,0,1"],
    ["classes", "--q", "13"],
    ["classes", "--q", "12"],
    ["encode", "--field", "p=1009", "--curve", "0,0,0,2,3", "--m", "5", "--K", "10"],
    ["decode", "--field", "p=13", "--curve", "0,0,0,6,11", "--point", "(12,11)", "--K", "1"],
    ["decode", "--field", "p=13", "--curve", "0,0,0,6,11", "--point", "(1,1)", "--K", "1"],
    ["decode", "--field", "p=13", "--curve", "0,0,0,6,11", "--point", "inf", "--K", "1"],
    ["--seed", "4", "primitive", "--field", "p=211", "--curve", "0,0,0,2,3"],
    ["primitive", "--field", "p=13", "--curve", "0,0,0,1,0"],
    ["--seed", "1", "construct", "--field", "p=1009", "--N", "1000"],
    ["cm", "--d=-3", "--p", "1009"],
    ["--seed", "2", "cm", "--d=-7", "--p", "1019"],
    ["cm", "--d=-4", "--p", "1019"],
    ["cm", "--d", "3", "--p", "1009"],
    ["embed", "--field", "p=13", "--curve", "0,0,0,6,11", "--r", "5"],
    ["lint", "--field", "p=1009", "--curve", "0,0,0,2,3"],
    ["lint", "--field", "p=1019", "--curve", "0,0,0,1,0"],
    ["zeta", "--field", "p=13", "--curve", "0,0,0,6,11"],
    ["zeta", "--field", "p=2;n=2;mod=1,1,1", "--curve", "0,0,1,0,0", "--nmax", "4"],
    ["zeta", "--field", "p=1601", "--curve", "1,2,3,4,5"],
    ["lseries", "--curve", "0,0,0,-1,0", "--nmax", "30"],
    ["lseries", "--curve", "0,0,1,-1,0"],
    ["angles", "--curve", "0,0,0,-1,0", "--mode", "vary_prime", "--limit", "300"],
    ["angles", "--field", "p=13", "--curve", "0,0,0,6,11", "--mode", "vary_degree",
     "--limit", "12"],
    ["census", "--q", "31"],
    ["--format", "table", "census", "--q", "13"],
    ["bogus"],
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@functools.cache
def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_corpus():
    assert [entry["argv"] for entry in _golden()] == CORPUS


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: " ".join(CORPUS[i]))
def test_cli_golden(index):
    assert run(CORPUS[index]) == _golden()[index]


def _readme_examples():
    lines = README.read_text().splitlines()
    return [(line.removeprefix("$ ecgroups "), lines[i + 1])
            for i, line in enumerate(lines) if line.startswith("$ ecgroups ")]


@pytest.mark.parametrize("command, printed", _readme_examples())
def test_readme_example(command, printed):
    assert run(shlex.split(command)) == {
        "argv": shlex.split(command), "exit": 0, "stdout": printed + "\n"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in CORPUS], indent=1) + "\n")

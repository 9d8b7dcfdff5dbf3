"""Pin the command line's exit codes and stdout in cli.json.

Run from the checkout root:

    PYTHONPATH=src python tests/golden/make_cli_golden.py [--force | --add]

Every command line below is run in-process through `relex.cli.main`, with
the checkout root as the working directory (the paths in the command lines
are relative to it), once as written and once with `--json` in front.  A
record holds the exit code and everything printed on stdout; stderr is not
pinned.  The command lines cover:

- `check` ndap (holding by locality and by search, failing with a witness
  family, on a theory file), dap and jep;
- `age`, and `theory check` (parametric and not) and `theory models`;
- `sample` of all four kinds, with `--rep-weights`, and a frame-wise
  equivalence-relation draw that ends in an amalgamation failure;
- `test` of all four kinds, over frame-wise, rule-file and `ref:<example>`
  samplers, passing and failing;
- `embeddings` between the two structure files in tests/golden/structures/;
- usage errors that exit 2 with nothing on stdout: an unknown class, a
  missing `--rules`, and `--cap`, `--alpha` and `--N` out of range.

`verify-paper-examples --fast` is pinned in its `--json` form only, at
meta seeds 0 and 3: its reports read the tallies of every rule-driven and
frame-wise paper example, so a change to how samples are drawn or counted
shows here.  tests/test_cli.py runs the slow form.

tests/test_golden.py recomputes every record and compares it with the file.
The file is generated once; regenerating it changes what the test pins, so
give the reason in CHANGES.md whenever you do.  The script refuses to
overwrite an existing file unless given --force; --add computes only the
command lines the file lacks and keeps every existing record as it is.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from relex.cli import main as relex_main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli.json"
ROOT = HERE.parent.parent

COMMANDS = (
    "check ndap --class graphs --n 3",
    "check ndap --class digraphs --n 2",
    "check ndap --class equivalence --n 3",
    "check ndap --class theories/graphs.th --n 3 --cap 5",
    "check dap --class graphs",
    "check jep --class tournaments --bound 1",
    "age --class graphs --n 3",
    "theory check theories/graphs.th",
    "theory check theories/equivalence.th",
    "theory models theories/graphs.th --n 2",
    "sample framewise --class graphs --n 4 --seed 9",
    "sample framewise --class graphs --n 3 --seed 2 --rep-weights 1,3",
    "sample framewise --class equivalence --n 3 --seed 0",
    "sample exchangeable --rules rules/random_graph.json --n 3 --seed 5",
    "sample m-exch --rules rules/two_coin.json --ref evens --n 4 --seed 3",
    "sample maxseg --rules rules/two_coin.json --ref evens --n 5 --seed 1",
    "test exch --sampler framewise:graphs --n 3 --N 100 --meta-seed 5",
    "test exch --sampler ref:strong-rep --n 2 --N 60 --alpha 0.05",
    "test rel-exch --sampler m-exch:rules/two_coin.json:evens --ref evens --n 2 --N 100",
    "test rel-exch --sampler ref:tdc-evens --ref tdc-evens --n 1 --window 4 --N 150",
    "test dissoc --sampler framewise:graphs --s 1,2 --t 3,4 --N 200 --meta-seed 3",
    "test equal --sampler framewise:graphs --b exchangeable:rules/complete.json"
    " --subset 1,2 --N 100",
    "embeddings --source tests/golden/structures/edge.json"
    " --target tests/golden/structures/path3.json",
    "check ndap --class nosuch",
    "sample exchangeable --n 3",
    "check ndap --class graphs --cap 9",
    "test exch --sampler framewise:graphs --alpha 1",
    "test exch --sampler framewise:graphs --N 0",
)

# pinned in the `--json` form only
JSON_COMMANDS = (
    "verify-paper-examples --fast --meta-seed 0",
    "verify-paper-examples --fast --meta-seed 3",
)


def command_lines() -> list[str]:
    """Every command as written and in its `--json` form, then the
    `--json` form of each of JSON_COMMANDS."""
    return ([line for command in COMMANDS for line in (command, "--json " + command)]
            + ["--json " + command for command in JSON_COMMANDS])


def compute(command_line: str) -> dict:
    """Exit code and stdout of one in-process run from the checkout root."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = relex_main(shlex.split(command_line))
            except SystemExit as exit_:  # argparse's own usage errors
                code = exit_.code
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": stdout.getvalue()}


def main() -> None:
    flags = sys.argv[1:]
    if GOLDEN.exists() and not {"--force", "--add"} & set(flags):
        sys.exit(f"{GOLDEN} exists; pass --force to overwrite it or --add to extend it")
    golden = json.loads(GOLDEN.read_text()) if "--add" in flags else {}
    golden.update({line: compute(line) for line in command_lines() if line not in golden})
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} command lines to {GOLDEN}")


if __name__ == "__main__":
    main()

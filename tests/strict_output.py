"""Strict checks of CLI output read from stdin, for CI steps.

    python tests/strict_output.py json < report.json
    python tests/strict_output.py csv < sweep.csv

``json``: the text parses as JSON with no NaN or Infinity constants.
``csv``: every row after the header has the header's width and only
finite numbers.  Exits nonzero, naming the fault, otherwise.  The file
name keeps pytest from collecting it; it needs only the standard library.
"""

import json
import math
import sys


def strict_json(text: str) -> None:
    def bad(constant):
        raise ValueError(constant)
    json.loads(text, parse_constant=bad)


def strict_csv(text: str) -> None:
    lines = text.splitlines()
    width = len(lines[0].split(","))
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        if len(cells) != width or not all(map(math.isfinite, cells)):
            sys.exit(f"not a finite row of {width}: {line}")


if __name__ == "__main__":
    if sys.argv[1:] not in (["json"], ["csv"]):
        sys.exit("usage: strict_output.py json|csv < output")
    {"json": strict_json, "csv": strict_csv}[sys.argv[1]](sys.stdin.read())

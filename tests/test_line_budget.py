"""The line count of the package source, against ROADMAP's cap."""

from pathlib import Path

import fragility

SRC_LINE_CAP = 2500


def test_src_stays_under_the_line_cap():
    files = sorted(Path(fragility.__file__).parent.glob("*.py"))
    lines = sum(len(f.read_bytes().splitlines()) for f in files)
    assert lines <= SRC_LINE_CAP, f"src/fragility/*.py has {lines} lines, over the cap of {SRC_LINE_CAP}"

"""Rewrite the golden corpus's expected outputs and list the cases that changed.

    python tests/golden/regen.py            # every case
    python tests/golden/regen.py NAME ...   # only the named cases

Run it only when a report change is intended, and log each changed case,
with the reason, alongside the change.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from corpus import load_cases, run_case, write_expected  # noqa: E402


def main(names: list[str]) -> int:
    changed = []
    for name, case in load_cases():
        if names and name not in names:
            continue
        if write_expected(name, case, *run_case(case)):
            changed.append(name)
    for name in changed:
        print(f"changed: {name}")
    print(f"{len(changed)} case(s) changed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

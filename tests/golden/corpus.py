"""Golden report corpus: run each committed case through ``dpcheck.cli.main``
and compare its report bytes, exit code and error text with the expected
ones.

A case is a directory under ``cases/`` holding ``case.json`` (the command,
its config, extra flags, and under ``expect`` the exit code and stderr
text) and ``expected.out`` (the exact stdout bytes).  ``regen.py``
rewrites the expected parts; everything else is input.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

CASES_DIR = Path(__file__).resolve().parent / "cases"


def load_cases() -> list[tuple[str, dict]]:
    return [(d.name, json.loads((d / "case.json").read_text())) for d in sorted(CASES_DIR.iterdir())]


def expected_stdout(name: str) -> str:
    return (CASES_DIR / name / "expected.out").read_text(encoding="utf-8")


def run_case(case: dict) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    from dpcheck.cli import main

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(case["config"]), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([case["command"], "--config", str(config), *case["flags"]])
    return code, out.getvalue(), err.getvalue()


def write_expected(name: str, case: dict, code: int, stdout: str, stderr: str) -> bool:
    """Store a run as the case's expectation; True when anything changed."""
    changed = (
        case.get("expect") != {"exit": code, "stderr": stderr}
        or not (CASES_DIR / name / "expected.out").exists()
        or expected_stdout(name) != stdout
    )
    case = {**case, "expect": {"exit": code, "stderr": stderr}}
    (CASES_DIR / name / "case.json").write_text(
        json.dumps(case, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (CASES_DIR / name / "expected.out").write_text(stdout, encoding="utf-8")
    return changed


def _parse_report(text: str):
    # audit, divergence, rnm-verify and accountant print one JSON document;
    # sample prints one JSON object per line
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines()]


def _first_difference(a, b, path: str = "$") -> str | None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key} (present on one side only)"
            found = _first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None if len(a) == len(b) else f"{path} (length {len(a)} != {len(b)})"
    if a != b or type(a) is not type(b):
        return f"{path} ({a!r} != {b!r})"
    return None


def _max_float_difference(a, b) -> float:
    if isinstance(a, dict) and isinstance(b, dict):
        return max((_max_float_difference(a[k], b[k]) for k in set(a) & set(b)), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        return max((_max_float_difference(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, float) and isinstance(b, float) and a != b:
        if math.isfinite(a) and math.isfinite(b):
            return abs(a - b)
        return math.inf
    return 0.0


def describe_mismatch(expected: str, actual: str) -> str:
    """The first differing JSON path and the largest float difference."""
    try:
        want, got = _parse_report(expected), _parse_report(actual)
    except json.JSONDecodeError:
        return "report is not JSON; bytes differ"
    where = _first_difference(want, got) or "JSON equal, formatting differs"
    return f"first difference at {where}; largest float difference {_max_float_difference(want, got):.3g}"

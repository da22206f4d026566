"""Byte identity of CLI reports against the committed golden corpus.

A failure means a report changed under a fixed (config, seed).  If the
change is intended, run ``python tests/golden/regen.py`` and log every
changed case with its reason.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

from corpus import describe_mismatch, expected_stdout, load_cases, run_case  # noqa: E402

CASES = load_cases()


@pytest.mark.parametrize("name,case", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(name, case):
    code, stdout, stderr = run_case(case)
    assert (code, stderr) == (case["expect"]["exit"], case["expect"]["stderr"])
    expected = expected_stdout(name)
    if stdout != expected:
        pytest.fail(f"{name}: {describe_mismatch(expected, stdout)}")

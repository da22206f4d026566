"""Smoke test of ``scripts/audit_demo.py``: run in-process, it prints one
verdict per audit."""

import runpy
import sys
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "audit_demo.py"


def test_audit_demo_verdicts(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(DEMO), "--samples", "5000"])
    runpy.run_path(str(DEMO), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    # each line reads "<audit>: <verdict>", optionally followed by the witness
    verdicts = [line.split(": ", 1)[1].split()[0] for line in lines]
    assert verdicts == ["pass", "violation", "violation"]

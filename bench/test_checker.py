"""Self-test of the benchmark's checker on real dpcheck reports.

    PYTHONPATH=src python3 -m pytest bench/test_checker.py

The checker must accept what the program reports today and reject each
corrupted copy of it; otherwise a wrong verdict could pass as a fast one.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402
from dpcheck import cli  # noqa: E402


def _pick(workload, workdir, want):
    """The first generated op of a workload that satisfies want(op)."""
    workdir.mkdir()
    for ops in workloads.generate(workload, 0, workdir):
        for op in ops:
            if want(op):
                workloads.prepare(op)
                return op
    raise LookupError(workload)


def _run(op):
    out = op.path.with_suffix(".out.json")
    code = cli.main([op.command, "--config", str(op.path), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    ops = {
        "rnm": _pick("rnm-verify", tmp / "rnm", lambda op: op.config["m_max"] == 3),
        "quad-pass": _pick("audit-quadrature", tmp / "qp", lambda op: op.spec["expect"] == "pass"),
        "quad-violation": _pick(
            "audit-quadrature", tmp / "qv", lambda op: op.spec["expect"] == "violation"
        ),
        "stat-private": _pick(
            "audit-statistical-intervals", tmp / "sp", lambda op: op.spec["expect"] != "violation"
        ),
        "stat-broken": _pick(
            "audit-statistical-labels", tmp / "sb", lambda op: op.spec["expect"] == "violation"
        ),
    }
    return {name: (op, *_run(op)) for name, op in ops.items()}


@pytest.mark.parametrize("name", ["rnm", "quad-pass", "quad-violation", "stat-private", "stat-broken"])
def test_accepts_real_reports(reports, name):
    op, code, report = reports[name]
    problems, err = checker.check(op, code, report)
    assert problems == []
    assert err is None or math.isfinite(err)


def _first_row(report):
    return report["sections"][-1]["rows"][0]


def _flip_all_pass(r):
    r["all_pass"] = False


def _perturb_p(r):
    _first_row(r)["p"] += 1e-6


def _drop_row(r):
    r["sections"][-1]["rows"].pop()


def _drop_field(key):
    def corrupt(r):
        del r[key]

    return corrupt


def _flip_verdict(r):
    r["verdict"] = "pass" if r["verdict"] == "violation" else "violation"


def _shift_gap(amount):
    def corrupt(r):
        r["witness"]["gap"] += amount

    return corrupt


def _drop_max_lower(r):
    del r["detail"]["max_lower"]


def _raise_max_lower(r):
    r["detail"]["max_lower"] = 2.0


CORRUPTIONS = [
    ("rnm", "flipped all_pass", _flip_all_pass),
    ("rnm", "p perturbed by 1e-6", _perturb_p),
    ("rnm", "dropped row", _drop_row),
    ("rnm", "missing all_pass", _drop_field("all_pass")),
    ("rnm", "missing sections", _drop_field("sections")),
    ("quad-pass", "flipped verdict", _flip_verdict),
    ("quad-pass", "missing verdict", _drop_field("verdict")),
    ("quad-violation", "flipped verdict", _flip_verdict),
    ("quad-violation", "witness gap off by 1e-6", _shift_gap(1e-6)),
    ("quad-violation", "missing witness", _drop_field("witness")),
    ("stat-private", "flipped verdict", _flip_verdict),
    ("stat-private", "max_lower above the oracle", _raise_max_lower),
    ("stat-private", "missing max_lower", _drop_max_lower),
    ("stat-broken", "flipped verdict", _flip_verdict),
    ("stat-broken", "witness gap off by 1", _shift_gap(1.0)),
    ("stat-broken", "missing witness", _drop_field("witness")),
]


@pytest.mark.parametrize("name, what, corrupt", CORRUPTIONS, ids=[f"{n}: {w}" for n, w, _ in CORRUPTIONS])
def test_rejects_corrupted_reports(reports, name, what, corrupt):
    op, code, report = reports[name]
    bad = copy.deepcopy(report)
    corrupt(bad)
    problems, _ = checker.check(op, code, bad)
    assert problems, what


@pytest.mark.parametrize("name", ["rnm", "quad-pass", "quad-violation", "stat-private", "stat-broken"])
def test_rejects_wrong_exit_code(reports, name):
    op, code, report = reports[name]
    problems, _ = checker.check(op, 3, report)
    assert problems

"""Judges one dpcheck report against the oracle.

The checker reads only the report fields that are promised to stay: the
exit code, ``verdict``, ``witness``, ``all_pass``, ``max_ratio``,
``max_lower`` and the rows' ``p``/``p_adj``/``ratio``, plus the keys that
say which section or row a value belongs to (``sections``, ``family``,
``m``, ``rows``, ``D``, ``D_adj``, ``i``).  It ignores ``pairs``, ``tests``
and any key it does not name, so counters can be added and diagonal pairs
dropped without breaking it.

Each check returns (problems, error): the list of ways the report is wrong
(empty when it is right) and the largest absolute difference from the
oracle among the values it compared, or None when the report carries no
value to compare (a passing audit, an audit of a private mechanism).
"""

from __future__ import annotations

import math

import oracle
from workloads import rnm_families

EXIT = {"pass": 0, "no-violation-found": 0, "violation": 1}
# max_lower and witness gaps are compared with the oracle divergence up to
# the rounding of one subtraction of numbers below 1 + e^eps.
FLOAT_SLACK = 1e-12


def check(op, code: int, report) -> tuple[list[str], float | None]:
    try:
        if op.command == "rnm-verify":
            return check_rnm_verify(op.spec, code, report)
        if "k" in op.spec:
            return check_audit_quadrature(op.spec, code, report)
        return check_audit_statistical(op.spec, code, report)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"], None


def _ratio(p: float, q: float) -> float:
    if p == q:
        return 1.0
    if p == 0.0 or q == 0.0:
        return math.inf
    return max(p / q, q / p)


def check_rnm_verify(spec: dict, code: int, report: dict) -> tuple[list[str], float]:
    n, max_entry, eps, tol = spec["n"], spec["max_entry"], spec["epsilon"], spec["tol"]
    bound = math.exp(eps)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if report["all_pass"] is not True:
        problems.append(f"all_pass is {report['all_pass']!r}")
    if not report["max_ratio"] <= bound:
        problems.append(f"max_ratio {report['max_ratio']} exceeds exp(eps) = {bound}")

    pairs = oracle.adjacent_pairs(n, max_entry, 1)
    sections = {}
    for sec in report["sections"]:
        key = (sec["family"], sec["m"])
        if key in sections:
            problems.append(f"duplicate section {key}")
        sections[key] = sec["rows"]
    wanted = {(name, m) for m in range(1, spec["m_max"] + 1) for name in rnm_families(n, m)}
    if set(sections) != wanted:
        problems.append(f"sections {sorted(set(sections) ^ wanted)} missing or unexpected")

    err = 0.0
    for (name, m), rows in sections.items():
        if (name, m) not in wanted:
            continue
        queries = rnm_families(n, m)[name]
        seen = {}
        by_dataset = {}
        for row in rows:
            a, b, i = tuple(row["D"]), tuple(row["D_adj"]), int(row["i"])
            p, q = float(row["p"]), float(row["p_adj"])
            if b < a:
                a, b, p, q = b, a, q, p
            if (a, b, i) in seen:
                problems.append(f"{name} m={m}: duplicate row {(a, b, i)}")
            seen[(a, b, i)] = row
            for h, value in ((a, p), (b, q)):
                truth = oracle.noisy_max_pmf(oracle.query_values(queries, h), eps)[i]
                err = max(err, abs(value - truth))
                if not abs(value - truth) <= tol:
                    problems.append(f"{name} m={m}: P[{i}|{h}] = {value}, oracle {truth}")
                by_dataset.setdefault(h, {})[i] = value
            if not (row["ratio"] == _ratio(p, q) or math.isclose(row["ratio"], _ratio(p, q), rel_tol=1e-12)):
                problems.append(f"{name} m={m}: ratio {row['ratio']} of {(a, b, i)} is not {_ratio(p, q)}")
            if not row["ratio"] <= bound:
                problems.append(f"{name} m={m}: ratio {row['ratio']} of {(a, b, i)} exceeds {bound}")
        off_diagonal = {(a, b, i) for a, b, i in seen if a != b}
        expected = {(a, b, i) for a, b in pairs for i in range(m)}
        if off_diagonal != expected:
            problems.append(
                f"{name} m={m}: {len(off_diagonal)} off-diagonal rows, expected {len(expected)}"
            )
        # diagonal pairs (D, D) decide nothing; a report may list all or none
        diagonal = len(seen) - len(off_diagonal)
        if diagonal not in (0, (max_entry + 1) ** n * m):
            problems.append(f"{name} m={m}: {diagonal} diagonal rows, expected all or none")
        for h, probs in by_dataset.items():
            if len(probs) != m or not abs(math.fsum(probs.values()) - 1.0) <= m * tol:
                problems.append(f"{name} m={m}: pmf of {h} is {probs}, not a distribution")
    return problems, err


def _histogram(obj) -> tuple[int, ...]:
    return tuple(int(v) for v in obj["histogram"])


def check_audit_quadrature(spec: dict, code: int, report: dict) -> tuple[list[str], float | None]:
    problems = []
    expect = spec["expect"]
    if code != EXIT[expect]:
        problems.append(f"exit code {code}, expected {EXIT[expect]}")
    if report["verdict"] != expect:
        problems.append(f"verdict {report['verdict']!r}, expected {expect!r}")
    witness = report["witness"]
    if expect == "pass":
        if witness is not None:
            problems.append(f"unexpected witness {witness}")
        return problems, None
    if witness is None:
        return problems + ["violation without a witness"], None
    a, b = (_histogram(h) for h in witness["pair"])
    n, k, queries = spec["n"], spec["k"], spec["queries"]
    if not (
        len(a) == len(b) == n
        and all(0 <= v <= spec["max_entry"] for v in a + b)
        and sum(abs(x - y) for x, y in zip(a, b)) <= k
    ):
        return problems + [f"witness pair {a}, {b} is not adjacent"], None
    kind, j = witness["event"]
    if kind != "coordinate" or not 0 <= j < len(queries):
        return problems + [f"witness event {witness['event']} is not a coordinate"], None
    d = abs(oracle.query_values(queries, a)[j] - oracle.query_values(queries, b)[j]) / spec["scale"]
    truth = oracle.laplace_profile(spec["eps_b"], d) - spec["delta"]
    err = abs(witness["gap"] - truth)
    if not truth > spec["tol"]:
        problems.append(f"witness {a}, {b}, coordinate {j} has oracle gap {truth}: no violation")
    if not err <= spec["tol"]:
        problems.append(f"witness gap {witness['gap']}, oracle {truth}")
    return problems, err


def check_audit_statistical(spec: dict, code: int, report: dict) -> tuple[list[str], float | None]:
    problems = []
    expect = spec["expect"]
    if code != EXIT[expect]:
        problems.append(f"exit code {code}, expected {EXIT[expect]}")
    if report["verdict"] != expect:
        problems.append(f"verdict {report['verdict']!r}, expected {expect!r}")
    div = spec["divergence"]
    truth = max(div["forward"] + div["reverse"])
    max_lower = float(report["detail"]["max_lower"])
    if not max_lower <= truth + FLOAT_SLACK:
        problems.append(f"max_lower {max_lower} exceeds the oracle divergence {truth}")
    witness = report["witness"]
    if expect != "violation":
        if witness is not None:
            problems.append(f"unexpected witness {witness}")
    elif witness is None:
        problems.append("violation without a witness")
    else:
        pair = [list(_histogram(h)) for h in witness["pair"]]
        if pair not in spec["pairs"]:
            problems.append(f"witness pair {pair} is not in the config")
        else:
            bound = div[witness["direction"]][spec["pairs"].index(pair)]
            if not 0.0 < witness["gap"] <= bound - spec["delta"] + FLOAT_SLACK:
                problems.append(f"witness gap {witness['gap']} outside (0, {bound - spec['delta']}]")
    # the shortfall of the certified bound counts as error only where the
    # oracle divergence is a real gap, i.e. on the broken mechanisms
    return problems, (truth - max_lower if expect == "violation" else None)

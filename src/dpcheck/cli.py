"""Command-line front end: run mechanisms, audits, divergence computations,
and the report-noisy-max verification suite from JSON configuration files.

All reports are JSON with sorted keys and every report embeds the seed, so
a fixed (config, seed) pair reproduces byte-identical output.  Exit codes:
0 pass or no violation found, 1 violation (witness in the report), 2 usage
or configuration error, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .datasets import (
    CountingQuerySet,
    Dataset,
    counting_query,
    counting_sensitivity_analytic,
    pairs_within_distance,
)
from .divergence import (
    DiscreteDistribution,
    divergence_discrete,
    divergence_laplace_pair,
    divergence_monte_carlo,
    divergence_report_json,
)
from .errors import ConfigError, DpcheckError
from .laplace import LaplaceDistribution, RandomSource, laplace_sample_block
from .mechanisms import (
    Mechanism,
    PrivacyBudget,
    SensitivitySpec,
    add_budgets,
    check_dp_exact,
    check_dp_laplace,
    check_dp_statistical,
    default_events,
    group_budget,
    jsonable,
    label_array,
    laplace_mechanism,
    pair_compose,
    post_process,
    randomized_response,
    weaken_budget,
)
from .rnm import rnm_mechanism, verify_rnm_dp_finer

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    "pass": EXIT_PASS,
    "no-violation-found": EXIT_PASS,
    "violation": EXIT_VIOLATION,
    "inconclusive": EXIT_INCONCLUSIVE,
}


def exit_code_for(verdict: str) -> int:
    """Total map from verdict to process exit code."""
    try:
        return _VERDICT_EXIT[verdict]
    except KeyError:
        raise ConfigError(f"unknown verdict {verdict!r}") from None


@dataclass
class RunConfig:
    command: str
    config: dict
    seed: int = 0
    samples: int = 10_000
    tol: float = 1e-9
    alpha: float = 0.05
    method: str = "auto"
    out: str | None = None


def _typed(value, kind: type, what: str):
    """value when it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "list"
        raise ConfigError(f"{what} must be a JSON {name}, got {value!r}")
    return value


def _require(cfg: dict, key: str, context: str, kind: type | None = None):
    """cfg[key], which must be present and, given ``kind``, of that JSON type."""
    if key not in _typed(cfg, dict, context):
        raise ConfigError(f"{context}: missing required field {key!r}")
    return cfg[key] if kind is None else _typed(cfg[key], kind, f"{context} field {key!r}")


def _labels(values: list, what: str) -> list:
    """Output labels from a config, which must be hashable JSON scalars."""
    if any(isinstance(v, (list, dict)) for v in values):
        raise ConfigError(f"{what} must be numbers or strings, got {values!r}")
    return values


def _number(value, what: str, kind: type = float):
    """A config value as a finite int or float; ConfigError otherwise."""
    try:
        number = kind(value)
        if math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _parse_queries(obj) -> CountingQuerySet:
    try:
        return CountingQuerySet.from_json(obj)
    except (DpcheckError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad query set: {exc}") from exc


def _parse_input(obj, input_desc=None):
    """A histogram, a path to a dataset file, or an int label.  Under an int
    ``input_desc`` n, only a histogram of length n is accepted."""
    value = obj
    if isinstance(obj, str):
        try:
            with open(obj, "r", encoding="utf-8") as fh:
                value = Dataset.from_json(json.load(fh))
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot load dataset from {obj!r}: {exc}") from exc
    elif isinstance(obj, dict) and "histogram" in obj:
        try:
            value = Dataset.from_json(obj)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad histogram {obj['histogram']!r}: {exc}") from exc
    elif not isinstance(obj, int):
        raise ConfigError(f"cannot interpret input {obj!r}")
    if isinstance(input_desc, int) and not (isinstance(value, Dataset) and value.n == input_desc):
        raise ConfigError(f"input {obj!r} is not a histogram of length {input_desc}")
    return value


def build_mechanism(cfg: dict) -> Mechanism:
    kind = _require(cfg, "kind", "mechanism")
    if kind == "laplace":
        q = _parse_queries(_require(cfg, "queries", "laplace mechanism"))
        eps = _number(_require(cfg, "epsilon", "laplace mechanism"), "laplace mechanism epsilon")
        sens_value = cfg.get("sensitivity")
        if sens_value is None:
            sens = SensitivitySpec(float(counting_sensitivity_analytic(q)), "analytic")
        else:
            sens = SensitivitySpec(_number(sens_value, "laplace mechanism sensitivity"), "declared")
        return laplace_mechanism(
            lambda d, q=q: [float(v) for v in counting_query(q, d)],
            q.m,
            sens,
            eps,
            input_desc=q.n,
        )
    if kind == "rnm":
        q = _parse_queries(_require(cfg, "queries", "rnm mechanism"))
        eps = _number(_require(cfg, "epsilon", "rnm mechanism"), "rnm mechanism epsilon")
        mask = cfg.get("noise_mask")
        return rnm_mechanism(q, eps, None if mask is None else _typed(mask, list, "rnm noise_mask"))
    if kind == "randomized-response":
        flip_prob = _require(cfg, "flip_prob", "randomized response")
        return randomized_response(_number(flip_prob, "randomized response flip_prob"))
    if kind == "composed":
        op = _require(cfg, "op", "composed mechanism")
        if op == "pair":
            components = _require(cfg, "components", "pair composition", list)
            if len(components) != 2:
                raise ConfigError("pair composition takes exactly two components")
            return pair_compose(build_mechanism(components[0]), build_mechanism(components[1]))
        if op == "post":
            base = build_mechanism(_require(cfg, "base", "post composition"))
            mapping = _require(cfg, "map", "post composition", dict)
            _labels(list(mapping.values()), "post composition map values")
            return post_process(base, lambda y: mapping[str(y)])
        raise ConfigError(f"unknown composition op {op!r}")
    raise ConfigError(f"unknown mechanism kind {kind!r}")


def build_adjacency(cfg: dict, input_desc=None) -> list[tuple]:
    """Adjacent input pairs, as histograms of length ``input_desc`` when it is an int."""
    kind = _require(cfg, "kind", "adjacency")
    if kind == "l1":
        n = _number(_require(cfg, "n", "l1 adjacency"), "l1 adjacency n", int)
        if isinstance(input_desc, int) and n != input_desc:
            raise ConfigError(f"l1 adjacency n={n} does not match the mechanism's n={input_desc}")
        max_entry = _require(cfg, "max_entry", "l1 adjacency")
        max_entry = _number(max_entry, "l1 adjacency max_entry", int)
        k = _number(cfg.get("k", 1), "l1 adjacency k", int)
        return pairs_within_distance(n, max_entry, k)
    if kind == "pairs":
        pairs = []
        for item in _require(cfg, "items", "pair list", list):
            if not (isinstance(item, list) and len(item) == 2):
                raise ConfigError(f"pair list item {item!r} is not a pair of inputs")
            pairs.append((_parse_input(item[0], input_desc), _parse_input(item[1], input_desc)))
        return pairs
    raise ConfigError(f"unknown adjacency kind {kind!r}")


def _parse_budget(cfg: dict) -> PrivacyBudget:
    try:
        return PrivacyBudget(
            _number(_require(cfg, "epsilon", "budget"), "budget epsilon"),
            _number(cfg.get("delta", 0.0), "budget delta"),
        )
    except DpcheckError as exc:
        raise ConfigError(f"bad budget: {exc}") from exc


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands; each returns (exit_code, report_text)
# ---------------------------------------------------------------------------


def cmd_sample(run: RunConfig) -> tuple[int, str]:
    cfg = run.config
    mech = build_mechanism(_require(cfg, "mechanism", "sample"))
    value = _parse_input(_require(cfg, "input", "sample"), mech.input_desc)
    rng = RandomSource(run.seed)
    header = {
        "command": "sample",
        "seed": run.seed,
        "samples": run.samples,
        "mechanism": cfg["mechanism"],
    }
    lines = [json.dumps(header, sort_keys=True)]
    for output in mech.sample_block(value, rng, run.samples):
        lines.append(json.dumps({"output": jsonable(output)}, sort_keys=True))
    return EXIT_PASS, "\n".join(lines) + "\n"


def _dist_spec(obj) -> tuple[str, Mechanism, Any]:
    """(kind, mechanism, input) of a distribution spec.  A discrete spec is a
    finite mechanism and a laplace spec a one-coordinate real vector, each
    taking its exact law as its input."""
    kind = _require(obj, "kind", "distribution spec")
    if kind == "discrete":
        support = _labels(_require(obj, "support", "discrete spec", list), "discrete spec support")
        probs = _require(obj, "probs", "discrete spec", list)
        dist = DiscreteDistribution(
            tuple(support), tuple(_number(p, "discrete spec probs") for p in probs)
        )
        labels = label_array(dist.support)
        draw = lambda d, rng, n: labels[d.sample_index_block(rng, n)]
        return kind, Mechanism(None, ("finite", dist.support), draw), dist
    if kind == "laplace":
        b = _number(_require(obj, "b", "laplace spec"), "laplace spec b")
        d = LaplaceDistribution(b, _number(obj.get("z", 0.0), "laplace spec z"))
        draw = lambda d, rng, n: laplace_sample_block(d, rng, n)[:, None]
        return kind, Mechanism(None, ("real-vector", 1), draw), d
    if kind == "mechanism":
        mech = build_mechanism(_require(obj, "mechanism", "mechanism spec"))
        return kind, mech, _parse_input(_require(obj, "input", "mechanism spec"), mech.input_desc)
    raise ConfigError(f"unknown distribution kind {kind!r}")


def cmd_divergence(run: RunConfig) -> tuple[int, str]:
    cfg = run.config
    eps = _number(_require(cfg, "epsilon", "divergence"), "divergence epsilon")
    # the input of a discrete or laplace spec is its law
    (lkind, lmech, lx), (rkind, rmech, rx) = (
        _dist_spec(_require(cfg, side, "divergence")) for side in ("lhs", "rhs")
    )
    method = run.method

    if method == "auto":
        if lkind == rkind == "discrete":
            method = "exact"
        elif lkind == rkind == "laplace" and lx.b == rx.b > 0:
            method = "quadrature"
        else:
            method = "monte-carlo"

    if method == "exact":
        if not lkind == rkind == "discrete":
            raise ConfigError("exact method needs two discrete specs")
        result = divergence_discrete(lx, rx, eps)
    elif method == "quadrature":
        if not lkind == rkind == "laplace" or lx.b != rx.b:
            raise ConfigError("quadrature method needs two laplace specs with a common scale")
        result = divergence_laplace_pair(lx.b, lx.z, rx.z, eps, run.tol)
    elif method == "monte-carlo":
        # the lhs's finite labels hold every event the forward divergence needs
        ld, rd = lmech.output_desc, rmech.output_desc
        if ld != rd and not ld[0] == rd[0] == "finite":
            left, right = (ld[0], rd[0]) if ld[0] != rd[0] else (ld, rd)
            raise ConfigError(f"incompatible spec pair: {left} vs {right}")
        rng = RandomSource(run.seed)
        xs = lmech.sample_block(lx, rng.fork(0), run.samples)
        ys = rmech.sample_block(rx, rng.fork(1), run.samples)
        result = divergence_monte_carlo(
            lambda n: xs, lambda n: ys, default_events(ld, xs, ys), eps, run.samples, run.alpha
        )
    else:
        raise ConfigError(f"unknown divergence method {method!r}")

    report = {
        "command": "divergence",
        "seed": run.seed,
        **divergence_report_json(eps, result),
    }
    return EXIT_PASS, _dump(report)


def cmd_audit(run: RunConfig) -> tuple[int, str]:
    cfg = run.config
    mech = build_mechanism(_require(cfg, "mechanism", "audit"))
    budget = _parse_budget(_require(cfg, "budget", "audit"))
    pairs = build_adjacency(_require(cfg, "adjacency", "audit"), mech.input_desc)
    method = run.method
    if method == "auto":
        if mech.pmf is not None:
            method = "exact"
        elif mech.densities is not None:
            method = "quadrature"
        else:
            method = "statistical"

    detail: dict[str, Any] = {}
    witness_json = None
    if method == "exact":
        ok, witness = check_dp_exact(mech, pairs, budget)
        verdict = "pass" if ok else "violation"
        witness_json = witness.to_json() if witness else None
    elif method == "quadrature":
        ok, witness = check_dp_laplace(mech, pairs, budget, tol=run.tol)
        verdict = "pass" if ok else "violation"
        witness_json = witness.to_json() if witness else None
    elif method == "statistical":
        report = check_dp_statistical(
            mech, pairs, budget, run.samples, run.alpha, RandomSource(run.seed)
        )
        verdict = report.verdict
        witness_json = report.witness.to_json() if report.witness else None
        detail = report.to_json()
    else:
        raise ConfigError(f"unknown audit method {method!r}")

    report_obj = {
        "command": "audit",
        "seed": run.seed,
        "method": method,
        "budget": {"epsilon": budget.eps, "delta": budget.delta},
        "pairs": len(pairs),
        "verdict": verdict,
        "witness": witness_json,
        "detail": detail,
    }
    return exit_code_for(verdict), _dump(report_obj)


# Deterministic query-set families exercised by rnm-verify.  "identical"
# stresses the naive sensitivity bound (every query counts the changed
# type); "contrast" drives the observed ratio toward its exp(eps) ceiling
# (one query counts the changed type, the rest count a different one).
def rnm_query_families(n: int, m: int) -> dict[str, CountingQuerySet]:
    families = {
        "identical": CountingQuerySet(n, tuple(frozenset({0}) for _ in range(m))),
        "singletons": CountingQuerySet(n, tuple(frozenset({j % n}) for j in range(m))),
        "prefixes": CountingQuerySet(
            n, tuple(frozenset(range(min(j + 1, n))) for j in range(m))
        ),
    }
    if n >= 2:
        families["contrast"] = CountingQuerySet(
            n, tuple(frozenset({0}) if j == 0 else frozenset({1}) for j in range(m))
        )
    return families


def cmd_rnm_verify(run: RunConfig) -> tuple[int, str]:
    cfg = run.config
    n = _number(cfg.get("n", 3), "rnm-verify n", int)
    max_entry = _number(cfg.get("max_entry", 2), "rnm-verify max_entry", int)
    m_max = _number(cfg.get("m_max", 3), "rnm-verify m_max", int)
    eps = _number(_require(cfg, "epsilon", "rnm-verify"), "rnm-verify epsilon")
    if run.tol <= 0:
        raise ConfigError("tolerance must be positive")
    wanted = cfg.get("families")
    if wanted is not None:
        _typed(wanted, list, "rnm-verify families")

    sections = []
    all_pass = True
    max_ratio = 0.0
    for m in range(1, m_max + 1):
        for name, q in sorted(rnm_query_families(n, m).items()):
            if wanted is not None and name not in wanted:
                continue
            rep = verify_rnm_dp_finer(q, eps, max_entry=max_entry, tol=run.tol)
            all_pass = all_pass and rep.all_pass
            max_ratio = max(max_ratio, rep.max_ratio)
            sections.append({"family": name, "queries": q.to_json(), **rep.to_json()})

    report = {
        "command": "rnm-verify",
        "seed": run.seed,
        "epsilon": eps,
        "tol": run.tol,
        "n": n,
        "max_entry": max_entry,
        "m_max": m_max,
        "finer_bound": float(np.exp(eps)),
        "naive_bound_at_m_max": float(np.exp(m_max * eps)),
        "max_ratio": max_ratio,
        "all_pass": all_pass,
        "sections": sections,
    }
    return (EXIT_PASS if all_pass else EXIT_VIOLATION), _dump(report)


def fold_budget_tree(node: dict) -> PrivacyBudget:
    kind = _require(node, "kind", "budget tree")
    if kind == "budget":
        return _parse_budget(node)
    if kind in ("seq", "adaptive"):
        children = _require(node, "children", f"{kind} node", list)
        if not children:
            raise ConfigError(f"{kind} node needs at least one child")
        total = fold_budget_tree(children[0])
        for child in children[1:]:
            total = add_budgets(total, fold_budget_tree(child))
        return total
    if kind == "post":
        return fold_budget_tree(_require(node, "child", "post node"))
    if kind == "group":
        k = _number(_require(node, "k", "group node"), "group node k", int)
        try:
            return group_budget(fold_budget_tree(_require(node, "child", "group node")), k)
        except DpcheckError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "weaken":
        target = _parse_budget(node)
        try:
            return weaken_budget(fold_budget_tree(_require(node, "child", "weaken node")), target)
        except DpcheckError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown budget tree node kind {kind!r}")


def cmd_accountant(run: RunConfig) -> tuple[int, str]:
    total = fold_budget_tree(_require(run.config, "tree", "accountant"))
    report = {
        "command": "accountant",
        "seed": run.seed,
        "epsilon": total.eps,
        "delta": total.delta,
    }
    return EXIT_PASS, _dump(report)


_COMMANDS = {
    "sample": cmd_sample,
    "divergence": cmd_divergence,
    "audit": cmd_audit,
    "rnm-verify": cmd_rnm_verify,
    "accountant": cmd_accountant,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcheck",
        description="Run and audit differential-privacy mechanisms from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--method", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
    return parser


def _load_run(args: argparse.Namespace) -> RunConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    run = RunConfig(command=args.command, config=cfg)
    run.seed = _number(cfg.get("seed", run.seed), "seed", int)
    run.samples = _number(cfg.get("samples", run.samples), "samples", int)
    run.tol = _number(cfg.get("tol", run.tol), "tol")
    run.alpha = _number(cfg.get("alpha", run.alpha), "alpha")
    run.method = str(cfg.get("method", run.method))
    for field in ("seed", "samples", "tol", "alpha", "method", "out"):
        value = getattr(args, field)
        if value is not None:
            setattr(run, field, value)
    return run


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_CONFIG if exc.code not in (0,) else 0
    try:
        run = _load_run(args)
        code, text = _COMMANDS[run.command](run)
    except DpcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if run.out:
        with open(run.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

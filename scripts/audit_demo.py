#!/usr/bin/env python3
"""Audit a Laplace mechanism at its declared budget and at a quarter of it,
then catch a deliberately broken report-noisy-max variant statistically.

The broken variant adds noise to only the first query value, the classic
one-line bug that silently destroys the privacy guarantee.
"""

import argparse

from dpcheck.datasets import CountingQuerySet, Dataset, counting_query, pairs_within_distance
from dpcheck.laplace import RandomSource
from dpcheck.mechanisms import (
    PrivacyBudget,
    SensitivitySpec,
    check_dp_laplace,
    check_dp_statistical,
    laplace_mechanism,
)
from dpcheck.rnm import rnm_mechanism


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, default=1.0)
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    q = CountingQuerySet(3, (frozenset({0}), frozenset({1, 2})))
    mech = laplace_mechanism(
        lambda d: [float(v) for v in counting_query(q, d)],
        q.m,
        SensitivitySpec(1.0, "analytic"),
        args.eps,
        input_desc=q.n,
    )
    pairs = pairs_within_distance(3, 2, 1)

    report = check_dp_laplace(mech, pairs, PrivacyBudget(args.eps, 0.0))
    print(f"laplace mechanism at eps={args.eps}: {report.verdict}")

    report = check_dp_laplace(mech, pairs, PrivacyBudget(args.eps / 4, 0.0))
    print(f"laplace mechanism at eps/4: {report.verdict}  witness={report.witness}")

    broken = rnm_mechanism(
        CountingQuerySet(3, (frozenset({0}), frozenset({1}), frozenset({2}))),
        args.eps,
        noise_mask=(True, False, False),
    )
    report = check_dp_statistical(
        broken,
        [(Dataset((0, 1, 1)), Dataset((0, 2, 1)))],
        PrivacyBudget(args.eps, 0.0),
        samples=args.samples,
        alpha=0.05,
        rng=RandomSource(args.seed),
    )
    print(f"broken noisy-max variant: {report.verdict}  witness={report.witness}")


if __name__ == "__main__":
    main()

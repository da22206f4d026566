import json
import math

import pytest

from dpcheck import cli
from dpcheck.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_VIOLATION,
    build_mechanism,
    exit_code_for,
    fold_budget_tree,
    main,
    rnm_query_families,
)
from dpcheck.datasets import Dataset
from dpcheck.errors import ConfigError
from dpcheck.laplace import RandomSource
from dpcheck.mechanisms import PrivacyBudget


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, command, payload, *extra):
    cfg = write_config(tmp_path, f"{command}.json", payload)
    out = tmp_path / f"{command}-out.json"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestExitCodes:
    def test_total_verdict_map(self):
        assert exit_code_for("pass") == EXIT_PASS
        assert exit_code_for("no-violation-found") == EXIT_PASS
        assert exit_code_for("violation") == EXIT_VIOLATION
        assert exit_code_for("inconclusive") == EXIT_INCONCLUSIVE

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ConfigError):
            exit_code_for("maybe")


class TestAccountant:
    def test_sequential_sum(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "accountant",
            {
                "tree": {
                    "kind": "seq",
                    "children": [
                        {"kind": "budget", "epsilon": 1.0},
                        {"kind": "budget", "epsilon": 2.0},
                    ],
                }
            },
        )
        assert code == 0
        report = json.loads(text)
        assert report["epsilon"] == 3.0 and report["delta"] == 0.0

    def test_group_multiplies_epsilon(self, tmp_path):
        code, text = run_cli(
            tmp_path,
            "accountant",
            {"tree": {"kind": "group", "k": 4, "child": {"kind": "budget", "epsilon": 0.25}}},
        )
        assert code == 0
        assert json.loads(text)["epsilon"] == 1.0

    def test_group_with_delta_rejected(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            "accountant",
            {
                "tree": {
                    "kind": "group",
                    "k": 2,
                    "child": {"kind": "budget", "epsilon": 0.5, "delta": 0.1},
                }
            },
        )
        assert code == EXIT_CONFIG

    def test_invalid_weaken_rejected(self, tmp_path):
        code, _ = run_cli(
            tmp_path,
            "accountant",
            {
                "tree": {
                    "kind": "weaken",
                    "epsilon": 0.5,
                    "delta": 0.0,
                    "child": {"kind": "budget", "epsilon": 1.0},
                }
            },
        )
        assert code == EXIT_CONFIG

    def test_post_and_adaptive_nodes(self):
        tree = {
            "kind": "adaptive",
            "children": [
                {"kind": "post", "child": {"kind": "budget", "epsilon": 1.0, "delta": 0.05}},
                {"kind": "budget", "epsilon": 0.5},
            ],
        }
        assert fold_budget_tree(tree) == PrivacyBudget(1.5, 0.05)


class TestSample:
    def test_deterministic_lines(self, tmp_path):
        payload = {
            "mechanism": {
                "kind": "laplace",
                "queries": {"n": 2, "queries": [[0], [0, 1]]},
                "epsilon": 1.0,
            },
            "input": {"histogram": [3, 1]},
            "samples": 3,
            "seed": 11,
        }
        code_a, text_a = run_cli(tmp_path, "sample", payload)
        code_b, text_b = run_cli(tmp_path, "sample", payload)
        assert code_a == code_b == 0
        assert text_a == text_b
        lines = text_a.strip().split("\n")
        assert len(lines) == 4  # header + 3 outputs
        assert json.loads(lines[0])["seed"] == 11

    def test_single_query_rnm_is_constant_zero(self, tmp_path):
        payload = {
            "mechanism": {
                "kind": "rnm",
                "queries": {"n": 2, "queries": [[0]]},
                "epsilon": 1.0,
            },
            "input": {"histogram": [3, 1]},
            "samples": 5,
        }
        code, text = run_cli(tmp_path, "sample", payload)
        assert code == 0
        outputs = [json.loads(line)["output"] for line in text.strip().split("\n")[1:]]
        assert outputs == [0, 0, 0, 0, 0]

    @pytest.mark.parametrize(
        "mechanism",
        [
            {"kind": "laplace", "queries": {"n": 2, "queries": [[0], [0, 1]]}, "epsilon": 1.0},
            {"kind": "rnm", "queries": {"n": 2, "queries": [[0], [1], [0, 1]]}, "epsilon": 1.0},
            {
                "kind": "composed",
                "op": "pair",
                "components": [
                    {"kind": "laplace", "queries": {"n": 2, "queries": [[0]]}, "epsilon": 1.0},
                    {"kind": "rnm", "queries": {"n": 2, "queries": [[0], [1]]}, "epsilon": 1.0},
                ],
            },
        ],
        ids=["laplace-m2", "rnm", "pair"],
    )
    def test_rows_come_from_the_block_sampler(self, tmp_path, mechanism):
        # the sample command releases exactly what the statistical audit draws
        payload = {"mechanism": mechanism, "input": {"histogram": [3, 1]}}
        payload.update(samples=20, seed=13)
        code, text = run_cli(tmp_path, "sample", payload)
        assert code == 0
        outputs = [json.loads(line)["output"] for line in text.strip().split("\n")[1:]]
        block = build_mechanism(mechanism).sample_block(Dataset((3, 1)), RandomSource(13), 20)
        assert outputs == block.tolist()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["sample", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_dataset_by_path_and_missing_dataset_file(self, tmp_path, capsys):
        dataset = tmp_path / "data.json"
        dataset.write_text(json.dumps({"histogram": [3, 1]}))
        payload = {
            "mechanism": {
                "kind": "laplace",
                "queries": {"n": 2, "queries": [[0]]},
                "epsilon": 1.0,
            },
            "input": str(dataset),
            "samples": 2,
            "seed": 1,
        }
        code, text = run_cli(tmp_path, "sample", payload)
        assert code == 0 and len(text.strip().split("\n")) == 3
        payload["input"] = str(tmp_path / "missing.json")
        code, _ = run_cli(tmp_path, "sample", payload)
        assert code == EXIT_CONFIG
        assert "cannot load dataset" in capsys.readouterr().err


class TestDivergenceCommand:
    def test_identical_discrete_tables(self, tmp_path):
        payload = {
            "epsilon": 0.0,
            "lhs": {"kind": "discrete", "support": ["a", "b"], "probs": [0.5, 0.5]},
            "rhs": {"kind": "discrete", "support": ["a", "b"], "probs": [0.5, 0.5]},
        }
        code, text = run_cli(tmp_path, "divergence", payload)
        report = json.loads(text)
        assert code == 0
        assert report["method"] == "exact-discrete"
        assert report["value"] == 0.0

    def test_laplace_pair_uses_quadrature(self, tmp_path):
        payload = {
            "epsilon": 1.0,
            "lhs": {"kind": "laplace", "b": 1.0, "z": 0.0},
            "rhs": {"kind": "laplace", "b": 1.0, "z": 1.0},
        }
        code, text = run_cli(tmp_path, "divergence", payload)
        report = json.loads(text)
        assert code == 0
        assert report["method"] == "quadrature"
        assert abs(report["value"]) <= 1e-9

    def test_laplace_pair_error_bound_is_not_the_tolerance(self, tmp_path):
        payload = {
            "epsilon": 0.8,
            "lhs": {"kind": "laplace", "b": 1.0, "z": 0.0},
            "rhs": {"kind": "laplace", "b": 1.0, "z": 1.0},
        }
        code, text = run_cli(tmp_path, "divergence", payload, "--tol", "0.1")
        report = json.loads(text)
        assert code == 0
        assert report["method"] == "quadrature"
        # 1 - e^-0.1, not a value off by up to the requested tolerance
        assert report["value"] == pytest.approx(-math.expm1(-0.1), abs=1e-15)
        assert report["error_bound"] < 1e-14

    def test_sampler_pair_uses_monte_carlo(self, tmp_path):
        payload = {
            "epsilon": 0.5,
            "samples": 2000,
            "lhs": {
                "kind": "mechanism",
                "mechanism": {"kind": "randomized-response", "flip_prob": 0.25},
                "input": 0,
            },
            "rhs": {"kind": "laplace", "b": 1.0, "z": 0.0},
        }
        # finite labels against a real sampler is not a comparable pair
        code, _ = run_cli(tmp_path, "divergence", payload)
        assert code == EXIT_CONFIG

        payload["rhs"] = {
            "kind": "mechanism",
            "mechanism": {"kind": "randomized-response", "flip_prob": 0.4},
            "input": 0,
        }
        code, text = run_cli(tmp_path, "divergence", payload)
        report = json.loads(text)
        assert code == 0
        assert report["method"] == "monte-carlo"
        assert report["error_bound"] > 0.0

    def test_method_override_forces_monte_carlo(self, tmp_path):
        payload = {
            "epsilon": 0.0,
            "samples": 2000,
            "lhs": {"kind": "discrete", "support": [0, 1], "probs": [0.5, 0.5]},
            "rhs": {"kind": "discrete", "support": [0, 1], "probs": [0.5, 0.5]},
        }
        code, text = run_cli(tmp_path, "divergence", payload, "--method", "monte-carlo")
        assert code == 0
        assert json.loads(text)["method"] == "monte-carlo"


class TestAuditCommand:
    def test_randomized_response_pass_and_fail(self, tmp_path):
        base = {
            "mechanism": {"kind": "randomized-response", "flip_prob": 0.25},
            "adjacency": {"kind": "pairs", "items": [[0, 1]]},
        }
        code, text = run_cli(
            tmp_path, "audit", {**base, "budget": {"epsilon": math.log(3), "delta": 0.0}}
        )
        assert code == 0 and json.loads(text)["verdict"] == "pass"
        code, text = run_cli(
            tmp_path, "audit", {**base, "budget": {"epsilon": 1.0, "delta": 0.0}}
        )
        report = json.loads(text)
        assert code == EXIT_VIOLATION
        assert report["verdict"] == "violation"
        assert report["witness"]["event"] == [0]

    def test_laplace_mechanism_quadrature_route(self, tmp_path):
        base = {
            "mechanism": {
                "kind": "laplace",
                "queries": {"n": 2, "queries": [[0], [1]]},
                "epsilon": 1.0,
            },
            "adjacency": {"kind": "l1", "n": 2, "max_entry": 1, "k": 1},
        }
        code, text = run_cli(tmp_path, "audit", {**base, "budget": {"epsilon": 1.0}})
        assert code == 0
        assert json.loads(text)["method"] == "quadrature"
        code, text = run_cli(tmp_path, "audit", {**base, "budget": {"epsilon": 0.25}})
        assert code == EXIT_VIOLATION
        assert json.loads(text)["witness"]["event"] == ["coordinate", 0] or json.loads(text)[
            "witness"
        ]["event"] == ["coordinate", 1]

    def test_broken_rnm_statistical_route(self, tmp_path):
        payload = {
            "mechanism": {
                "kind": "rnm",
                "queries": {"n": 3, "queries": [[0], [1], [2]]},
                "epsilon": 1.0,
                "noise_mask": [True, False, False],
            },
            "budget": {"epsilon": 1.0, "delta": 0.0},
            "adjacency": {
                "kind": "pairs",
                "items": [[{"histogram": [0, 1, 1]}, {"histogram": [0, 2, 1]}]],
            },
            "samples": 20000,
            "alpha": 0.05,
            "seed": 3,
        }
        code, text = run_cli(tmp_path, "audit", payload)
        report = json.loads(text)
        assert code == EXIT_VIOLATION
        assert report["method"] == "statistical"
        assert report["witness"] is not None

    def test_malformed_config(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "audit", {"mechanism": {"kind": "nonsense"}})
        assert code == EXIT_CONFIG


class TestRnmVerifyCommand:
    def test_zero_tolerance_rejected(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "rnm-verify", {"epsilon": 1.0, "n": 2, "m_max": 1}, "--tol", "0"
        )
        assert code == EXIT_CONFIG

    def test_small_run_passes(self, tmp_path):
        payload = {"epsilon": 1.0, "n": 2, "max_entry": 1, "m_max": 2}
        code, text = run_cli(tmp_path, "rnm-verify", payload)
        report = json.loads(text)
        assert code == 0
        assert report["all_pass"]
        assert report["max_ratio"] <= report["finer_bound"] + 1e-6
        assert report["naive_bound_at_m_max"] > report["finer_bound"]
        assert all(s["dichotomy_ok"] for s in report["sections"])

    def test_family_construction(self):
        families = rnm_query_families(3, 4)
        assert set(families) == {"identical", "singletons", "prefixes", "contrast"}
        assert all(q.m == 4 for q in families.values())
        assert families["identical"].predicates == (frozenset({0}),) * 4


NAN, INF = float("nan"), float("inf")
LAPLACE_M1 = {"kind": "laplace", "queries": {"n": 2, "queries": [[0]]}, "epsilon": 1.0}
RR = {"kind": "randomized-response", "flip_prob": 0.25}
BIT_PAIR = {"kind": "pairs", "items": [[0, 1]]}


def with_field(payload, path, value):
    """A copy of payload with the field at the dotted key path set to value."""
    payload = json.loads(json.dumps(payload))
    *parents, leaf = path.split(".")
    node = payload
    for key in parents:
        node = node[key]
    node[leaf] = value
    return payload


def assert_config_error(tmp_path, capsys, command, payload):
    code, text = run_cli(tmp_path, command, payload)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "must be a finite number" in err
    assert text == ""


class TestNumericConfigFields:
    """Config numbers that are not finite JSON numbers, or not JSON integers
    where a count or seed is due, exit 2 with a message."""

    @pytest.mark.parametrize(
        "path,value",
        [
            ("mechanism.epsilon", "abc"),
            ("mechanism.epsilon", NAN),
            ("mechanism.sensitivity", INF),
            ("samples", "many"),
            ("seed", NAN),
            ("samples", 2.9),
            ("seed", True),
            ("mechanism.epsilon", True),
            ("mechanism.epsilon", "0.5"),
        ],
    )
    def test_sample(self, tmp_path, capsys, path, value):
        payload = {"mechanism": LAPLACE_M1, "input": {"histogram": [3, 1]}, "samples": 2}
        assert_config_error(tmp_path, capsys, "sample", with_field(payload, path, value))

    @pytest.mark.parametrize(
        "path,value",
        [
            ("epsilon", NAN),
            ("lhs.b", "one"),
            ("rhs.z", -INF),
            ("alpha", [0.05]),
        ],
    )
    def test_divergence(self, tmp_path, capsys, path, value):
        payload = {
            "epsilon": 1.0,
            "lhs": {"kind": "laplace", "b": 1.0, "z": 0.0},
            "rhs": {"kind": "laplace", "b": 1.0, "z": 1.0},
        }
        assert_config_error(tmp_path, capsys, "divergence", with_field(payload, path, value))

    @pytest.mark.parametrize(
        "config,path,value",
        [
            ("rr", "mechanism.flip_prob", NAN),
            ("rr", "budget.delta", INF),
            ("rr", "budget.epsilon", "1/2"),
            ("l1", "adjacency.n", "two"),
            ("l1", "adjacency.max_entry", NAN),
            ("l1", "adjacency.k", None),
            ("l1", "adjacency.n", 2.0),
            ("l1", "adjacency.max_entry", 1.5),
            ("l1", "adjacency.k", True),
        ],
    )
    def test_audit(self, tmp_path, capsys, config, path, value):
        payloads = {
            "rr": {"mechanism": RR, "budget": {"epsilon": 1.0}, "adjacency": BIT_PAIR},
            "l1": {
                "mechanism": LAPLACE_M1,
                "budget": {"epsilon": 1.0},
                "adjacency": {"kind": "l1", "n": 2, "max_entry": 1, "k": 1},
            },
        }
        assert_config_error(tmp_path, capsys, "audit", with_field(payloads[config], path, value))

    @pytest.mark.parametrize(
        "path,value",
        [
            ("n", "abc"),
            ("max_entry", INF),
            ("m_max", "3x"),
            ("epsilon", NAN),
            ("tol", NAN),
            ("n", 2.5),
            ("max_entry", 1.0),
            ("m_max", True),
        ],
    )
    def test_rnm_verify(self, tmp_path, capsys, path, value):
        payload = {"epsilon": 1.0, "n": 2, "max_entry": 1, "m_max": 1}
        assert_config_error(tmp_path, capsys, "rnm-verify", with_field(payload, path, value))

    @pytest.mark.parametrize(
        "path,value",
        [
            ("tree.k", "two"),
            ("tree.child.epsilon", NAN),
            ("tree.child.delta", "tiny"),
            ("tree.k", 2.0),
        ],
    )
    def test_accountant(self, tmp_path, capsys, path, value):
        payload = {"tree": {"kind": "group", "k": 2, "child": {"kind": "budget", "epsilon": 0.5}}}
        assert_config_error(tmp_path, capsys, "accountant", with_field(payload, path, value))


class TestByteIdenticalReports:
    def test_divergence_report_repeats(self, tmp_path):
        payload = {
            "epsilon": 0.4,
            "samples": 2000,
            "seed": 21,
            "lhs": {
                "kind": "mechanism",
                "mechanism": {"kind": "randomized-response", "flip_prob": 0.25},
                "input": 0,
            },
            "rhs": {
                "kind": "mechanism",
                "mechanism": {"kind": "randomized-response", "flip_prob": 0.25},
                "input": 1,
            },
        }
        _, first = run_cli(tmp_path, "divergence", payload)
        _, second = run_cli(tmp_path, "divergence", payload)
        assert first == second


def assert_one_line_config_error(tmp_path, capsys, command, payload, *extra):
    code, text = run_cli(tmp_path, command, payload, *extra)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert text == ""
    return err


DISCRETE = {"kind": "discrete", "support": [0, 1], "probs": [0.5, 0.5]}
PAIR_RR = {"kind": "composed", "op": "pair", "components": [RR, RR]}
POST_RR = {"kind": "composed", "op": "post", "base": RR, "map": {"0": "no", "1": "yes"}}
LAPLACE_N2 = {"kind": "laplace", "queries": {"n": 2, "queries": [[0]]}, "epsilon": 1.0}
DIVERGENCE = {"epsilon": 1.0, "lhs": DISCRETE, "rhs": DISCRETE}
AUDIT_RR = {"mechanism": RR, "budget": {"epsilon": 1.0}, "adjacency": BIT_PAIR}


class TestExitCodeContract:
    """Only a verdict exits 1: bad sample counts and stray exceptions exit 2."""

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_needs_a_positive_sample_count(self, tmp_path, capsys, samples):
        payload = {"mechanism": RR, "input": 1, "samples": samples}
        err = assert_one_line_config_error(tmp_path, capsys, "sample", payload)
        assert err == f"error: sample needs samples >= 1, got {samples}\n"

    def test_stray_exception_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        def broken(run):
            raise ValueError("negative dimensions are not allowed")

        monkeypatch.setitem(cli._COMMANDS, "sample", broken)
        payload = {"mechanism": RR, "input": 1, "samples": 3}
        err = assert_one_line_config_error(tmp_path, capsys, "sample", payload)
        assert err == "error: internal: ValueError('negative dimensions are not allowed')\n"


class TestStructuralConfigErrors:
    """A config field of the wrong JSON type exits 2 with a one-line message."""

    @pytest.mark.parametrize(
        "command,payload,path,value",
        [
            ("divergence", DIVERGENCE, "lhs.probs", 3),
            ("divergence", DIVERGENCE, "lhs.support", 3),
            ("divergence", DIVERGENCE, "rhs.support", [[0], [1]]),
            ("divergence", DIVERGENCE, "lhs", 3),
            ("sample", {"mechanism": RR, "input": 0}, "mechanism", [RR]),
            ("sample", {"mechanism": LAPLACE_N2, "input": {"histogram": []}}, "input.histogram", 3),
            ("sample", {"mechanism": LAPLACE_N2, "input": 0}, "mechanism.queries", 3),
            ("sample", {"mechanism": PAIR_RR, "input": 0}, "mechanism.components", 3),
            ("sample", {"mechanism": POST_RR, "input": 0}, "mechanism.map", ["no", "yes"]),
            ("sample", {"mechanism": POST_RR, "input": 0}, "mechanism.map", {"0": [1], "1": 2}),
            ("audit", AUDIT_RR, "adjacency.items", 3),
            ("audit", AUDIT_RR, "adjacency.items", [[0]]),
            ("audit", AUDIT_RR, "adjacency", "pairs"),
            ("audit", AUDIT_RR, "budget", 1.0),
            ("accountant", {"tree": {"kind": "seq", "children": []}}, "tree.children", 3),
        ],
        ids=[
            "probs", "support", "support-labels", "spec", "mechanism", "histogram", "queries",
            "components", "map", "map-values", "items", "item", "adjacency", "budget",
            "children",
        ],
    )
    def test_exits_2(self, tmp_path, capsys, command, payload, path, value):
        assert_one_line_config_error(tmp_path, capsys, command, with_field(payload, path, value))


class TestHistogramLength:
    """A histogram whose length differs from the mechanism's n exits 2."""

    def test_audit_pair_of_short_histograms(self, tmp_path, capsys):
        payload = {
            "mechanism": LAPLACE_N2,
            "budget": {"epsilon": 1.0},
            "adjacency": {"kind": "pairs", "items": [[{"histogram": [1]}, {"histogram": [0]}]]},
        }
        err = assert_one_line_config_error(tmp_path, capsys, "audit", payload)
        assert "length 2" in err

    def test_audit_l1_with_another_n(self, tmp_path, capsys):
        payload = {
            "mechanism": LAPLACE_N2,
            "budget": {"epsilon": 1.0},
            "adjacency": {"kind": "l1", "n": 3, "max_entry": 1},
        }
        assert_one_line_config_error(tmp_path, capsys, "audit", payload)

    @pytest.mark.parametrize("value", [{"histogram": [1, 0, 0]}, 0])
    def test_sample_input(self, tmp_path, capsys, value):
        payload = {"mechanism": LAPLACE_N2, "input": value, "samples": 2}
        assert_one_line_config_error(tmp_path, capsys, "sample", payload)

    def test_mechanism_spec_input(self, tmp_path, capsys):
        spec = {"kind": "mechanism", "mechanism": LAPLACE_N2, "input": {"histogram": [4]}}
        payload = {"epsilon": 0.5, "samples": 2000, "lhs": spec, "rhs": spec}
        assert_one_line_config_error(tmp_path, capsys, "divergence", payload)


class TestIntegerInputs:
    """Histogram entries, query-set indices and input labels must be JSON
    integers; a float, bool or string exits 2 instead of being truncated."""

    @pytest.mark.parametrize("histogram", [[1.5, 1], [True, 1], ["2", 1]])
    def test_sample_histogram(self, tmp_path, capsys, histogram):
        payload = {"mechanism": LAPLACE_N2, "input": {"histogram": histogram}, "samples": 2}
        err = assert_one_line_config_error(tmp_path, capsys, "sample", payload)
        assert "non-negative integers" in err

    def test_audit_pair_histogram(self, tmp_path, capsys):
        payload = {
            "mechanism": {"kind": "laplace", "queries": {"n": 1, "queries": [[0]]}, "epsilon": 1.0},
            "budget": {"epsilon": 1.0},
            "adjacency": {"kind": "pairs", "items": [[{"histogram": [0.9]}, {"histogram": [5]}]]},
        }
        assert_one_line_config_error(tmp_path, capsys, "audit", payload)

    @pytest.mark.parametrize("path,value", [("n", 2.5), ("queries", [[0.0]])])
    def test_query_set(self, tmp_path, capsys, path, value):
        payload = {"mechanism": LAPLACE_N2, "input": {"histogram": [1, 0]}, "samples": 2}
        payload = with_field(payload, f"mechanism.queries.{path}", value)
        err = assert_one_line_config_error(tmp_path, capsys, "sample", payload)
        assert "must be integers" in err

    def test_input_label(self, tmp_path, capsys):
        payload = {**AUDIT_RR, "adjacency": {"kind": "pairs", "items": [[True, 0]]}}
        assert_one_line_config_error(tmp_path, capsys, "audit", payload)


class TestComposedMechanisms:
    """Pairs of non-finite parts are products: sampled in blocks, with the
    union of their parts' events."""

    LAPLACE_RNM = {
        "kind": "composed",
        "op": "pair",
        "components": [
            {"kind": "laplace", "queries": {"n": 2, "queries": [[0]]}, "epsilon": 0.1},
            {"kind": "rnm", "queries": {"n": 2, "queries": [[0], [1]]}, "epsilon": 5.0},
        ],
    }

    def test_monte_carlo_divergence_sees_every_part(self, tmp_path):
        # the rnm part alone gives about 0.997 at eps 0.5; a first-part-only
        # estimate reads 0.0
        spec = lambda hist: {
            "kind": "mechanism", "mechanism": self.LAPLACE_RNM, "input": {"histogram": hist}
        }
        payload = {"epsilon": 0.5, "samples": 2000, "lhs": spec([5, 0]), "rhs": spec([0, 5])}
        code, text = run_cli(tmp_path, "divergence", payload)
        report = json.loads(text)
        assert code == EXIT_PASS
        assert report["method"] == "monte-carlo"
        assert report["value"] >= 0.9

    @pytest.mark.parametrize("method", ["auto", "statistical"])
    def test_pair_of_laplace_mechanisms_is_audited(self, tmp_path, method):
        pair = {"kind": "composed", "op": "pair", "components": [LAPLACE_N2, LAPLACE_N2]}
        items = [[{"histogram": [1, 0]}, {"histogram": [0, 0]}]]
        payload = {
            "mechanism": pair,
            "budget": {"epsilon": 2.0},
            "adjacency": {"kind": "pairs", "items": items},
            "samples": 2000,
        }
        code, text = run_cli(tmp_path, "audit", payload, "--method", method)
        assert code in (EXIT_PASS, EXIT_VIOLATION, EXIT_INCONCLUSIVE)
        assert json.loads(text)["method"] == "statistical"

"""Trial-data generation, inverse-propensity estimates, file round trips."""

import dataclasses
import hashlib
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omnipredict as om
from omnipredict import rct

from conftest import (
    dyadic_scenario_and_data,
    encode,
    features_only,
    make_beta_scenario,
    named,
    partial_trial_data,
    random_matrix,
    random_scenario,
    sample_indices,
    sample_labels,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# Unit roundoff of a double.
UNIT_ROUNDOFF = 2.0**-53


def gamma(m):
    """Higham's gamma_m = m*u / (1 - m*u): a product of m factors 1 + d_i,
    each |d_i| <= u, lies within gamma_m of 1."""
    return m * UNIT_ROUNDOFF / (1 - m * UNIT_ROUNDOFF)


def ips_bound(reference, scenario):
    """The most ips_risk_estimate may differ from ips_reference.

    Every term is nonnegative, so relative bounds add up. Let E be the
    exact k/n times the sum. The estimate rounds each cell's C_0*l_0 and
    C_1*l_1 and their sum (2 roundings on any path), adds the rule's |X|
    cell totals, which in any order of summation passes each through at
    most |X| - 1 roundings (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2), then rounds k/n and the product:
    within gamma(|X| + 3) * E of E. ips_reference rounds k/n, the
    correctly rounded fsum and the product: within gamma(3) * E, so
    E <= reference / (1 - gamma(3)).
    """
    m = len(scenario.features.points)
    return (gamma(m + 3) + gamma(3)) * reference / (1 - gamma(3))


class TestGeneration:
    def test_deterministic_per_seed(self, beta_scenario):
        a = om.generate_rct(beta_scenario, 500, 42)
        b = om.generate_rct(beta_scenario, 500, 42)
        assert a == b
        c = om.generate_rct(beta_scenario, 500, 43)
        assert c != a

    def test_meta_fields(self, beta_scenario):
        d = om.generate_rct(beta_scenario, 7, 1)
        assert d.meta == om.RctMeta(scenario="beta-0.25", seed=1, n=7,
                                    gen=om.GENERATOR_TAG)
        assert d.n == 7

    def test_empirical_frequencies(self, beta_scenario):
        d = om.generate_rct(beta_scenario, 100000, 0)
        n = d.n
        xs, yhats, ys = sample_labels(d)
        for label in ("-1", "+1"):
            assert abs(sum(1 for v in yhats if v == label) / n - 0.5) < 0.01
            assert abs(sum(1 for v in xs if v == label) / n - 0.5) < 0.01
        aligned = [(x, yh, y) for x, yh, y in zip(xs, yhats, ys) if x == yh]
        rate = sum(1 for _, _, y in aligned if y == 1) / len(aligned)
        assert abs(rate - 0.75) < 0.01

    def test_respects_input_distribution(self):
        rng = np.random.default_rng(17)
        sc = random_scenario(rng, max_x=5)
        d = om.generate_rct(sc, 80000, 3)
        xs = sample_labels(d)[0]
        for x, mass in sc.input_distribution.probabilities.items():
            freq = sum(1 for v in xs if v == x) / d.n
            assert abs(freq - mass) < 0.01

    def test_rejects_empty_request(self, beta_scenario):
        with pytest.raises(om.ArgumentError):
            om.generate_rct(beta_scenario, 0, 0)

    def test_rejects_negative_seed(self, beta_scenario):
        with pytest.raises(om.ArgumentError, match="seed"):
            om.generate_rct(beta_scenario, 10, -1)

    def test_slice_keeps_provenance(self, beta_scenario):
        d = om.generate_rct(beta_scenario, 100, 9)
        s = d.slice(10, 30)
        assert s.n == 20
        assert s == d.slice(10, 30)
        assert sample_labels(s) == tuple(c[10:30] for c in sample_labels(d))
        assert s.meta.seed == 9 and s.meta.gen == om.GENERATOR_TAG


class TestIpsEstimate:
    def test_no_matching_samples_gives_zero(self, beta_scenario):
        rows = [("+1", "+1", 1), ("-1", "-1", 0), ("+1", "+1", 0)]
        d = encode(beta_scenario, rows)
        h_minus = named(beta_scenario.hypotheses, "h_minus")
        loss = named(beta_scenario.losses, "steer_to_one")
        assert om.ips_risk_estimate(d, h_minus, loss, beta_scenario) == 0.0

    def test_two_sample_hand_value(self, beta_scenario):
        # h_plus matches only the first sample, whose realized loss is 1
        rows = [("+1", "+1", 0), ("-1", "+1", 1)]
        d = encode(beta_scenario, rows)
        h_plus = named(beta_scenario.hypotheses, "h_plus")
        loss = named(beta_scenario.losses, "steer_to_one")
        assert om.ips_risk_estimate(d, h_plus, loss, beta_scenario) == 1.0

    def test_empty_dataset_rejected(self, beta_scenario):
        d = encode(beta_scenario, [])
        h = beta_scenario.hypotheses[0]
        with pytest.raises(om.ArgumentError):
            om.ips_risk_estimate(d, h, beta_scenario.losses[0], beta_scenario)

    def test_population_dataset_recovers_exact_risk(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sc, data, _ = dyadic_scenario_and_data(rng)
            for h in sc.hypotheses:
                for loss in sc.losses:
                    est = om.ips_risk_estimate(data, h, loss, sc)
                    true = om.performative_risk_exact(
                        h, sc.nature.table, loss, sc.input_distribution)
                    assert est == pytest.approx(true, abs=1e-12)

    def test_unbiased_over_repeated_draws(self, beta_scenario):
        sc = beta_scenario
        h = named(sc.hypotheses, "h_plus")
        loss = named(sc.losses, "steer_to_one")
        true = om.performative_risk_exact(h, sc.nature.table, loss, sc.input_distribution)
        trials = 2000
        vals = [
            om.ips_risk_estimate(om.generate_rct(sc, 50, seed), h, loss, sc)
            for seed in range(trials)
        ]
        mean = sum(vals) / trials
        sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (trials - 1))
        assert abs(mean - true) < 3 * sd / math.sqrt(trials)

    def test_range(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            sc = random_scenario(rng)
            d = om.generate_rct(sc, 200, int(rng.integers(0, 1000)))
            for h in sc.hypotheses:
                est = om.ips_risk_estimate(d, h, sc.losses[0], sc)
                assert 0.0 <= est <= sc.k * 1.0 + 1e-12


class TestModelRiskEstimate:
    def test_flat_predictor_on_beta(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        h = named(beta_scenario.hypotheses, "h_plus")
        loss = named(beta_scenario.losses, "steer_to_one")
        xs = features_only(beta_scenario, ["+1", "-1", "+1"])
        est = om.model_risk_estimate(xs, pred, h, loss, beta_scenario)
        assert est == pytest.approx(0.5, abs=1e-15)

    def test_truth_matrix_on_balanced_features(self, beta_scenario, beta_nature_matrix):
        sc = beta_scenario
        for h in sc.hypotheses:
            for loss in sc.losses:
                est = om.model_risk_estimate(
                    features_only(sc, ["-1", "+1"]), beta_nature_matrix, h, loss, sc)
                true = om.performative_risk_exact(
                    h, sc.nature.table, loss, sc.input_distribution)
                assert est == pytest.approx(true, abs=1e-12)

    def test_single_feature(self, beta_scenario, beta_nature_matrix):
        h = named(beta_scenario.hypotheses, "h_plus")
        loss = named(beta_scenario.losses, "steer_to_one")
        xs = features_only(beta_scenario, ["+1"])
        est = om.model_risk_estimate(xs, beta_nature_matrix, h, loss, beta_scenario)
        assert est == pytest.approx(0.25, abs=1e-15)

    def test_empty_features_rejected(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        h = beta_scenario.hypotheses[0]
        with pytest.raises(om.ArgumentError):
            om.model_risk_estimate(features_only(beta_scenario, []), pred, h,
                                   beta_scenario.losses[0], beta_scenario)


def ips_reference(data, h, loss, k):
    """The per-sample loop the array kernel replaced, kept as reference."""
    if data.n == 0:
        raise om.ArgumentError("cannot estimate risk from an empty dataset")
    total = []
    for x, yh, y in zip(*sample_labels(data)):
        if h.decide(x) == yh:
            total.append(loss.values(x, yh, y))
    return (k / data.n) * math.fsum(total)


def model_risk_reference(data, pred, rule, loss, scenario):
    """Per-sample index remapping of the features' labels."""
    xs = sample_labels(data)[0]
    matrix = om.prediction_matrix(pred, scenario)
    arrays = scenario.arrays
    base, delta = arrays.loss_arrays(loss)
    rule_idx = arrays.rule_indices(rule)
    x_idx = np.fromiter(
        (arrays.x_index[x] for x in xs), dtype=np.int64, count=len(xs)
    )
    chosen = rule_idx[x_idx]
    vals = base[x_idx, chosen] + delta[x_idx, chosen] * matrix[x_idx, chosen]
    return float(np.add.reduce(vals) / len(xs))


def rules_to_check(scenario, unlogged):
    """The scenario's rules plus one that always picks `unlogged`."""
    always = om.Hypothesis(
        name="always", mapping={x: unlogged for x in scenario.features.points})
    return scenario.hypotheses + (always,)


class TestKernelsMatchPerSampleLoops:
    """The gathers over encoded columns give the loops' results within
    each kernel's rounding."""

    def test_ips_on_partial_data_and_slices(self):
        # within ips_bound of the per-sample fsum, and the same bits for
        # the samples in reverse order
        rng = np.random.default_rng(101)
        for _ in range(15):
            sc = random_scenario(rng)
            data, unlogged = partial_trial_data(rng, sc, int(rng.integers(1, 400)))
            a = int(rng.integers(0, data.n))
            b = int(rng.integers(a + 1, data.n + 1))
            part = data.slice(a, b)
            for d in (data, part, part.slice(0, max(1, (b - a) // 2))):
                reverse = dataclasses.replace(d, cells=d.cells[::-1])
                for h in rules_to_check(sc, unlogged):
                    for loss in sc.losses:
                        got = om.ips_risk_estimate(d, h, loss, sc)
                        want = ips_reference(d, h, loss, sc.k)
                        assert abs(got - want) <= ips_bound(want, sc)
                        assert om.ips_risk_estimate(reverse, h, loss, sc) == got

    def test_rule_on_unlogged_decision_gives_zero(self):
        rng = np.random.default_rng(103)
        sc = random_scenario(rng)
        data, unlogged = partial_trial_data(rng, sc, 300)
        always = rules_to_check(sc, unlogged)[-1]
        assert om.ips_risk_estimate(data, always, sc.losses[0], sc) == 0.0

    def test_ips_on_generated_data(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            sc = random_scenario(rng)
            data = om.generate_rct(sc, 500, int(rng.integers(0, 1000)))
            for h in sc.hypotheses:
                for loss in sc.losses:
                    got = om.ips_risk_estimate(data, h, loss, sc)
                    want = ips_reference(data, h, loss, sc.k)
                    assert abs(got - want) <= ips_bound(want, sc)

    def test_model_risk_on_data_and_slice(self):
        rng = np.random.default_rng(109)
        for _ in range(15):
            sc = random_scenario(rng)
            q = random_matrix(rng, sc)
            data, unlogged = partial_trial_data(rng, sc, int(rng.integers(1, 400)))
            part = data.slice(0, max(1, data.n // 3))
            for h in rules_to_check(sc, unlogged):
                for loss in sc.losses:
                    for d in (data, part):
                        # the per-sample mean in file order and the
                        # histogram's sum over features round differently
                        want = model_risk_reference(d, q, h, loss, sc)
                        got = om.model_risk_estimate(d, q, h, loss, sc)
                        assert got == pytest.approx(want, rel=0, abs=1e-15)

    def test_slices_share_the_parent_codes(self, beta_scenario):
        # the cells generate_rct supplies are sliced as a view
        d = om.generate_rct(beta_scenario, 100, 4)
        s = d.slice(10, 30)
        assert np.shares_memory(s.cells, d.cells)
        for part, whole in zip(sample_indices(s), sample_indices(d)):
            assert part.tolist() == whole.tolist()[10:30]

    def test_empty_inputs_rejected(self, beta_scenario):
        sc = beta_scenario
        h, loss = sc.hypotheses[0], sc.losses[0]
        empty = om.generate_rct(sc, 50, 0).slice(20, 20)
        assert empty.n == 0
        with pytest.raises(om.ArgumentError):
            om.ips_risk_estimate(empty, h, loss, sc)
        pred = om.base_predictor(sc, 0.05)
        for xs in (empty, features_only(sc, [])):
            with pytest.raises(om.ArgumentError):
                om.model_risk_estimate(xs, pred, h, loss, sc)


class TestRecordOrder:
    def test_estimates_ignore_the_order_of_samples(self):
        # every estimator reads the count tensor or the feature
        # histogram, so shuffled samples give the same bits
        rng = np.random.default_rng(113)
        for _ in range(10):
            sc = random_scenario(rng)
            q = random_matrix(rng, sc)
            data, unlogged = partial_trial_data(rng, sc, int(rng.integers(2, 400)))
            perm = rng.permutation(data.n)
            shuffled = dataclasses.replace(data, cells=data.cells[perm])
            for loss in sc.losses:
                insts = [
                    [om.build_csc_instance(d, q, loss, sigma, sc) for d in (data, shuffled)]
                    for sigma in (-1, 1)
                ]
                for h in rules_to_check(sc, unlogged):
                    ips = [om.ips_risk_estimate(d, h, loss, sc) for d in (data, shuffled)]
                    model = [om.model_risk_estimate(d, q, h, loss, sc)
                             for d in (data, shuffled)]
                    assert ips[0] == ips[1] and model[0] == model[1]
                    for a, b in insts:
                        assert a.mean_cost(h) == b.mean_cost(h)


class TestRequiredSampleSize:
    def test_reference_value(self):
        assert om.required_sample_size(1.0, 2, 2, 2, 0.05, 0.1) == 14023

    def test_halving_eps_quadruples(self):
        base = om.required_sample_size(1.0, 2, 4, 3, 0.1, 0.05)
        fine = om.required_sample_size(1.0, 2, 4, 3, 0.05, 0.05)
        assert 4 * base - 4 <= fine <= 4 * base + 4

    def test_monotone_in_confidence(self):
        sizes = [om.required_sample_size(1.0, 2, 2, 2, 0.05, d)
                 for d in (0.2, 0.1, 0.05, 0.01)]
        assert sizes == sorted(sizes)

    def test_grows_with_spaces(self):
        small = om.required_sample_size(1.0, 2, 2, 2, 0.05, 0.1)
        assert om.required_sample_size(1.0, 3, 2, 2, 0.05, 0.1) > small
        assert om.required_sample_size(1.0, 2, 20, 2, 0.05, 0.1) > small
        assert om.required_sample_size(2.0, 2, 2, 2, 0.05, 0.1) > small

    def test_argument_validation(self):
        with pytest.raises(om.ArgumentError):
            om.required_sample_size(0.0, 2, 2, 2, 0.05, 0.1)
        with pytest.raises(om.ArgumentError):
            om.required_sample_size(1.0, 2, 2, 2, -0.05, 0.1)
        with pytest.raises(om.ArgumentError):
            om.required_sample_size(1.0, 2, 2, 2, 0.05, 1.0)
        with pytest.raises(om.ArgumentError):
            om.required_sample_size(1.0, 2, 2, 2, 0.05, 0.0)
        nan, inf = math.nan, math.inf
        for lmax, eps, delta in ((nan, 0.05, 0.1), (1.0, nan, 0.1), (1.0, 0.05, nan),
                                 (inf, 0.05, 0.1), (1.0, inf, 0.1)):
            with pytest.raises(om.ArgumentError, match="positive and finite|delta"):
                om.required_sample_size(lmax, 2, 2, 2, eps, delta)
        # finite arguments whose bound is past float range
        for lmax, eps in ((1e200, 0.05), (1.0, 1e-300), (1e200, 1e200)):
            with pytest.raises(om.ArgumentError, match="beyond float range"):
                om.required_sample_size(lmax, 2, 2, 2, eps, 0.1)


def header_line(sc, samples, **fields):
    """A metadata line for sc declaring the number of samples; each field
    is the JSON text of its value, or None to leave the key out."""
    meta = {"scenario": json.dumps(sc.name), "seed": "3", "n": str(samples),
            "gen": '"g"'}
    meta.update(fields)
    return ('{"meta":{' + ",".join(f'"{k}":{v}' for k, v in meta.items()
                                   if v is not None) + "}}")


# Header fields the reader refuses, as the JSON text of the value (None:
# the key is missing), with the reason it names.
BAD_META = [
    ("gen", None, "'gen'"),
    ("n", "2.5", "n must be a non-negative integer, got 2.5"),
    ("n", "true", "n must be a non-negative integer, got True"),
    ("n", '"2"', "n must be a non-negative integer, got '2'"),
    ("n", "-1", "n must be a non-negative integer, got -1"),
    ("n", "null", "n must be a non-negative integer, got None"),
    ("n", "1e400", "n must be a non-negative integer, got inf"),
    ("seed", "true", "seed must be a non-negative integer or null, got True"),
    ("seed", "3.9", "seed must be a non-negative integer or null, got 3.9"),
    ("seed", "-1", "seed must be a non-negative integer or null, got -1"),
    ("seed", '"3"', "seed must be a non-negative integer or null, got '3'"),
    ("scenario", "5", "scenario must be a string, got 5"),
    ("gen", "7", "gen must be a string, got 7"),
]


class TestJsonlFiles:
    def test_round_trip(self, beta_scenario, tmp_path):
        d = om.generate_rct(beta_scenario, 1000, 12)
        path = tmp_path / "trial.jsonl"
        om.write_jsonl(d, path)
        back = om.read_jsonl(path, beta_scenario)
        assert back == d

    def test_line_count(self, beta_scenario, tmp_path):
        d = om.generate_rct(beta_scenario, 25, 0)
        path = tmp_path / "trial.jsonl"
        om.write_jsonl(d, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 26  # one metadata line plus one per sample
        assert "meta" in lines[0]

    def test_unknown_decision_names_location(self, beta_scenario, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x":"+1","yhat":"+1","y":1}\n{"x":"+1","yhat":"q","y":0}\n')
        with pytest.raises(om.DataFormatError) as exc:
            om.read_jsonl(path, beta_scenario)
        msg = str(exc.value)
        assert str(path) in msg and ":2" in msg

    def test_unknown_feature_rejected(self, beta_scenario, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x":"zz","yhat":"+1","y":1}\n')
        with pytest.raises(om.DataFormatError):
            om.read_jsonl(path, beta_scenario)

    @pytest.mark.parametrize("sample, refusal", [
        ('{"x": 1, "yhat": "+1", "y": 1}', "unknown feature 1"),
        ('{"x": true, "yhat": "+1", "y": 1}', "unknown feature True"),
        ('{"x": ["1"], "yhat": "+1", "y": 1}', "unknown feature ['1']"),
        ('{"x": "1", "yhat": 1, "y": 1}', "unknown decision 1"),
        ('{"x": "1", "yhat": {"+1": 1}, "y": 1}', "unknown decision {'+1': 1}"),
    ], ids=["number-x", "boolean-x", "list-x", "number-yhat", "object-yhat"])
    def test_label_that_is_no_string_names_line(self, tmp_path, sample, refusal):
        # the features and decisions are the str forms of the labels
        labels = ("+1", "1")
        sc = small_scenario("digits", ("0", "1", "True", "['1']"), labels,
                            {x: {y: (0.25, 0.5) for y in labels}
                             for x in ("0", "1", "True", "['1']")})
        path = tmp_path / "labels.jsonl"
        path.write_text('{"x": "1", "yhat": "+1", "y": 0}\n' + sample + "\n")
        with pytest.raises(om.DataFormatError) as exc:
            om.read_jsonl(path, sc)
        assert str(exc.value) == f"{path}:2: {refusal}"

    def test_bad_outcome_rejected(self, beta_scenario, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x":"+1","yhat":"+1","y":2}\n')
        with pytest.raises(om.DataFormatError):
            om.read_jsonl(path, beta_scenario)

    def test_broken_json_names_line(self, beta_scenario, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x":"+1","yhat":"+1","y":1}\n{oops\n')
        with pytest.raises(om.DataFormatError) as exc:
            om.read_jsonl(path, beta_scenario)
        assert ":2" in str(exc.value)

    @pytest.mark.parametrize("outcome", ["true", "false", "1.0", "0.0", '"1"'])
    def test_non_integer_outcome_names_line(self, beta_scenario, tmp_path,
                                            outcome):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x":"+1","yhat":"+1","y":1}\n'
                        f'{{"x":"-1","yhat":"+1","y":{outcome}}}\n')
        with pytest.raises(om.DataFormatError) as exc:
            om.read_jsonl(path, beta_scenario)
        assert f"{path}:2" in str(exc.value)

    def test_foreign_scenario_header_rejected(self, beta_scenario, tmp_path):
        d = om.generate_rct(beta_scenario, 5, 0)
        path = tmp_path / "foreign.jsonl"
        om.write_jsonl(d, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"beta-0.25"', '"some-other-scenario"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(om.DataFormatError) as exc:
            om.read_jsonl(path, beta_scenario)
        msg = str(exc.value)
        assert f"{path}:1" in msg
        assert "some-other-scenario" in msg and "beta-0.25" in msg

    @pytest.mark.parametrize("field, text, problem", BAD_META)
    def test_bad_header_names_line_one(self, tmp_path, field, text, problem):
        path = tmp_path / "header.jsonl"
        path.write_text(header_line(BETA, 1, **{field: text})
                        + '\n{"x":"+1","yhat":"+1","y":1}\n')
        for reader in (om.read_jsonl, line_reader_reference):
            with pytest.raises(om.DataFormatError) as exc:
                reader(path, BETA)
            assert str(exc.value) == f"{path}:1: bad metadata: {problem}"

    def test_null_or_missing_seed_reads_as_none(self, tmp_path):
        path = tmp_path / "header.jsonl"
        for seed in ("null", None):
            path.write_text(header_line(BETA, 0, seed=seed) + "\n")
            assert om.read_jsonl(path, BETA).meta == om.RctMeta(
                scenario="beta-0.25", seed=None, n=0, gen="g")

    def test_truncated_file_rejected(self, beta_scenario, tmp_path):
        path = tmp_path / "cut.jsonl"
        om.write_jsonl(om.generate_rct(beta_scenario, 10, 0), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:6]) + "\n")  # header, 5 samples
        with pytest.raises(om.DataFormatError) as exc:
            om.read_jsonl(path, beta_scenario)
        msg = str(exc.value)
        assert str(path) in msg and "n=10" in msg and "5 samples" in msg

    def test_headerless_file_takes_the_scenario_name(self, beta_scenario,
                                                     tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text('{"x":"+1","yhat":"-1","y":0}\n'
                        '{"x":"-1","yhat":"-1","y":1}\n')
        d = om.read_jsonl(path, beta_scenario)
        assert d.n == 2 and sample_labels(d)[2] == (0, 1)
        assert d.meta.scenario == "beta-0.25"

    def test_augmented_scenario_reads_base_data(self, tmp_path):
        base = om.load_scenario(
            Path(__file__).resolve().parent.parent / "scenarios"
            / "beta025_weights.json")
        d = om.generate_rct(base, 20, 3)
        path = tmp_path / "trial.jsonl"
        om.write_jsonl(d, path)
        assert om.read_jsonl(path, om.augment_scenario(base)) == d

    def test_bytes_that_are_not_utf8_are_refused(self, beta_scenario, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"x":"+1","yhat":"+1","y":1}\n'
                         b'{"x":"\xe9","yhat":"+1","y":1}\n')
        with pytest.raises(om.DataFormatError, match="not UTF-8 text") as exc:
            om.read_jsonl(path, beta_scenario)
        assert str(path) in str(exc.value)

    def test_empty_file_gives_empty_dataset(self, beta_scenario, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        d = om.read_jsonl(path, beta_scenario)
        assert d.n == 0
        with pytest.raises(om.ArgumentError):
            om.ips_risk_estimate(d, beta_scenario.hypotheses[0],
                                 beta_scenario.losses[0], beta_scenario)


def line_reader_reference(path, scenario):
    """The line-at-a-time reader the block reader replaced, kept as the
    reference its results and errors must match."""
    xs, yhats, ys = [], [], []
    meta = None
    features = set(scenario.features.points)
    labels = set(scenario.decisions.labels)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise om.DataFormatError(f"cannot read dataset file {path}: {exc}")
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise om.DataFormatError(f"{path}:{lineno}: invalid JSON: {exc}")
            if lineno == 1 and isinstance(obj, dict) and "meta" in obj:
                m = obj["meta"]
                try:
                    meta = om.RctMeta(scenario=m["scenario"], seed=m.get("seed"),
                                      n=m["n"], gen=m["gen"])
                except (KeyError, TypeError) as exc:
                    raise om.DataFormatError(f"{path}:1: bad metadata: {exc}")
                for field in ("scenario", "seed", "n", "gen"):
                    value = getattr(meta, field)
                    if field in ("scenario", "gen"):
                        want, ok = "a string", isinstance(value, str)
                    else:
                        want = "a non-negative integer"
                        ok = (isinstance(value, int) and not isinstance(value, bool)
                              and value >= 0)
                        if field == "seed":
                            want, ok = want + " or null", ok or value is None
                    if not ok:
                        raise om.DataFormatError(
                            f"{path}:1: bad metadata: {field} must be {want}, "
                            f"got {value!r}")
                if meta.scenario != scenario.name:
                    raise om.DataFormatError(
                        f"{path}:1: dataset was drawn for scenario "
                        f"{meta.scenario!r}, not {scenario.name!r}"
                    )
                continue
            if not isinstance(obj, dict):
                raise om.DataFormatError(f"{path}:{lineno}: sample must be an object")
            try:
                x, yh, y = obj["x"], obj["yhat"], obj["y"]
            except KeyError as exc:
                raise om.DataFormatError(f"{path}:{lineno}: missing key {exc}")
            if not isinstance(x, str) or x not in features:
                raise om.DataFormatError(f"{path}:{lineno}: unknown feature {x!r}")
            if not isinstance(yh, str) or yh not in labels:
                raise om.DataFormatError(f"{path}:{lineno}: unknown decision {yh!r}")
            if type(y) is not int or y not in (0, 1):
                raise om.DataFormatError(
                    f"{path}:{lineno}: outcome must be the integer 0 or 1, "
                    f"got {y!r}"
                )
            xs.append(x)
            yhats.append(yh)
            ys.append(y)
    if meta is None:
        meta = om.RctMeta(scenario=scenario.name, seed=None, n=len(xs), gen="")
    elif meta.n != len(xs):
        raise om.DataFormatError(
            f"{path}: metadata declares n={meta.n} but the file holds "
            f"{len(xs)} samples"
        )
    return om.RctDataset.from_labels(scenario, xs, yhats, ys, meta)


def small_scenario(name, points, labels, values):
    """Scenario with uniform masses, one loss whose table is values
    (feature -> decision -> (value at y=0, value at y=1)) and one rule
    choosing labels[0] everywhere."""
    dist = {x: 1.0 / len(points) for x in points}
    return om.Scenario(
        name=name,
        features=om.FeatureSpace(points=tuple(points)),
        decisions=om.DecisionSpace(labels=tuple(labels)),
        input_distribution=om.InputDistribution(probabilities=dist),
        nature=om.NatureModel(table={x: {y: 0.5 for y in labels} for x in points}),
        losses=(om.Loss(name="l", lmax=1.0, table=values),),
        hypotheses=(om.Hypothesis(name="h", mapping={x: labels[0] for x in points}),),
        epsilon=0.1,
    )


# Identifiers that need escapes, braces inside strings, and non-ASCII.
ODD_FEATURES = ("x0", "é", 'q"t', "{")
ODD_LABELS = ("d0", "}", "a\\b", " ")
ODD = small_scenario(
    "odd", ODD_FEATURES, ODD_LABELS,
    {x: {y: (0.25, 0.5) for y in ODD_LABELS} for x in ODD_FEATURES},
)
BETA = make_beta_scenario(0.25)
GARBAGE = ["{oops", "[]", "1", '"x"', "null", '{"x":"x0"}', '{"yhat":"d0","y":1}',
           '{"x":"zz","yhat":"d0","y":1}', '{"x":"-1","yhat":"q","y":0}',
           '{"x":1,"yhat":"+1","y":1}', '{"x":"+1","yhat":"+1","y":1,"w":[{}]}',
           '{"x":"+1","yhat":"+1","y":1', '"yhat":"+1","y":1}', "{}",
           '{"meta":{"scenario":"beta-0.25","seed":0,"n":1,"gen":""}}']


def escaped(s):
    return '"' + "".join(f"\\u{ord(c):04x}" for c in s) + '"'


@st.composite
def sample_lines(draw, x, yh, y):
    # mostly lines the block parse accepts, so damage elsewhere decides
    style = draw(st.sampled_from(["plain"] * 6 + ["reordered", "escaped", "spaced",
                                                  "extra", "padded", "outcome"]))
    if style == "outcome":
        y = draw(st.sampled_from(["true", "false", "1.0", '"1"', "2", "-0", "null"]))
    fields = {"x": json.dumps(x), "yhat": json.dumps(yh), "y": str(y)}
    if style == "escaped":
        fields["x"], fields["yhat"] = escaped(x), escaped(yh)
    keys = ["x", "yhat", "y"]
    if style == "reordered":
        keys = draw(st.permutations(keys))
    sep = ", " if style == "spaced" else ","
    body = sep.join(f'"{k}":{fields[k]}' for k in keys)
    if style == "extra":
        body += ',"note":[{},{"a":"}"}]'
    line = "{" + body + "}"
    return f"  {line}\t" if style == "padded" else line


def respelled(x, yh, y):
    """The sample (x, yh, y) in spellings other than the writer's: spaced,
    reordered, escaped, and padded (a trailing \\r before a \\n ends the
    line in \\r\\n)."""
    return [f'{{"x": {json.dumps(x)}, "yhat": {json.dumps(yh)}, "y": {y}}}',
            f'{{"y":{y},"yhat":{json.dumps(yh)},"x":{json.dumps(x)}}}',
            f'{{"x":{escaped(x)},"yhat":{escaped(yh)},"y":{y}}}',
            f' {{"x":{json.dumps(x)},"yhat":{json.dumps(yh)},"y":{y}}}\r']


@st.composite
def trial_files(draw):
    """A scenario and the text of a JSONL file for it, often damaged."""
    sc = draw(st.sampled_from([BETA, ODD]))
    rows = draw(st.lists(st.tuples(st.sampled_from(sc.features.points),
                                   st.sampled_from(sc.decisions.labels),
                                   st.sampled_from([0, 1])), max_size=12))
    lines = [draw(sample_lines(*row)) for row in rows]
    header = draw(st.sampled_from(["none", "good", "wrong-n", "foreign", "bad"]))
    fields = {}
    if header == "wrong-n":
        fields["n"] = str(len(rows) + draw(st.sampled_from([-1, 1])))
    elif header == "foreign":
        fields["scenario"] = '"elsewhere"'
    elif header == "bad":
        field, text, _ = draw(st.sampled_from(BAD_META))
        fields[field] = text
    if header != "none":
        lines.insert(0, header_line(sc, len(rows), **fields))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["blank", "garbage", "merge", "split",
                                     "regroup", "duplicate", "drop",
                                     "move-header", "respell"]))
        if kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t", " "])))
        elif kind == "garbage":
            lines.insert(at, draw(st.sampled_from(GARBAGE)))
        elif lines and at < len(lines):
            if kind == "merge" and at + 1 < len(lines):
                glue = draw(st.sampled_from(["", ",", " "]))
                lines[at:at + 2] = [lines[at] + glue + lines[at + 1]]
            elif kind in ("split", "regroup") and "," in lines[at]:
                # the join puts a comma back, so drop the one cut at
                line = lines[at]
                cut = draw(st.sampled_from([i for i, c in enumerate(line) if c == ","]))
                lines[at:at + 1] = [line[:cut], line[cut + 1:]]
                if kind == "regroup":  # and two objects on one line elsewhere
                    other = draw(st.integers(0, len(lines) - 2))
                    lines[other:other + 2] = [lines[other] + "," + lines[other + 1]]
            elif kind == "duplicate":
                lines.insert(at, lines[at])
            elif kind == "drop":
                del lines[at]
            elif kind == "move-header":
                lines.insert(at, lines.pop(0))
            elif kind == "respell" and rows:
                # one sample in the writer's spelling and in others, apart
                row = draw(st.sampled_from(rows))
                canonical = json.dumps(dict(zip(("x", "yhat", "y"), row)),
                                       separators=(",", ":"))
                others = draw(st.lists(st.sampled_from(respelled(*row)),
                                       min_size=1, max_size=3))
                lines[at:at] = [canonical, *others, canonical]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    return sc, text


def read_result(reader, path, scenario):
    try:
        return ("data", reader(path, scenario))
    except Exception as exc:
        return ("error", type(exc), str(exc))


# Block sizes the reader is run with: blocks of one line, blocks that
# split a file in uneven parts, and the default.
BLOCKS = [1, 2, 3, 5, 4096]


class TestBlockReaderMatchesLineReader:
    @settings(max_examples=400, deadline=None)
    @given(trial_files(), st.sampled_from(BLOCKS))
    def test_same_dataset_or_same_error(self, case, block):
        sc, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trial.jsonl"
            path.write_text(text, encoding="utf-8", newline="")
            want = read_result(line_reader_reference, path, sc)
            with mock.patch.object(rct, "_BLOCK_LINES", block):
                got = read_result(om.read_jsonl, path, sc)
        assert got == want

    @pytest.mark.parametrize("bad_line", [4095, 4096, 4097, 4098, 8193])
    def test_bad_line_on_either_side_of_a_block_boundary(self, tmp_path, bad_line):
        path = tmp_path / "trial.jsonl"
        om.write_jsonl(om.generate_rct(BETA, 9000, 1), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[bad_line - 1] = '{"x":"+1","yhat":"+1","y":1.0}\n'
        path.write_text("".join(lines))
        with pytest.raises(om.DataFormatError) as exc:
            om.read_jsonl(path, BETA)
        assert str(exc.value) == (f"{path}:{bad_line}: outcome must be the "
                                  "integer 0 or 1, got 1.0")

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("last", ["canonical", "spaced", "bad"])
    def test_last_line_without_its_newline(self, tmp_path, block, last):
        path = tmp_path / "trial.jsonl"
        om.write_jsonl(om.generate_rct(BETA, 12, 2), path)
        text = path.read_text().rstrip("\n")
        if last == "spaced":
            text = text.replace(',"y":', ', "y": ')
        elif last == "bad":
            text = text[:-1] + ".0}"
        path.write_text(text)
        want = read_result(line_reader_reference, path, BETA)
        assert want[0] == ("error" if last == "bad" else "data")
        with mock.patch.object(rct, "_BLOCK_LINES", block):
            assert read_result(om.read_jsonl, path, BETA) == want

    @pytest.mark.parametrize("block", BLOCKS)
    def test_a_repeated_bad_line_is_named_where_it_first_appears(self, tmp_path,
                                                                 block):
        path = tmp_path / "trial.jsonl"
        om.write_jsonl(om.generate_rct(BETA, 20, 3), path)
        lines = path.read_text().splitlines(keepends=True)
        spaced = '{"x": "-1", "yhat": "+1", "y": 0}\n'
        bad = '{"x":"+1","yhat":"+1","y":1.0}\n'
        lines[3], lines[9], lines[18] = spaced, bad, bad
        lines[12] = spaced
        path.write_text("".join(lines))
        message = f"{path}:10: outcome must be the integer 0 or 1, got 1.0"
        assert read_result(line_reader_reference, path, BETA)[2] == message
        with mock.patch.object(rct, "_BLOCK_LINES", block):
            assert read_result(om.read_jsonl, path, BETA) == (
                "error", om.DataFormatError, message)

    @pytest.mark.parametrize("value", ["1" * 4301, "[" * 100_000],
                             ids=["long_integer", "deep_nesting"])
    @pytest.mark.parametrize("lineno", [1, 4])
    def test_parser_limits_are_data_errors(self, tmp_path, lineno, value):
        # the parser raises ValueError and RecursionError here, not
        # JSONDecodeError; on line 1 the value is the header's n
        path = tmp_path / "trial.jsonl"
        om.write_jsonl(om.generate_rct(BETA, 5, 1), path)
        lines = path.read_text().splitlines(keepends=True)
        if lineno == 1:
            assert '"n":5' in lines[0]
            lines[0] = lines[0].replace('"n":5', f'"n":{value}')
        else:
            lines[3] = f'{{"x":"-1","yhat":"-1","y":{value}}}\n'
        path.write_text("".join(lines))
        want = read_result(line_reader_reference, path, BETA)
        assert want[:2] == ("error", om.DataFormatError)
        assert want[2].startswith(f"{path}:{lineno}: invalid JSON: ")
        assert read_result(om.read_jsonl, path, BETA) == want

    def test_each_distinct_line_is_decoded_once(self, tmp_path):
        path = tmp_path / "trial.jsonl"
        data = om.generate_rct(BETA, 9000, 4)
        om.write_jsonl(data, path)
        with mock.patch.object(rct.json, "loads", wraps=json.loads) as loads:
            assert om.read_jsonl(path, BETA) == data
        assert loads.call_count == 1  # the header; every sample is canonical
        header, _ = path.read_text().split("\n", 1)
        samples = [respelled(*row)[i % 3]
                   for i, row in enumerate(zip(*sample_labels(data)))]
        path.write_text("\n".join([header, *samples]) + "\n")
        with mock.patch.object(rct, "_BLOCK_LINES", 1000), \
                mock.patch.object(rct.json, "loads", wraps=json.loads) as loads:
            assert om.read_jsonl(path, BETA).counts.tolist() == data.counts.tolist()
        assert loads.call_count == 1 + len(set(samples))

    def test_one_object_over_two_lines_is_rejected(self, tmp_path):
        # each joined block parses, with as many elements as lines, but
        # line 2 alone is not JSON (line 1 is read alone, for a header)
        path = tmp_path / "split.jsonl"
        first = '{"x":"-1","yhat":"-1","y":0}\n'
        path.write_text(first + '{"x":"+1","yhat":"+1","y":1},{"x":"-1","yhat":"+1"\n'
                        '"y":0}\n')
        with pytest.raises(om.DataFormatError, match=":2: invalid JSON"):
            om.read_jsonl(path, BETA)
        path.write_text(first + '{"x":"+1","yhat":"+1","y":1},'
                        '{"x":"-1","yhat":"+1","y":0,"w":[{}\n{}]}\n')
        with pytest.raises(om.DataFormatError, match=":2: invalid JSON"):
            om.read_jsonl(path, BETA)

    def test_writer_bytes_match_one_dumps_per_sample(self, tmp_path):
        data = om.generate_rct(ODD, 300, 5)
        path = tmp_path / "odd.jsonl"
        om.write_jsonl(data, path)
        head = json.dumps({"meta": {"scenario": "odd", "seed": 5, "n": 300,
                                    "gen": om.GENERATOR_TAG}}, separators=(",", ":"))
        want = "".join(
            json.dumps({"x": x, "yhat": yh, "y": y}, separators=(",", ":")) + "\n"
            for x, yh, y in zip(*sample_labels(data)))
        assert path.read_text(encoding="utf-8") == head + "\n" + want
        assert om.read_jsonl(path, ODD) == data


# Two 53-bit loss values and counts at which the two products
# count * value round, and their rounded sum misses the correctly
# rounded total by one ulp.
FULL_MANTISSA = (float.fromhex("0x1.e3fa85468ae3cp-1"), 127,
                 float.fromhex("0x1.cd87e65450c46p-1"), 93)


class TestCountKernel:
    """The count-tensor estimate is within ips_bound of the per-sample
    fsum, and equal for equal samples."""

    def test_one_feature_one_decision_one_sample(self):
        sc = small_scenario("one", ["only"], ["d"], {"only": {"d": (0.1, 0.7)}})
        h, loss = sc.hypotheses[0], sc.losses[0]
        for y in (0, 1):
            data = encode(sc, [("only", "d", y)])
            assert data.counts.tolist() == [[[1 - y, y]]]
            got = om.ips_risk_estimate(data, h, loss, sc)
            assert got == ips_reference(data, h, loss, 1) == (0.1, 0.7)[y]

    def test_unsampled_features_and_unlogged_decisions(self):
        rng = np.random.default_rng(307)
        for _ in range(15):
            sc = random_scenario(rng)
            data, unlogged = partial_trial_data(rng, sc, int(rng.integers(1, 300)))
            counts = data.counts
            want = np.zeros_like(counts)
            np.add.at(want, sample_indices(data), 1)
            assert np.array_equal(counts, want)
            assert counts[:, sc.arrays.y_index[unlogged]].sum() == 0
            for h in rules_to_check(sc, unlogged):
                for loss in sc.losses:
                    got = om.ips_risk_estimate(data, h, loss, sc)
                    want = ips_reference(data, h, loss, sc.k)
                    assert abs(got - want) <= ips_bound(want, sc)

    def test_slices_of_slices_and_hand_built_copies(self):
        rng = np.random.default_rng(311)
        for _ in range(10):
            sc = random_scenario(rng)
            data = om.generate_rct(sc, 500, int(rng.integers(0, 1000)))
            a, b = sorted(rng.integers(0, 501, size=2))
            part = data.slice(a, b)
            c, e = sorted(rng.integers(0, part.n + 1, size=2))
            inner = part.slice(c, e)
            if inner.n == 0:
                continue
            by_hand = encode(sc, list(zip(*sample_labels(inner))))
            assert by_hand == dataclasses.replace(inner, meta=by_hand.meta)
            assert np.array_equal(inner.counts, by_hand.counts)
            for h in sc.hypotheses:
                for loss in sc.losses:
                    want = ips_reference(inner, h, loss, sc.k)
                    got = om.ips_risk_estimate(inner, h, loss, sc)
                    assert abs(got - want) <= ips_bound(want, sc)
                    assert om.ips_risk_estimate(by_hand, h, loss, sc) == got

    def test_full_mantissa_values_at_large_counts(self):
        # each product count * value rounds, so the estimate need not be
        # the correctly rounded per-sample fsum: it is within ips_bound of
        # it, and the same float whatever the order of the records
        v0, c0, v1, c1 = FULL_MANTISSA
        sc = small_scenario("wide", ["a", "b"], ["d"],
                            {"a": {"d": (v0, v0)}, "b": {"d": (v1, v1)}})
        rows = [("a", "d", i % 2) for i in range(c0)]
        rows += [("b", "d", i % 2) for i in range(c1)]
        data = encode(sc, rows)
        h, loss = sc.hypotheses[0], sc.losses[0]
        want = ips_reference(data, h, loss, 1)
        got = om.ips_risk_estimate(data, h, loss, sc)
        assert abs(got - want) <= ips_bound(want, sc)
        assert om.ips_risk_estimate(encode(sc, rows[::-1]), h, loss, sc) == got


class TestDataOutsideScenario:
    """Identifiers and outcomes outside the scenario are refused, by name,
    when label columns are encoded."""

    SCENARIO = om.load_scenario(SCENARIOS / "beta025.json")

    @pytest.mark.parametrize("bad", [2, -1, True, 1.0, "1", None])
    def test_outcome_must_be_integer_zero_or_one(self, bad):
        with pytest.raises(om.ArgumentError, match="outcome must be the integer"):
            encode(self.SCENARIO, [("+1", "+1", 1), ("-1", "+1", bad)])

    def test_unknown_feature_is_named(self):
        rows = [("+1", "+1", 1), ("zz", "-1", 0), ("yy", "-1", 0)]
        with pytest.raises(om.ArgumentError, match="unknown feature 'zz'"):
            encode(self.SCENARIO, rows)
        with pytest.raises(om.ArgumentError, match=r"unknown feature \['\+1'\]"):
            encode(self.SCENARIO, [(["+1"], "+1", 1)])

    def test_label_columns_must_agree_on_length(self):
        meta = om.RctMeta(scenario="beta-0.25", seed=None, n=2, gen="")
        with pytest.raises(om.ArgumentError, match="one entry per sample"):
            om.RctDataset.from_labels(self.SCENARIO, ["+1", "-1"], ["+1"], [0, 1], meta)

    def test_unknown_decision_is_named(self):
        with pytest.raises(om.ArgumentError, match="unknown decision 'q'"):
            encode(self.SCENARIO, [("+1", "+1", 0), ("+1", "q", 1)])

    # A sample's feature, decision or outcome index one past either end of
    # its space [0, 2) is refused once encoded as a cell. With the other two
    # indices at the same end as the bad one, the cell lies outside [0, 8);
    # elsewhere it would alias another valid cell, which the flat layout
    # cannot tell apart.
    @pytest.mark.parametrize("column, bad", [
        ("x_idx", -1), ("x_idx", 2), ("yhat_idx", -1), ("yhat_idx", 2),
        ("outcomes", -1), ("outcomes", 2)])
    def test_indices_outside_the_spaces_are_refused(self, column, bad):
        data = om.generate_rct(self.SCENARIO, 5, 0)
        k = data.decisions.k

        def with_sample_3(value):
            edge = 0 if value < 0 else 1
            index = {"x_idx": edge, "yhat_idx": edge, "outcomes": edge, column: value}
            cells = data.cells.copy()
            cells[3] = (index["x_idx"] * k + index["yhat_idx"]) * 2 + index["outcomes"]
            return dataclasses.replace(data, cells=cells)

        with pytest.raises(om.ArgumentError, match=r"cells must lie in \[0, 8\)"):
            with_sample_3(bad)
        restored = with_sample_3(1)
        assert restored.n == 5
        assert [c[3] for c in sample_indices(restored)] == [1, 1, 1]

    # 2·|X|·k = 8 cells: one past either end of [0, 8) is refused
    @pytest.mark.parametrize("bad", [-1, 8])
    def test_cells_outside_the_spaces_are_refused(self, bad):
        data = om.generate_rct(self.SCENARIO, 5, 0)
        cells = data.cells.copy()
        cells[3] = bad
        with pytest.raises(om.ArgumentError, match=r"cells must lie in \[0, 8\)"):
            dataclasses.replace(data, cells=cells)
        for good in (0, 7):
            cells[3] = good
            assert dataclasses.replace(data, cells=cells).n == 5

    @pytest.mark.parametrize("cells", [
        np.zeros(5), np.zeros(5, dtype=bool), np.zeros((5, 1), dtype=np.intp),
        np.zeros(4, dtype=np.intp), [0] * 5],
        ids=["float", "bool", "2-D", "short", "list"])
    def test_cells_must_be_an_integer_array_of_n(self, cells):
        data = om.generate_rct(self.SCENARIO, 5, 0)
        with pytest.raises(om.ArgumentError, match="1-D integer array of n=5"):
            dataclasses.replace(data, cells=cells)

    def test_loss_from_outside_the_scenario(self):
        sc = self.SCENARIO
        data = om.generate_rct(sc, 50, 0)
        foreign = make_beta_scenario(0.25).losses[0]
        with pytest.raises(om.ArgumentError, match="not one of the scenario's"):
            om.ips_risk_estimate(data, sc.hypotheses[0], foreign, sc)


def respaced(scenario, points, labels):
    """A scenario like small_scenario's over the given spaces."""
    return small_scenario(scenario.name, points, labels,
                          {x: {y: (0.25, 0.5) for y in labels} for x in points})


class TestScenarioBinding:
    """A dataset is used only with scenarios over the spaces it was
    encoded for."""

    BASE = om.load_scenario(SCENARIOS / "beta025_weights.json")

    @pytest.mark.parametrize("points, labels", [
        (("+1", "-1"), ("-1", "+1")),       # features reordered
        (("-1", "+1", "0"), ("-1", "+1")),  # a feature more
        (("-1", "+1"), ("+1", "-1")),       # decisions reordered
        (("-1", "+1"), ("-1", "up")),       # a decision renamed
    ])
    def test_other_spaces_are_refused(self, points, labels):
        data = om.generate_rct(self.BASE, 200, 1)
        assert (self.BASE.features.points, self.BASE.decisions.labels) == (
            ("-1", "+1"), ("-1", "+1"))
        other = respaced(self.BASE, points, labels)
        h, loss = other.hypotheses[0], other.losses[0]
        pred = om.base_predictor(other, 0.05)
        with pytest.raises(om.ArgumentError, match="indexed by other features"):
            om.ips_risk_estimate(data, h, loss, other)
        with pytest.raises(om.ArgumentError, match="indexed by other features"):
            om.model_risk_estimate(data, pred, h, loss, other)
        with pytest.raises(om.ArgumentError, match="indexed by other features"):
            om.build_csc_instance(data, pred, loss, 1, other)
        with pytest.raises(om.ArgumentError, match="indexed by other features"):
            om.audit_poi_empirical(pred, data, data, other, 0.1)
        own = om.generate_rct(other, 200, 1)
        with pytest.raises(om.ArgumentError, match="indexed by other features"):
            om.audit_poi_empirical(pred, own, data, other, 0.1)
        costs = np.zeros((data.n, other.k))
        with pytest.raises(om.ArgumentError, match="indexed by other features"):
            om.CscInstance(data=data, costs=costs, scenario=other)

    @pytest.mark.parametrize("derive", [
        om.augment_scenario,
        lambda sc: dataclasses.replace(sc, losses=sc.losses[1:]),
    ], ids=["augmented", "replaced-losses"])
    def test_derived_scenarios_are_accepted(self, derive):
        data = om.generate_rct(self.BASE, 400, 2)
        sc = derive(self.BASE)
        pred = om.base_predictor(sc, 0.05)
        for h in sc.hypotheses:
            for loss in sc.losses:
                assert (om.ips_risk_estimate(data, h, loss, sc)
                        == ips_reference(data, h, loss, sc.k))
                assert (om.model_risk_estimate(data, pred, h, loss, sc)
                        == model_risk_reference(data, pred, h, loss, sc))
        instance = om.build_csc_instance(data, pred, sc.losses[0], 1, sc)
        assert instance.n == data.n
        _, report = om.audit_poi_empirical(pred, data, data, sc, 0.1)
        assert len(report.entries) == len(sc.hypotheses) * len(sc.losses)


# sha256 of write_jsonl(generate_rct(scenario, n, seed)): the bytes
# GENERATOR_TAG promises for a seed, pinned across library versions.
GENERATED_DIGESTS = [
    ("beta025.json", 2000, 0,
     "c47017085b14a39bead58292e179551bb1209422040d454a6305d2d7c7926e89"),
    ("beta025.json", 2000, 7,
     "e3efd40efaa3b75d51b3f6247eb8a408776690be7c2d2846d69259d6a4186a8b"),
    ("beta025_weights.json", 2000, 1,
     "10678e4f7a5454efaf66f354b826e1e6b7c0d3a1e87800f627c5f92067d3ac4a"),
    ("beta025_weights.json", 2000, 12,
     "190374a895e846b77b3c86a165cb9593f2dd90820b515e44d720ceee0a28c57e"),
    ("odd", 300, 5,
     "1c1cef98bc57b2e238509fa62ae1cba943db44d78ca1792251d0fc3f4a8a8530"),
]


class TestGeneratorBytes:
    @pytest.mark.parametrize("name, n, seed, digest", GENERATED_DIGESTS)
    def test_generated_files_keep_their_bytes(self, tmp_path, name, n, seed, digest):
        assert om.GENERATOR_TAG == "pcg64-icdf-1"
        sc = ODD if name == "odd" else om.load_scenario(SCENARIOS / name)
        path = tmp_path / "trial.jsonl"
        om.write_jsonl(om.generate_rct(sc, n, seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

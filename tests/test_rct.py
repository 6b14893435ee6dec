"""Trial-data generation, inverse-propensity estimates, file round trips."""

import math
from pathlib import Path

import numpy as np
import pytest

import omnipredict as om

from conftest import (
    dyadic_scenario_and_data,
    partial_trial_data,
    random_matrix,
    random_scenario,
)


def manual_dataset(scenario, rows):
    xs, yhats, ys = zip(*rows)
    meta = om.RctMeta(scenario=scenario.name, seed=None, n=len(rows), gen="manual")
    return om.RctDataset(xs=xs, yhats=yhats, ys=ys, meta=meta)


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
        for label in ("-1", "+1"):
            assert abs(sum(1 for v in d.yhats if v == label) / n - 0.5) < 0.01
            assert abs(sum(1 for v in d.xs if v == label) / n - 0.5) < 0.01
        aligned = [(x, yh, y) for x, yh, y in zip(d.xs, d.yhats, d.ys) if x == yh]
        rate = sum(1 for _, _, y in aligned if y == 1) / len(aligned)
        assert abs(rate - 0.75) < 0.01

    def test_respects_input_distribution(self):
        rng = np.random.default_rng(17)
        sc = random_scenario(rng, max_x=5)
        d = om.generate_rct(sc, 80000, 3)
        for x, mass in sc.input_distribution.probabilities.items():
            freq = sum(1 for v in d.xs if v == x) / d.n
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
        assert s.xs == d.xs[10:30]
        assert s.meta.seed == 9 and s.meta.gen == om.GENERATOR_TAG


class TestIpsEstimate:
    def test_no_matching_samples_gives_zero(self, beta_scenario):
        rows = [("+1", "+1", 1), ("-1", "-1", 0), ("+1", "+1", 0)]
        d = manual_dataset(beta_scenario, rows)
        h_minus = beta_scenario.hypothesis_by_name("h_minus")
        loss = beta_scenario.loss_by_name("steer_to_one")
        assert om.ips_risk_estimate(d, h_minus, loss, 2) == 0.0

    def test_two_sample_hand_value(self, beta_scenario):
        # h_plus matches only the first sample, whose realized loss is 1
        rows = [("+1", "+1", 0), ("-1", "+1", 1)]
        d = manual_dataset(beta_scenario, rows)
        h_plus = beta_scenario.hypothesis_by_name("h_plus")
        loss = beta_scenario.loss_by_name("steer_to_one")
        assert om.ips_risk_estimate(d, h_plus, loss, 2) == 1.0

    def test_empty_dataset_rejected(self, beta_scenario):
        meta = om.RctMeta(scenario="beta-0.25", seed=None, n=0, gen="")
        d = om.RctDataset(xs=(), yhats=(), ys=(), meta=meta)
        h = beta_scenario.hypotheses[0]
        with pytest.raises(om.ArgumentError):
            om.ips_risk_estimate(d, h, beta_scenario.losses[0], 2)

    def test_population_dataset_recovers_exact_risk(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sc, data, _ = dyadic_scenario_and_data(rng)
            for h in sc.hypotheses:
                for loss in sc.losses:
                    est = om.ips_risk_estimate(data, h, loss, sc.k)
                    true = om.performative_risk_exact(
                        h, sc.nature.table, loss, sc.input_distribution)
                    assert est == pytest.approx(true, abs=1e-12)

    def test_unbiased_over_repeated_draws(self, beta_scenario):
        sc = beta_scenario
        h = sc.hypothesis_by_name("h_plus")
        loss = sc.loss_by_name("steer_to_one")
        true = om.performative_risk_exact(h, sc.nature.table, loss, sc.input_distribution)
        trials = 2000
        vals = [
            om.ips_risk_estimate(om.generate_rct(sc, 50, seed), h, loss, sc.k)
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
                est = om.ips_risk_estimate(d, h, sc.losses[0], sc.k)
                assert 0.0 <= est <= sc.k * 1.0 + 1e-12


class TestModelRiskEstimate:
    def test_flat_predictor_on_beta(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        h = beta_scenario.hypothesis_by_name("h_plus")
        loss = beta_scenario.loss_by_name("steer_to_one")
        est = om.model_risk_estimate(["+1", "-1", "+1"], pred, h, loss, beta_scenario)
        assert est == pytest.approx(0.5, abs=1e-15)

    def test_truth_matrix_on_balanced_features(self, beta_scenario, beta_nature_matrix):
        sc = beta_scenario
        for h in sc.hypotheses:
            for loss in sc.losses:
                est = om.model_risk_estimate(
                    ["-1", "+1"], beta_nature_matrix, h, loss, sc)
                true = om.performative_risk_exact(
                    h, sc.nature.table, loss, sc.input_distribution)
                assert est == pytest.approx(true, abs=1e-12)

    def test_single_feature(self, beta_scenario, beta_nature_matrix):
        h = beta_scenario.hypothesis_by_name("h_plus")
        loss = beta_scenario.loss_by_name("steer_to_one")
        est = om.model_risk_estimate(["+1"], beta_nature_matrix, h, loss, beta_scenario)
        assert est == pytest.approx(0.25, abs=1e-15)

    def test_empty_features_rejected(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        h = beta_scenario.hypotheses[0]
        with pytest.raises(om.ArgumentError):
            om.model_risk_estimate([], pred, h, beta_scenario.losses[0], beta_scenario)


def ips_reference(data, h, loss, k):
    """The per-sample loop the array kernel replaced, kept as reference."""
    if data.n == 0:
        raise om.ArgumentError("cannot estimate risk from an empty dataset")
    total = []
    for x, yh, y in zip(data.xs, data.yhats, data.ys):
        if h.decide(x) == yh:
            total.append(loss.values(x, yh, y))
    return (k / data.n) * math.fsum(total)


def model_risk_reference(xs, pred, rule, loss, scenario):
    """Per-sample index remapping, as before the features were encoded."""
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
    """The gathers over encoded columns give the loops' results bit for bit."""

    def test_ips_on_partial_data_and_slices(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            sc = random_scenario(rng)
            data, unlogged = partial_trial_data(rng, sc, int(rng.integers(1, 400)))
            a = int(rng.integers(0, data.n))
            b = int(rng.integers(a + 1, data.n + 1))
            part = data.slice(a, b)
            for d in (data, part, part.slice(0, max(1, (b - a) // 2))):
                for h in rules_to_check(sc, unlogged):
                    for loss in sc.losses:
                        got = om.ips_risk_estimate(d, h, loss, sc.k)
                        assert got == ips_reference(d, h, loss, sc.k)

    def test_rule_on_unlogged_decision_gives_zero(self):
        rng = np.random.default_rng(103)
        sc = random_scenario(rng)
        data, unlogged = partial_trial_data(rng, sc, 300)
        always = rules_to_check(sc, unlogged)[-1]
        assert om.ips_risk_estimate(data, always, sc.losses[0], sc.k) == 0.0

    def test_ips_on_generated_data(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            sc = random_scenario(rng)
            data = om.generate_rct(sc, 500, int(rng.integers(0, 1000)))
            for h in sc.hypotheses:
                for loss in sc.losses:
                    assert (om.ips_risk_estimate(data, h, loss, sc.k)
                            == ips_reference(data, h, loss, sc.k))

    def test_model_risk_on_list_tuple_column_and_slice(self):
        rng = np.random.default_rng(109)
        for _ in range(15):
            sc = random_scenario(rng)
            q = random_matrix(rng, sc)
            data, unlogged = partial_trial_data(rng, sc, int(rng.integers(1, 400)))
            part = data.slice(0, max(1, data.n // 3))
            for h in rules_to_check(sc, unlogged):
                for loss in sc.losses:
                    for xs in (data.xs, part.xs):
                        want = model_risk_reference(xs, q, h, loss, sc)
                        assert om.model_risk_estimate(xs, q, h, loss, sc) == want
                        assert om.model_risk_estimate(
                            list(xs), q, h, loss, sc) == want
                        assert om.model_risk_estimate(
                            tuple(xs), q, h, loss, sc) == want

    def test_slices_share_the_parent_codes(self, beta_scenario):
        d = om.generate_rct(beta_scenario, 100, 4)
        s = d.slice(10, 30)
        assert np.shares_memory(s.xs.codes[1], d.xs.codes[1])
        assert np.shares_memory(s.yhats.codes[1], d.yhats.codes[1])
        assert np.shares_memory(s.outcomes, d.outcomes)
        assert s.outcomes.tolist() == list(d.ys[10:30])

    def test_empty_inputs_rejected(self, beta_scenario):
        sc = beta_scenario
        h, loss = sc.hypotheses[0], sc.losses[0]
        empty = om.generate_rct(sc, 50, 0).slice(20, 20)
        assert empty.n == 0
        with pytest.raises(om.ArgumentError):
            om.ips_risk_estimate(empty, h, loss, sc.k)
        pred = om.base_predictor(sc, 0.05)
        for xs in ([], (), empty.xs):
            with pytest.raises(om.ArgumentError):
                om.model_risk_estimate(xs, pred, h, loss, sc)


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
        assert d.n == 2 and d.ys == (0, 1)
        assert d.meta.scenario == "beta-0.25"

    def test_augmented_scenario_reads_base_data(self, tmp_path):
        base = om.load_scenario(
            Path(__file__).resolve().parent.parent / "scenarios"
            / "beta025_weights.json")
        d = om.generate_rct(base, 20, 3)
        path = tmp_path / "trial.jsonl"
        om.write_jsonl(d, path)
        assert om.read_jsonl(path, om.augment_scenario(base)) == d

    def test_empty_file_gives_empty_dataset(self, beta_scenario, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        d = om.read_jsonl(path, beta_scenario)
        assert d.n == 0
        with pytest.raises(om.ArgumentError):
            om.ips_risk_estimate(d, beta_scenario.hypotheses[0],
                                 beta_scenario.losses[0], 2)

"""Scenario model, closed-form risks, and optimal rules."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omnipredict as om

from conftest import all_rules, random_scenario


def beta_loss(scenario, name):
    return next(l for l in scenario.losses if l.name == name)


def hyp(scenario, name):
    return next(h for h in scenario.hypotheses if h.name == name)


class TestExpectedLossGiven:
    def test_three_quarters_mix(self, beta_scenario):
        loss = beta_loss(beta_scenario, "steer_to_one")
        # l(y=0)=1, l(y=1)=0; at p=0.75 the mix is 0.25 * 1
        assert om.expected_loss_given("+1", "+1", 0.75, loss) == pytest.approx(0.25, abs=1e-15)

    def test_degenerate_outcome(self, beta_scenario):
        loss = beta_loss(beta_scenario, "steer_to_one")
        assert om.expected_loss_given("+1", "+1", 0.0, loss) == 1.0
        assert om.expected_loss_given("+1", "+1", 1.0, loss) == 0.0

    def test_even_mix(self):
        feats = om.FeatureSpace(points=("a",))
        decs = om.DecisionSpace(labels=("d",))
        loss = om.Loss(name="m", lmax=1.0,
                       table={"a": {"d": (0.2, 0.8)}}, input_oblivious=False)
        assert om.expected_loss_given("a", "d", 0.5, loss) == pytest.approx(0.5, abs=1e-15)

    @given(l0=st.floats(0, 1), l1=st.floats(0, 1), p=st.floats(0, 1))
    def test_within_hull(self, l0, l1, p):
        feats = om.FeatureSpace(points=("a",))
        loss = om.Loss(name="m", lmax=1.0,
                       table={"a": {"d": (l0, l1)}}, input_oblivious=False)
        v = om.expected_loss_given("a", "d", p, loss)
        assert min(l0, l1) - 1e-12 <= v <= max(l0, l1) + 1e-12
        # linear interpolation between the two outcome values
        assert v == pytest.approx(l0 + (l1 - l0) * p, abs=1e-12)


class TestPerformativeRisk:
    def test_beta_copy_rule(self, beta_scenario):
        sc = beta_scenario
        r = om.performative_risk_exact(
            hyp(sc, "h_plus"), sc.nature.table, beta_loss(sc, "steer_to_one"),
            sc.input_distribution)
        assert r == pytest.approx(0.25, abs=1e-15)

    def test_beta_negate_rule_other_loss(self):
        sc = om.make_beta_scenario(0.1)
        r = om.performative_risk_exact(
            hyp(sc, "h_minus"), sc.nature.table, beta_loss(sc, "steer_to_zero"),
            sc.input_distribution)
        assert r == pytest.approx(0.4, abs=1e-12)

    def test_constant_loss(self, beta_scenario):
        sc = beta_scenario
        loss = om.Loss(name="const", lmax=1.0,
                       table={x: {y: (0.7, 0.7) for y in sc.decisions.labels}
                              for x in sc.features.points},
                       input_oblivious=True)
        for h in sc.hypotheses:
            r = om.performative_risk_exact(h, sc.nature.table, loss, sc.input_distribution)
            assert r == pytest.approx(0.7, abs=1e-15)

    def test_copy_rule_risk_formula_for_all_beta(self):
        for beta in (0.05, 0.1, 0.25, 0.4, 0.49):
            sc = om.make_beta_scenario(beta)
            r = om.performative_risk_exact(
                hyp(sc, "h_plus"), sc.nature.table, beta_loss(sc, "steer_to_one"),
                sc.input_distribution)
            assert r == pytest.approx(0.5 - beta, abs=1e-12)

    def test_missing_model_entry_names_pair(self, beta_scenario):
        sc = beta_scenario
        partial = {x: dict(row) for x, row in sc.nature.table.items()}
        del partial["+1"]["-1"]
        with pytest.raises(om.ConfigurationError) as exc:
            om.performative_risk_exact(
                hyp(sc, "h_minus"), partial, beta_loss(sc, "steer_to_one"),
                sc.input_distribution)
        assert "+1" in str(exc.value) and "-1" in str(exc.value)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sc = random_scenario(rng)
            h = sc.hypotheses[0]
            loss = sc.losses[0]
            want = math.fsum(
                sc.input_distribution.probabilities[x]
                * om.expected_loss_given(
                    x, h.mapping[x], sc.nature.table[x][h.mapping[x]], loss)
                for x in sc.features.points
            )
            got = om.performative_risk_exact(h, sc.nature.table, loss, sc.input_distribution)
            assert got == pytest.approx(want, abs=1e-12)


class TestOptimalRule:
    def test_beta_optimal_copies(self, beta_scenario):
        sc = beta_scenario
        rule = om.optimal_rule_from_model(
            sc.nature.table, beta_loss(sc, "steer_to_one"), sc.decisions)
        assert rule.mapping == {"-1": "-1", "+1": "+1"}

    def test_beta_optimal_negates(self, beta_scenario):
        sc = beta_scenario
        rule = om.optimal_rule_from_model(
            sc.nature.table, beta_loss(sc, "steer_to_zero"), sc.decisions)
        assert rule.mapping == {"-1": "+1", "+1": "-1"}

    def test_tie_takes_first_label(self, beta_scenario):
        sc = beta_scenario
        flat = {x: {y: 0.5 for y in sc.decisions.labels} for x in sc.features.points}
        rule = om.optimal_rule_from_model(flat, beta_loss(sc, "steer_to_one"), sc.decisions)
        first = sc.decisions.labels[0]
        assert all(v == first for v in rule.mapping.values())

    def test_dominates_every_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            sc = random_scenario(rng, max_x=3, max_k=3)
            if len(sc.features.points) * sc.k > 12:
                continue
            for loss in sc.losses:
                best = om.optimal_rule_from_model(sc.nature.table, loss, sc.decisions)
                best_risk = om.performative_risk_exact(
                    best, sc.nature.table, loss, sc.input_distribution)
                for rule in all_rules(sc):
                    r = om.performative_risk_exact(
                        rule, sc.nature.table, loss, sc.input_distribution)
                    assert best_risk <= r + 1e-12

    def test_invariant_under_scaling_and_feature_shift(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            sc = random_scenario(rng)
            loss = sc.losses[0]
            shift = {x: float(rng.random()) for x in sc.features.points}
            table = {
                x: {y: (3.0 * v0 + shift[x], 3.0 * v1 + shift[x])
                    for y, (v0, v1) in row.items()}
                for x, row in loss.table.items()
            }
            scaled = om.Loss(name="scaled", lmax=4.0, table=table, input_oblivious=False)
            a = om.optimal_rule_from_model(sc.nature.table, loss, sc.decisions)
            b = om.optimal_rule_from_model(sc.nature.table, scaled, sc.decisions)
            assert a.mapping == b.mapping


class TestBetaScenario:
    def test_nature_values(self, beta_scenario):
        t = beta_scenario.nature.table
        assert t["+1"]["+1"] == pytest.approx(0.75, abs=1e-15)
        assert t["+1"]["-1"] == pytest.approx(0.25, abs=1e-15)
        assert t["-1"]["-1"] == pytest.approx(0.75, abs=1e-15)
        assert t["-1"]["+1"] == pytest.approx(0.25, abs=1e-15)

    def test_antisymmetry(self):
        sc = om.make_beta_scenario(0.1)
        for x in sc.features.points:
            vals = [sc.nature.table[x][y] for y in sc.decisions.labels]
            assert sum(vals) == pytest.approx(1.0, abs=1e-15)

    def test_spaces_and_losses(self, beta_scenario):
        sc = beta_scenario
        assert set(sc.features.points) == {"-1", "+1"}
        assert set(sc.decisions.labels) == {"-1", "+1"}
        assert {l.name for l in sc.losses} == {"steer_to_one", "steer_to_zero"}
        assert {h.name for h in sc.hypotheses} == {"h_plus", "h_minus"}
        assert sc.input_distribution.probabilities["+1"] == 0.5

    @pytest.mark.parametrize("beta", [0.0, 0.5, -0.1, 0.75])
    def test_range_rejected(self, beta):
        with pytest.raises(om.ArgumentError):
            om.make_beta_scenario(beta)


class TestLossHelpers:
    def test_squared_forecast_values(self, beta_scenario):
        sc = beta_scenario
        loss = om.builtin_loss("squared_forecast", sc.features, om.DecisionSpace(labels=("0.0", "0.5", "1.0")))
        for x in sc.features.points:
            for label in ("0.0", "0.5", "1.0"):
                v = float(label)
                assert loss.values(x, label, 0) == pytest.approx(v * v, abs=1e-15)
                assert loss.values(x, label, 1) == pytest.approx((v - 1.0) ** 2, abs=1e-15)
        assert loss.input_oblivious

    def test_builtin_unknown_kind(self, beta_scenario):
        sc = beta_scenario
        with pytest.raises(om.ConfigurationError):
            om.builtin_loss("nope", sc.features, sc.decisions)

    def test_io_flag_inferred_from_table(self, beta_scenario):
        sc = beta_scenario
        for l in sc.losses:
            assert l.input_oblivious
        skew = om.Loss(name="skew", lmax=1.0,
                       table={"-1": {"-1": (0.0, 0.0), "+1": (0.0, 0.0)},
                              "+1": {"-1": (1.0, 1.0), "+1": (0.0, 0.0)}},
                       input_oblivious=False)
        assert not skew.input_oblivious


class TestScenarioSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        sc = random_scenario(rng)
        doc = om.scenario_to_dict(sc)
        back = om.scenario_from_dict(json.loads(json.dumps(doc)))
        assert back == sc

    def test_round_trip_with_weights(self, tmp_path):
        sc = om.load_scenario("scenarios/beta025_weights.json")
        assert sc.weights is not None
        assert {w.name for w in sc.weights.weights} == {"uniform", "focus_minus", "focus_plus"}
        p = tmp_path / "again.json"
        p.write_text(json.dumps(om.scenario_to_dict(sc)))
        assert om.load_scenario(p) == sc

    def test_load_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(om.ConfigurationError):
            om.load_scenario(p)

    def test_load_missing_section(self, tmp_path):
        doc = om.scenario_to_dict(om.make_beta_scenario(0.25))
        del doc["nature"]
        p = tmp_path / "partial.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(om.ConfigurationError):
            om.load_scenario(p)


class TestValidation:
    def _base(self):
        feats = om.FeatureSpace(points=("a", "b"))
        decs = om.DecisionSpace(labels=("d0", "d1"))
        return dict(
            name="t",
            features=feats,
            decisions=decs,
            input_distribution=om.InputDistribution(probabilities={"a": 0.5, "b": 0.5}),
            nature=om.NatureModel(table={x: {y: 0.5 for y in decs.labels} for x in feats.points}),
            losses=(om.builtin_loss("steer_to_one", feats, decs),),
            hypotheses=(om.Hypothesis(name="h", mapping={"a": "d0", "b": "d1"}),),
            epsilon=0.1,
        )

    def test_missing_nature_entry_names_pair(self):
        kw = self._base()
        kw["nature"] = om.NatureModel(table={"a": {"d0": 0.5, "d1": 0.5}, "b": {"d0": 0.5}})
        with pytest.raises(om.ConfigurationError) as exc:
            om.Scenario(**kw)
        assert "'b'" in str(exc.value) and "'d1'" in str(exc.value)

    def test_nature_probability_range(self):
        kw = self._base()
        kw["nature"] = om.NatureModel(table={"a": {"d0": 1.5, "d1": 0.5},
                                             "b": {"d0": 0.5, "d1": 0.5}})
        with pytest.raises(om.ConfigurationError):
            om.Scenario(**kw)

    def test_distribution_mass(self):
        kw = self._base()
        kw["input_distribution"] = om.InputDistribution(probabilities={"a": 0.5, "b": 0.6})
        with pytest.raises(om.ConfigurationError):
            om.Scenario(**kw)
        for masses in ({"a": -0.2, "b": 1.2}, {"a": math.nan, "b": 0.5},
                       {"a": math.inf, "b": 0.5}):
            kw["input_distribution"] = om.InputDistribution(probabilities=masses)
            with pytest.raises(om.ConfigurationError):
                om.Scenario(**kw)

    def test_loss_value_outside_bound(self):
        kw = self._base()
        feats, decs = kw["features"], kw["decisions"]
        kw["losses"] = (om.Loss(name="big", lmax=1.0,
                                table={x: {y: (2.0, 0.0) for y in decs.labels}
                                       for x in feats.points},
                                input_oblivious=False),)
        with pytest.raises(om.ConfigurationError) as exc:
            om.Scenario(**kw)
        assert "big" in str(exc.value)

    def test_loss_bound_positive_finite(self):
        kw = self._base()
        feats, decs = kw["features"], kw["decisions"]
        for lmax in (0.0, math.inf, math.nan):
            kw["losses"] = (om.Loss(name="unbounded", lmax=lmax,
                                    table={x: {y: (1.0, 0.0) for y in decs.labels}
                                           for x in feats.points},
                                    input_oblivious=False),)
            with pytest.raises(om.ConfigurationError) as exc:
                om.Scenario(**kw)
            assert "unbounded" in str(exc.value)

    def test_negative_loss_value(self):
        kw = self._base()
        feats, decs = kw["features"], kw["decisions"]
        kw["losses"] = (om.Loss(name="neg", lmax=1.0,
                                table={x: {y: (-0.1, 0.0) for y in decs.labels}
                                       for x in feats.points},
                                input_oblivious=False),)
        with pytest.raises(om.ConfigurationError):
            om.Scenario(**kw)

    def test_hypothesis_unknown_decision(self):
        kw = self._base()
        kw["hypotheses"] = (om.Hypothesis(name="h", mapping={"a": "zzz", "b": "d1"}),)
        with pytest.raises(om.ConfigurationError) as exc:
            om.Scenario(**kw)
        assert "zzz" in str(exc.value)

    def test_hypothesis_missing_feature(self):
        kw = self._base()
        kw["hypotheses"] = (om.Hypothesis(name="h", mapping={"a": "d0"}),)
        with pytest.raises(om.ConfigurationError):
            om.Scenario(**kw)

    def test_duplicate_names_rejected(self):
        kw = self._base()
        kw["losses"] = kw["losses"] * 2
        with pytest.raises(om.ConfigurationError):
            om.Scenario(**kw)
        with pytest.raises(om.ConfigurationError):
            om.DecisionSpace(labels=("d0", "d0"))
        with pytest.raises(om.ConfigurationError):
            om.FeatureSpace(points=("a", "a"))

    def test_epsilon_positive(self):
        kw = self._base()
        for eps in (0.0, -0.1, math.nan, math.inf):
            kw["epsilon"] = eps
            with pytest.raises(om.ConfigurationError):
                om.Scenario(**kw)

    def test_weight_function_invariants(self):
        kw = self._base()
        kw["weights"] = om.WeightClass(weights=(
            om.WeightFunction(name="w", mapping={"a": 0.5, "b": 1.6}, wmax=2.0),))
        with pytest.raises(om.WeightInvariantError):
            om.Scenario(**kw)
        for wmax in (1.0, math.inf, math.nan):
            kw["weights"] = om.WeightClass(weights=(
                om.WeightFunction(name="w", mapping={"a": 0.5, "b": 1.5},
                                  wmax=wmax),))
            with pytest.raises(om.WeightInvariantError):
                om.Scenario(**kw)
        kw["weights"] = om.WeightClass(weights=(
            om.WeightFunction(name="w", mapping={"a": 0.5, "b": 1.5}, wmax=2.0),))
        om.Scenario(**kw)  # valid: mean 1 under the distribution, inside [0, wmax]

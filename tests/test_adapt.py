"""Weight shifts, loss augmentation, and the adaptability verifier."""

import dataclasses
import math

import numpy as np
import pytest

import omnipredict as om
from omnipredict import adapt

from conftest import random_scenario


@pytest.fixture(scope="module")
def weighted_scenario():
    return om.load_scenario("scenarios/beta025_weights.json")


@pytest.fixture(scope="module")
def adapt_model(weighted_scenario):
    wide = om.augment_scenario(weighted_scenario)
    res = om.poi_boost(wide, om.BoostConfig(epsilon=0.05, adapt=True))
    assert res.termination == "converged"
    return res.predictor


def unit_weight(scenario, wmax=1.0):
    return om.WeightFunction(
        name="unit", mapping={x: 1.0 for x in scenario.features.points}, wmax=wmax)


class TestAugmentLosses:
    def test_identity_weight_preserves_values(self, beta_scenario):
        w = om.WeightClass(weights=(unit_weight(beta_scenario),))
        out = om.augment_losses(beta_scenario.losses, w)
        for orig, aug in zip(beta_scenario.losses, out):
            assert aug.name == f"{orig.name}@unit"
            assert aug.lmax == orig.lmax
            assert aug.table == orig.table
            assert aug.input_oblivious is orig.input_oblivious

    def test_count_and_order(self, weighted_scenario):
        sc = weighted_scenario
        out = om.augment_losses(sc.losses, sc.weights)
        assert [l.name for l in out] == [
            "steer_to_one@uniform", "steer_to_one@focus_minus",
            "steer_to_one@focus_plus", "steer_to_zero@uniform",
            "steer_to_zero@focus_minus", "steer_to_zero@focus_plus",
        ]
        assert all(l.lmax == 2.0 for l in out)  # lmax 1 times class wmax 2

    def test_pointwise_rescaling(self, beta_scenario):
        w15 = om.WeightFunction(name="tilt", mapping={"-1": 0.5, "+1": 1.5}, wmax=2.0)
        cls = om.WeightClass(weights=(w15,))
        out = om.augment_losses(beta_scenario.losses, cls)
        steer = next(l for l in out if l.name == "steer_to_one@tilt")
        assert steer.values("+1", "+1", 0) == 1.5
        assert steer.values("+1", "+1", 1) == 0.0
        assert steer.values("-1", "+1", 0) == 0.5

    def test_augment_scenario(self, weighted_scenario):
        wide = om.augment_scenario(weighted_scenario)
        assert len(wide.losses) == 6
        assert wide.hypotheses == weighted_scenario.hypotheses
        assert wide.lmax == 2.0

    def test_augment_needs_weights(self, beta_scenario):
        with pytest.raises(om.ConfigurationError):
            om.augment_scenario(beta_scenario)


class TestShiftedDistributions:
    def test_identity_shift(self, beta_scenario):
        d = om.shift_distribution(beta_scenario.input_distribution,
                                  unit_weight(beta_scenario))
        assert d.probabilities == beta_scenario.input_distribution.probabilities

    def test_reweighted_masses(self, beta_scenario):
        w = om.WeightFunction(name="tilt", mapping={"-1": 0.5, "+1": 1.5}, wmax=2.0)
        d = om.shift_distribution(beta_scenario.input_distribution, w)
        assert d.probabilities["-1"] == pytest.approx(0.25, abs=1e-15)
        assert d.probabilities["+1"] == pytest.approx(0.75, abs=1e-15)

    def test_zero_weight_removes_support(self, beta_scenario):
        w = om.WeightFunction(name="half", mapping={"-1": 2.0, "+1": 0.0}, wmax=2.0)
        d = om.shift_distribution(beta_scenario.input_distribution, w)
        assert d.probabilities["+1"] == 0.0
        assert d.probabilities["-1"] == pytest.approx(1.0, abs=1e-15)

    def test_non_unit_mass_rejected(self, beta_scenario):
        w = om.WeightFunction(name="heavy", mapping={"-1": 1.0, "+1": 1.5}, wmax=2.0)
        with pytest.raises(om.WeightInvariantError):
            om.shift_distribution(beta_scenario.input_distribution, w)

    def test_reweighting_identity(self):
        rng = np.random.default_rng(139)
        for _ in range(10):
            sc = random_scenario(rng)
            pts = sc.features.points
            dist = sc.input_distribution
            raw = rng.random(len(pts)) + 0.05
            # normalize to unit mean under the distribution
            mean = math.fsum(dist.probabilities[x] * raw[i]
                             for i, x in enumerate(pts))
            w = om.WeightFunction(
                name="w", mapping={x: float(raw[i] / mean) for i, x in enumerate(pts)},
                wmax=float(raw.max() / mean) + 1e-9)
            shifted = om.shift_distribution(dist, w)
            g = rng.random(len(pts))
            lhs = math.fsum(dist.probabilities[x] * w.weight(x) * g[i]
                            for i, x in enumerate(pts))
            rhs = math.fsum(shifted.probabilities[x] * g[i]
                            for i, x in enumerate(pts))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMixtures:
    def test_single_component(self, weighted_scenario):
        sc = weighted_scenario
        spec = om.MixtureSpec(components=(("focus_minus", 1.0),))
        d = om.mixture_distribution(sc.input_distribution, sc.weights, spec)
        want = om.shift_distribution(
            sc.input_distribution, sc.weights.by_name("focus_minus"))
        for x in sc.features.points:
            assert d.probabilities[x] == pytest.approx(want.probabilities[x], abs=1e-15)

    def test_even_mixture_of_opposite_tilts(self, weighted_scenario):
        sc = weighted_scenario
        spec = om.MixtureSpec(components=(("focus_minus", 0.5), ("focus_plus", 0.5)))
        d = om.mixture_distribution(sc.input_distribution, sc.weights, spec)
        assert d.probabilities["-1"] == pytest.approx(0.5, abs=1e-15)
        assert d.probabilities["+1"] == pytest.approx(0.5, abs=1e-15)

    def test_validation(self):
        with pytest.raises(om.ArgumentError):
            om.MixtureSpec(components=())
        with pytest.raises(om.ArgumentError):
            om.MixtureSpec(components=(("a", 0.7), ("b", 0.4)))
        with pytest.raises(om.ArgumentError):
            om.MixtureSpec(components=(("a", -0.2), ("b", 1.2)))
        with pytest.raises(om.ArgumentError):
            om.MixtureSpec(components=(("a", math.nan), ("b", 1.0)))
        with pytest.raises(om.ArgumentError):
            om.MixtureSpec(components=("uniform", "focus_minus"))

    def test_unknown_component_name(self, weighted_scenario):
        sc = weighted_scenario
        spec = om.MixtureSpec(components=(("nope", 1.0),))
        with pytest.raises(om.ArgumentError):
            om.mixture_distribution(sc.input_distribution, sc.weights, spec)


class TestVerifier:
    def test_trained_adapt_model_passes(self, weighted_scenario, adapt_model):
        rep = om.verify_universal_adaptability(adapt_model, weighted_scenario, 0.05)
        assert rep.passed
        assert len(rep.checks) == 13  # three weight shifts plus ten mixtures
        names = [c.name for c in rep.checks]
        assert names[:3] == ["weight:uniform", "weight:focus_minus",
                             "weight:focus_plus"]
        assert all(n.startswith("mixture:") for n in names[3:])
        for check in rep.checks:
            assert check.passed and check.worst_slack <= 2 * 0.05 + 1e-12

    def test_component_pass_extends_to_mixtures(self, weighted_scenario, adapt_model):
        rep = om.verify_universal_adaptability(
            adapt_model, weighted_scenario, 0.05, n_mixtures=25, seed=4)
        weight_checks = [c for c in rep.checks if c.name.startswith("weight:")]
        mixture_checks = [c for c in rep.checks if c.name.startswith("mixture:")]
        assert len(mixture_checks) == 25
        if all(c.passed for c in weight_checks):
            assert all(c.passed for c in mixture_checks)

    def test_flat_model_fails(self, weighted_scenario):
        pred = om.base_predictor(weighted_scenario, 0.05)
        rep = om.verify_universal_adaptability(pred, weighted_scenario, 0.05)
        assert not rep.passed
        failing = [c for c in rep.checks if not c.passed]
        assert failing
        assert max(c.worst_slack for c in failing) > 0.1

    def test_per_loss_rows_are_risks(self, weighted_scenario, adapt_model):
        rep = om.verify_universal_adaptability(adapt_model, weighted_scenario, 0.05)
        sc = weighted_scenario
        matrix = om.prediction_matrix(adapt_model, om.augment_scenario(sc))
        check = rep.checks[0]  # weight:uniform leaves the distribution alone
        for loss_name, risk, best in check.per_loss:
            loss = sc.loss_by_name(loss_name)
            rule = om.induced_rule(matrix, loss, sc)
            want = om.performative_risk_exact(
                rule, sc.nature.table, loss, sc.input_distribution)
            assert risk == want
            want_best = min(
                om.performative_risk_exact(h, sc.nature.table, loss,
                                           sc.input_distribution)
                for h in sc.hypotheses)
            assert best == want_best

    def test_optimality_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(2210)
        for _ in range(10):
            sc = random_scenario(rng, n_hyps=(1, 4))
            n = len(sc.features.points)
            matrix = rng.random((n, sc.k))
            rules = sc.hypotheses + tuple(
                om.induced_rule(matrix, loss, sc) for loss in sc.losses)
            names, terms = adapt.rule_terms(matrix, sc)
            assert names == tuple(r.name for r in rules)
            # a zero mass drops its feature, as the reference skips it
            masses = rng.random(n) * (rng.random(n) < 0.7)
            masses[0] += 0.1
            dist = om.InputDistribution(probabilities=dict(
                zip(sc.features.points, (masses / masses.sum()).tolist())))
            eps = float(rng.uniform(0.0, 0.2))
            risks, best, slack, passed = adapt.optimality(terms, sc, dist, eps)
            h = len(sc.hypotheses)
            for j, loss in enumerate(sc.losses):
                assert risks[j] == [om.performative_risk_exact(
                    rule, sc.nature, loss, dist) for rule in rules]
                assert best[j] == min(risks[j][:h])
                assert slack[j] == risks[j][h + j] - best[j]
                assert passed[j] == (slack[j] <= 2 * eps + 1e-12)

    def test_identity_class_reduces_to_plain_check(self, beta_scenario):
        sc = dataclasses.replace(
            beta_scenario,
            weights=om.WeightClass(weights=(unit_weight(beta_scenario),)))
        trained = om.poi_boost(sc, om.BoostConfig(epsilon=0.05)).predictor
        rep = om.verify_universal_adaptability(trained, sc, 0.05, n_mixtures=2)
        assert rep.passed
        flat = om.base_predictor(sc, 0.05)
        rep2 = om.verify_universal_adaptability(flat, sc, 0.05, n_mixtures=2)
        # the flat predictor sends every induced rule to the same constant
        # rule; under steer_to_zero that rule is 0.25 worse than the best,
        # and worst_slack records that raw excess risk
        assert not rep2.passed
        assert rep2.checks[0].worst_slack == pytest.approx(0.25, abs=1e-12)

    def test_mixture_draws_are_seeded(self, weighted_scenario, adapt_model):
        a = om.verify_universal_adaptability(adapt_model, weighted_scenario, 0.05,
                                             seed=11)
        b = om.verify_universal_adaptability(adapt_model, weighted_scenario, 0.05,
                                             seed=11)
        assert a == b

    def test_rejects_negative_seed(self, weighted_scenario, adapt_model):
        with pytest.raises(om.ArgumentError, match="seed"):
            om.verify_universal_adaptability(adapt_model, weighted_scenario, 0.05,
                                             seed=-1)

    def test_needs_weight_class(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        with pytest.raises(om.ConfigurationError):
            om.verify_universal_adaptability(pred, beta_scenario, 0.05)


class TestRuleInvariance:
    def test_trained_model_is_invariant(self, weighted_scenario, adapt_model):
        rep = om.induced_rule_shift_invariance_check(adapt_model, weighted_scenario)
        assert rep.passed and not rep.mismatches

    def test_zero_weight_features_excluded(self, weighted_scenario,
                                           beta_nature_matrix):
        # focus_minus zeroes out x=+1, where the weighted loss degenerates
        # to all ties; disagreement there must not count as a mismatch
        rep = om.induced_rule_shift_invariance_check(
            beta_nature_matrix, weighted_scenario)
        sc = weighted_scenario
        plain = om.induced_rule(beta_nature_matrix,
                                sc.loss_by_name("steer_to_one"), sc)
        assert plain.mapping["+1"] == "+1"
        aug = om.augment_losses(sc.losses, sc.weights)
        tilted = next(l for l in aug if l.name == "steer_to_one@focus_minus")
        shifted_rule = om.induced_rule(beta_nature_matrix, tilted, sc)
        assert shifted_rule.mapping["+1"] == "-1"  # tie falls to first label
        assert not any(x == "+1" and "focus_minus" in name
                       for name, x in rep.mismatches)

    def test_identity_weight_never_mismatches(self, beta_scenario):
        rng = np.random.default_rng(149)
        sc = dataclasses.replace(
            beta_scenario,
            weights=om.WeightClass(weights=(unit_weight(beta_scenario),)))
        for _ in range(5):
            q = rng.random((2, 2))
            rep = om.induced_rule_shift_invariance_check(q, sc)
            assert rep.passed


class TestAugmentedTraining:
    def test_update_bound_uses_augmented_lmax(self, weighted_scenario):
        wide = om.augment_scenario(weighted_scenario)
        res = om.poi_boost(wide, om.BoostConfig(epsilon=0.05, adapt=True))
        assert res.termination == "converged"
        assert om.iteration_bound(2, 2.0, 0.05) == 3200
        assert res.trace.updates <= 3200
        # steps shrink by the squared augmented bound
        assert all(abs(r.eta) == pytest.approx(0.05 / 4.0, abs=1e-15)
                   for r in res.trace.records)


def count_validations(monkeypatch):
    calls = []
    validate = om.Hypothesis.validate

    def counted(self, features, decisions):
        calls.append(self.name)
        return validate(self, features, decisions)

    monkeypatch.setattr(om.Hypothesis, "validate", counted)
    return calls


class TestRuleIndexReuse:
    def test_own_hypotheses_read_their_checked_arrays(
            self, weighted_scenario, monkeypatch):
        sc = weighted_scenario
        calls = count_validations(monkeypatch)
        for h in sc.hypotheses:
            got = sc.arrays.rule_indices(h)
            assert got is sc.arrays.hyp_index[h.name]
        assert calls == []

    def test_foreign_rules_are_matched_by_identity(
            self, weighted_scenario, monkeypatch):
        # an equal rule under the same name is still validated: it is not
        # the object the scenario checked
        sc = weighted_scenario
        own = sc.hypotheses[0]
        twin = om.Hypothesis(name=own.name, mapping=dict(own.mapping))
        impostor = om.Hypothesis(
            name=own.name,
            mapping={x: sc.decisions.labels[-1] for x in sc.features.points})
        calls = count_validations(monkeypatch)
        assert np.array_equal(sc.arrays.rule_indices(twin), sc.arrays.hyp_index[own.name])
        assert np.array_equal(sc.arrays.rule_indices(impostor),
                              np.full(len(sc.features.points), sc.k - 1))
        assert calls == [own.name, own.name]

    def test_rule_terms_validates_only_induced_rules(
            self, weighted_scenario, adapt_model, monkeypatch):
        wide = om.augment_scenario(weighted_scenario)
        matrix = om.prediction_matrix(adapt_model, wide)
        calls = count_validations(monkeypatch)
        names, _ = adapt.rule_terms(matrix, wide)
        assert len(calls) == len(wide.losses)
        assert names[: len(wide.hypotheses)] == tuple(h.name for h in wide.hypotheses)

    def test_model_risk_estimate_reads_own_rules(self, weighted_scenario, monkeypatch):
        sc = weighted_scenario
        xs = sc.features.points * 3
        matrix = np.full((len(sc.features.points), sc.k), 0.5)
        calls = count_validations(monkeypatch)
        for h in sc.hypotheses:
            om.model_risk_estimate(xs, matrix, h, sc.losses[0], sc)
        assert calls == []

"""Scenario model, closed-form risks, and optimal rules."""

import collections
import contextlib
import copy
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import math
import re
import runpy
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omnipredict as om
from omnipredict import cli, core
from omnipredict.core import MASS_TOLERANCE

from conftest import (
    all_rules,
    input_oblivious,
    make_beta_scenario,
    named,
    random_scenario,
    scenario_to_dict,
)

REPO = Path(__file__).resolve().parent.parent


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
                       table={"a": {"d": (0.2, 0.8)}})
        assert om.expected_loss_given("a", "d", 0.5, loss) == pytest.approx(0.5, abs=1e-15)

    @given(l0=st.floats(0, 1), l1=st.floats(0, 1), p=st.floats(0, 1))
    def test_within_hull(self, l0, l1, p):
        feats = om.FeatureSpace(points=("a",))
        loss = om.Loss(name="m", lmax=1.0,
                       table={"a": {"d": (l0, l1)}})
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
        sc = make_beta_scenario(0.1)
        r = om.performative_risk_exact(
            hyp(sc, "h_minus"), sc.nature.table, beta_loss(sc, "steer_to_zero"),
            sc.input_distribution)
        assert r == pytest.approx(0.4, abs=1e-12)

    def test_constant_loss(self, beta_scenario):
        sc = beta_scenario
        loss = om.Loss(name="const", lmax=1.0,
                       table={x: {y: (0.7, 0.7) for y in sc.decisions.labels}
                              for x in sc.features.points})
        for h in sc.hypotheses:
            r = om.performative_risk_exact(h, sc.nature.table, loss, sc.input_distribution)
            assert r == pytest.approx(0.7, abs=1e-15)

    def test_copy_rule_risk_formula_for_all_beta(self):
        for beta in (0.05, 0.1, 0.25, 0.4, 0.49):
            sc = make_beta_scenario(beta)
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
            scaled = om.Loss(name="scaled", lmax=4.0, table=table)
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
        sc = make_beta_scenario(0.1)
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
            make_beta_scenario(beta)


class TestLossHelpers:
    def test_squared_forecast_values(self, beta_scenario):
        sc = beta_scenario
        decisions = om.DecisionSpace(labels=("0.0", "0.5", "1.0"))
        loss = om.builtin_loss("squared_forecast", sc.features, decisions)
        for x in sc.features.points:
            for label in ("0.0", "0.5", "1.0"):
                v = float(label)
                assert loss.values(x, label, 0) == pytest.approx(v * v, abs=1e-15)
                assert loss.values(x, label, 1) == pytest.approx((v - 1.0) ** 2, abs=1e-15)
        assert input_oblivious(loss, sc.features, decisions)

    def test_builtin_unknown_kind(self, beta_scenario):
        sc = beta_scenario
        with pytest.raises(om.ConfigurationError) as exc:
            om.builtin_loss("nope", sc.features, sc.decisions)
        assert str(exc.value) == (
            "unknown builtin loss 'nope'; expected one of "
            "steer_to_one, steer_to_zero, squared_forecast")

    @pytest.mark.parametrize("label, refusal", [
        ("yes", "squared_forecast needs numeric decision labels, got 'yes'"),
        ("1.5", "squared_forecast needs decision labels in [0, 1], got '1.5'"),
        ("nan", "squared_forecast needs decision labels in [0, 1], got 'nan'"),
    ])
    def test_squared_forecast_refuses_labels(self, beta_scenario, label, refusal):
        decisions = om.DecisionSpace(labels=("0.0", label))
        with pytest.raises(om.ConfigurationError) as exc:
            om.builtin_loss("squared_forecast", beta_scenario.features, decisions)
        assert str(exc.value) == refusal

    def test_io_flag_inferred_from_table(self, beta_scenario):
        sc = beta_scenario
        for l in sc.losses:
            assert input_oblivious(l, sc.features, sc.decisions)
        skew = om.Loss(name="skew", lmax=1.0,
                       table={"-1": {"-1": (0.0, 0.0), "+1": (0.0, 0.0)},
                              "+1": {"-1": (1.0, 1.0), "+1": (0.0, 0.0)}})
        assert not input_oblivious(skew, sc.features, sc.decisions)


class TestBuiltinLossArrays:
    """io_loss and builtin_loss build their (|X|, k, 2) array directly and
    hold a view of it, equal to the table of one dict row per feature."""

    FEATURES = om.FeatureSpace(points=("a", "b", "c"))
    DECISIONS = om.DecisionSpace(labels=("0.0", "0.25", "1.0"))

    @staticmethod
    def dict_form(name, lmax, row, features):
        return om.Loss(name, lmax, {x: dict(row) for x in features.points})

    def test_builtin_losses_equal_their_dict_form(self):
        rows = {
            "steer_to_one": {y: (1.0, 0.0) for y in self.DECISIONS.labels},
            "steer_to_zero": {y: (0.0, 1.0) for y in self.DECISIONS.labels},
            "squared_forecast": {y: (float(y) ** 2, (float(y) - 1.0) ** 2)
                                 for y in self.DECISIONS.labels},
        }
        assert tuple(rows) == om.BUILTIN_LOSSES  # so every listed kind is built
        for kind, row in rows.items():
            loss = om.builtin_loss(kind, self.FEATURES, self.DECISIONS)
            assert isinstance(loss.table, core._TableView)
            assert loss.table.array.shape == (3, 3, 2)
            assert loss == self.dict_form(kind, 1.0, row, self.FEATURES)
            assert dict(loss.table) == {x: row for x in self.FEATURES.points}
            assert input_oblivious(loss, self.FEATURES, self.DECISIONS)

    def test_io_loss_equals_its_dict_form(self):
        per = {"1.0": (1, 0.5), "0.0": (0.25, 0), "0.25": (0.0, 1.0)}  # any order
        loss = om.io_loss("io", 2, per, self.FEATURES)
        row = {y: (float(v0), float(v1)) for y, (v0, v1) in per.items()}
        assert loss == self.dict_form("io", 2.0, row, self.FEATURES)
        assert loss.table.labels == tuple(per)

    def test_scenario_equals_its_json_round_trip_and_its_dict_form(self):
        rng = np.random.default_rng(67)
        sc = random_scenario(rng, max_k=3)
        per = {y: (float(a), float(b)) for y, (a, b) in
               zip(sc.decisions.labels, rng.random((sc.k, 2)))}
        losses = (om.builtin_loss("steer_to_one", sc.features, sc.decisions),
                  om.io_loss("io", 1.0, dict(reversed(per.items())), sc.features),
                  om.builtin_loss("steer_to_zero", sc.features, sc.decisions))
        built = dataclasses.replace(sc, losses=losses)
        doc = json.loads(json.dumps(scenario_to_dict(built)))
        assert om.scenario_from_dict(doc) == built
        plain = tuple(
            om.Loss(l.name, l.lmax, {x: dict(row) for x, row in l.table.items()})
            for l in losses)
        assert arrays_digest(dataclasses.replace(sc, losses=plain)) == arrays_digest(built)

    def test_io_loss_over_other_features_names_the_missing_one(self):
        sc = make_beta_scenario(0.25)
        per = {"-1": (0.0, 1.0), "+1": (1.0, 0.0)}
        short = om.io_loss("io", 1.0, per, om.FeatureSpace(points=("-1", "0")))
        with pytest.raises(om.ConfigurationError,
                           match=r"^loss 'io' has no entry for feature '\+1'"):
            dataclasses.replace(sc, losses=sc.losses + (short,))
        wide = om.io_loss("io", 1.0, per, om.FeatureSpace(points=("-1", "+1", "0")))
        with pytest.raises(om.ConfigurationError,
                           match=r"^loss 'io' has an entry for unknown feature '0'$"):
            dataclasses.replace(sc, losses=sc.losses + (wide,))


class TestScenarioSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        sc = random_scenario(rng)
        doc = scenario_to_dict(sc)
        back = om.scenario_from_dict(json.loads(json.dumps(doc)))
        assert back == sc

    def test_round_trip_with_weights(self, tmp_path):
        sc = om.load_scenario("scenarios/beta025_weights.json")
        assert sc.weights is not None
        assert {w.name for w in sc.weights.weights} == {"uniform", "focus_minus", "focus_plus"}
        p = tmp_path / "again.json"
        p.write_text(json.dumps(scenario_to_dict(sc)))
        assert om.load_scenario(p) == sc

    def test_load_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(om.ConfigurationError):
            om.load_scenario(p)

    def test_load_missing_section(self, tmp_path):
        doc = scenario_to_dict(make_beta_scenario(0.25))
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
                                       for x in feats.points}),)
        with pytest.raises(om.ConfigurationError) as exc:
            om.Scenario(**kw)
        assert "big" in str(exc.value)

    def test_loss_bound_positive_finite(self):
        kw = self._base()
        feats, decs = kw["features"], kw["decisions"]
        for lmax in (0.0, math.inf, math.nan):
            kw["losses"] = (om.Loss(name="unbounded", lmax=lmax,
                                    table={x: {y: (1.0, 0.0) for y in decs.labels}
                                           for x in feats.points}),)
            with pytest.raises(om.ConfigurationError) as exc:
                om.Scenario(**kw)
            assert "unbounded" in str(exc.value)

    def test_negative_loss_value(self):
        kw = self._base()
        feats, decs = kw["features"], kw["decisions"]
        kw["losses"] = (om.Loss(name="neg", lmax=1.0,
                                table={x: {y: (-0.1, 0.0) for y in decs.labels}
                                       for x in feats.points}),)
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


# The per-cell validation loops a scenario ran before it checked arrays,
# with their accessors inlined: the reference for the vectorized checks.
def reference_distribution(dist, features):
    points = set(features.points)
    for x in dist.probabilities:
        if x not in points:
            raise om.ConfigurationError(
                f"input distribution assigns mass to unknown feature {x!r}"
            )
    masses = [float(v) for v in dist.probabilities.values()]
    if not all(math.isfinite(m) and m >= 0 for m in masses):
        raise om.ConfigurationError(
            "input distribution has a negative or non-finite mass"
        )
    total = math.fsum(masses)
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise om.ConfigurationError(
            f"input distribution masses sum to {total!r}, expected 1"
        )


def reference_unknown_keys(table, what, features, decisions=None):
    """Refuse the first key that is no feature, then, row by row in
    canonical order, the first that is no decision."""
    for x in table:
        if x not in features.points:
            raise om.ConfigurationError(f"{what} has an entry for unknown feature {x!r}")
    for x in features.points if decisions is not None else ():
        for yhat in table[x]:
            if yhat not in decisions.labels:
                raise om.ConfigurationError(
                    f"{what} has an entry for unknown decision {yhat!r} at feature {x!r}"
                )


def reference_nature(nature, features, decisions):
    for x in features.points:
        for yhat in decisions.labels:
            row = nature.table.get(x)
            if row is None or yhat not in row:
                raise om.ConfigurationError(
                    f"outcome model has no entry for feature {x!r}, decision {yhat!r}"
                )
            p = float(row[yhat])
            if not 0.0 <= p <= 1.0:
                raise om.ConfigurationError(
                    f"outcome probability {p!r} at ({x!r}, {yhat!r}) "
                    "is outside [0, 1]"
                )
    reference_unknown_keys(nature.table, "outcome model", features, decisions)


def reference_loss(loss, features, decisions):
    if not (math.isfinite(loss.lmax) and loss.lmax > 0):
        raise om.ConfigurationError(
            f"loss {loss.name!r} must have a finite lmax > 0, got {loss.lmax!r}"
        )
    for x in features.points:
        for yhat in decisions.labels:
            for y in (0, 1):
                row = loss.table.get(x)
                if row is None or yhat not in row:
                    raise om.ConfigurationError(
                        f"loss {loss.name!r} has no entry for feature {x!r}, "
                        f"decision {yhat!r}"
                    )
                v = float(row[yhat][y])
                if not 0.0 <= v <= loss.lmax:
                    raise om.ConfigurationError(
                        f"loss {loss.name!r} value {v!r} at "
                        f"({x!r}, {yhat!r}, y={y}) is outside [0, {loss.lmax}]"
                    )
    reference_unknown_keys(loss.table, f"loss {loss.name!r}", features, decisions)


def reference_rule(h, features, decisions):
    for x in features.points:
        if x not in h.mapping:
            raise om.ConfigurationError(
                f"rule {h.name!r} has no decision for feature {x!r}"
            )
        yhat = h.mapping[x]
        if yhat not in decisions.labels:
            raise om.ConfigurationError(
                f"rule {h.name!r} maps {x!r} to unknown decision {yhat!r}"
            )
    reference_unknown_keys(h.mapping, f"rule {h.name!r}", features)


def reference_weight(w, features, dist):
    if not (math.isfinite(w.wmax) and w.wmax > 0):
        raise om.WeightInvariantError(
            f"weight function {w.name!r} must have a finite wmax > 0, "
            f"got {w.wmax!r}"
        )

    def weight(x):
        if x not in w.mapping:
            raise om.ConfigurationError(
                f"weight function {w.name!r} has no value for feature {x!r}"
            )
        return float(w.mapping[x])

    for x in features.points:
        v = weight(x)
        if not 0.0 <= v <= w.wmax:
            raise om.WeightInvariantError(
                f"weight function {w.name!r} value {v!r} at {x!r} "
                f"is outside [0, {w.wmax}]"
            )
    reference_unknown_keys(w.mapping, f"weight function {w.name!r}", features)
    mean = math.fsum(
        float(dist.probabilities.get(x, 0.0)) * weight(x) for x in features.points
    )
    if abs(mean - 1.0) > MASS_TOLERANCE:
        raise om.WeightInvariantError(
            f"weight function {w.name!r} has mean {mean!r} under the "
            "input distribution, expected 1"
        )


def reference_validate(kw):
    """The per-cell checks in the order Scenario construction runs them."""
    features, decisions = kw["features"], kw["decisions"]
    reference_distribution(kw["input_distribution"], features)
    reference_nature(kw["nature"], features, decisions)
    for loss in kw["losses"]:
        reference_loss(loss, features, decisions)
    for h in kw["hypotheses"]:
        reference_rule(h, features, decisions)
    for w in kw["weights"].weights:
        reference_weight(w, features, kw["input_distribution"])


def reference_arrays(sc):
    """The arrays as a per-cell enumeration builds them."""
    xs, ys = sc.features.points, sc.decisions.labels
    y_index = {y: j for j, y in enumerate(ys)}
    arrays = {
        "dist": np.array([sc.input_distribution.mass(x) for x in xs], dtype=np.float64),
        "nature": np.array([[sc.nature.prob(x, y) for y in ys] for x in xs],
                           dtype=np.float64),
    }
    for loss in sc.losses:
        at0 = np.array([[loss.values(x, y, 0) for y in ys] for x in xs],
                       dtype=np.float64)
        at1 = np.array([[loss.values(x, y, 1) for y in ys] for x in xs],
                       dtype=np.float64)
        arrays[f"base:{loss.name}"] = at0
        arrays[f"delta:{loss.name}"] = at1 - at0
    for h in sc.hypotheses:
        arrays[f"rule:{h.name}"] = np.array([y_index[h.decide(x)] for x in xs],
                                            dtype=np.int64)
    for w in sc.weights.weights:
        arrays[f"weight:{w.name}"] = np.array([w.weight(x) for x in xs],
                                              dtype=np.float64)
    return arrays


def raw_tables(rng):
    """Plain-dict tables of a valid random scenario with weights, lmax 2."""
    n_x, k = int(rng.integers(3, 7)), int(rng.integers(2, 5))
    xs = [f"x{i}" for i in range(n_x)]
    ys = [f"d{j}" for j in range(k)]
    raw = rng.random(n_x) + 0.1
    masses = {x: float(m) for x, m in zip(xs, raw / raw.sum())}
    weights = []
    for name in ("wa", "wb"):
        v = rng.random(n_x) + 0.5
        v = v / math.fsum(masses[x] * float(u) for x, u in zip(xs, v))
        weights.append((name, {x: float(u) for x, u in zip(xs, v)}, 3.0))
    return dict(
        xs=xs,
        ys=ys,
        masses=masses,
        nature={x: {y: float(rng.random()) for y in ys} for x in xs},
        losses=[
            (f"l{i}", 2.0, {x: {y: (2.0 * float(rng.random()), 2.0 * float(rng.random()))
                                for y in ys} for x in xs})
            for i in range(int(rng.integers(2, 4)))
        ],
        rules=[
            (f"h{i}", {x: ys[int(rng.integers(0, k))] for x in xs})
            for i in range(int(rng.integers(2, 4)))
        ],
        weights=weights,
    )


def scenario_parts(t):
    return dict(
        name="cells",
        features=om.FeatureSpace(points=tuple(t["xs"])),
        decisions=om.DecisionSpace(labels=tuple(t["ys"])),
        input_distribution=om.InputDistribution(probabilities=t["masses"]),
        nature=om.NatureModel(table=t["nature"]),
        losses=tuple(om.Loss(name=n, lmax=m, table=tab) for n, m, tab in t["losses"]),
        hypotheses=tuple(om.Hypothesis(name=n, mapping=m) for n, m in t["rules"]),
        epsilon=0.1,
        weights=om.WeightClass(weights=tuple(
            om.WeightFunction(name=n, mapping=m, wmax=wmax)
            for n, m, wmax in t["weights"]
        )),
    )


def later_cell(rng, t):
    """A (feature, decision) pair other than the canonically first one."""
    cells = [(x, y) for x in t["xs"] for y in t["ys"]][1:]
    return cells[int(rng.integers(0, len(cells)))]


def later_feature(rng, t):
    return t["xs"][int(rng.integers(1, len(t["xs"])))]


def set_loss_value(value):
    def fault(rng, t):
        x, y = later_cell(rng, t)
        v0, v1 = t["losses"][-1][2][x][y]
        t["losses"][-1][2][x][y] = (v0, value) if rng.random() < 0.5 else (value, v1)
    return fault


def set_nature(value):
    def fault(rng, t):
        x, y = later_cell(rng, t)
        t["nature"][x][y] = value
    return fault


def set_mass(value):
    def fault(rng, t):
        t["masses"][later_feature(rng, t)] = value
    return fault


def set_weight(value):
    def fault(rng, t):
        t["weights"][-1][1][later_feature(rng, t)] = value
    return fault


def drop_nature_cell(rng, t):
    x, y = later_cell(rng, t)
    del t["nature"][x][y]


def drop_nature_row(rng, t):
    del t["nature"][later_feature(rng, t)]


def drop_loss_cell(rng, t):
    x, y = later_cell(rng, t)
    del t["losses"][-1][2][x][y]


def drop_rule_cell(rng, t):
    del t["rules"][-1][1][later_feature(rng, t)]


def drop_weight_cell(rng, t):
    del t["weights"][-1][1][later_feature(rng, t)]


def unknown_feature(rng, t):
    t["masses"]["zz"] = 0.0


def unknown_decision(rng, t):
    t["rules"][-1][1][later_feature(rng, t)] = "zz"


def extra_row(table_of):
    """A fault that adds a row for the unknown feature "zz"."""
    def fault(rng, t):
        table = table_of(t)
        table["zz"] = copy.deepcopy(table[later_feature(rng, t)])
    return fault


def extra_cell(table_of):
    """A fault that adds the unknown decision "zz" to a later row."""
    def fault(rng, t):
        row = table_of(t)[later_feature(rng, t)]
        row["zz"] = copy.deepcopy(row[t["ys"][0]])
    return fault


def weight_mean(rng, t):
    mapping = t["weights"][-1][1]
    for x in mapping:
        mapping[x] *= 1.01


def mass_sum(rng, t):
    x = later_feature(rng, t)
    t["masses"][x] *= 1.5


FAULTS = {
    "missing-nature-cell": drop_nature_cell,
    "missing-nature-row": drop_nature_row,
    "missing-loss-cell": drop_loss_cell,
    "missing-rule-cell": drop_rule_cell,
    "missing-weight-cell": drop_weight_cell,
    "unknown-distribution-feature": unknown_feature,
    "nan-mass": set_mass(math.nan),
    "negative-mass": set_mass(-0.1),
    "infinite-mass": set_mass(math.inf),
    "nan-nature": set_nature(math.nan),
    "negative-nature": set_nature(-0.25),
    "large-nature": set_nature(1.5),
    "nan-loss": set_loss_value(math.nan),
    "negative-loss": set_loss_value(-0.5),
    "large-loss": set_loss_value(2.5),
    "nan-weight": set_weight(math.nan),
    "negative-weight": set_weight(-0.5),
    "large-weight": set_weight(4.0),
    "unknown-decision": unknown_decision,
    "unknown-nature-feature": extra_row(lambda t: t["nature"]),
    "unknown-nature-decision": extra_cell(lambda t: t["nature"]),
    "unknown-loss-feature": extra_row(lambda t: t["losses"][-1][2]),
    "unknown-loss-decision": extra_cell(lambda t: t["losses"][-1][2]),
    "unknown-rule-feature": extra_row(lambda t: t["rules"][-1][1]),
    "unknown-weight-feature": extra_row(lambda t: t["weights"][-1][1]),
    "weight-mean": weight_mean,
    "mass-sum": mass_sum,
}


def outcome(build):
    try:
        build()
    except Exception as exc:  # compared, type and message, to the reference
        return type(exc), str(exc)
    return None


class TestValidationMatchesPerCellReference:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_single_fault_same_error(self, fault):
        for seed in range(6):
            rng = np.random.default_rng([41, seed])
            t = raw_tables(rng)
            FAULTS[fault](rng, t)
            kw = scenario_parts(t)
            want = outcome(lambda: reference_validate(kw))
            assert want is not None and want[0] in (
                om.ConfigurationError, om.WeightInvariantError)
            assert outcome(lambda: om.Scenario(**kw)) == want

    def test_fault_free_arrays_match_enumeration(self):
        for seed in range(10):
            rng = np.random.default_rng([43, seed])
            kw = scenario_parts(raw_tables(rng))
            assert outcome(lambda: reference_validate(kw)) is None
            sc = om.Scenario(**kw)
            arrays = sc.arrays
            got = {"dist": arrays.dist, "nature": arrays.nature}
            for loss in sc.losses:
                got[f"base:{loss.name}"] = arrays.loss_base[loss.name]
                got[f"delta:{loss.name}"] = arrays.loss_delta[loss.name]
            for h in sc.hypotheses:
                got[f"rule:{h.name}"] = arrays.hyp_index[h.name]
                assert np.array_equal(arrays.rule_indices(h), arrays.hyp_index[h.name])
            for w in sc.weights.weights:
                got[f"weight:{w.name}"] = arrays.weights[w.name]
            want = reference_arrays(sc)
            assert got.keys() == want.keys()
            for name, array in want.items():
                assert got[name].dtype == array.dtype, name
                assert np.array_equal(got[name], array), name

    def test_foreign_loss_is_rejected(self):
        # a loss is read into its array once, when the scenario is built;
        # a Loss object that is not one of the scenario's own is refused,
        # not read again, even when it is equal to an own loss
        rng = np.random.default_rng(47)
        sc = om.Scenario(**scenario_parts(raw_tables(rng)))
        own = sc.losses[0]
        base, delta = sc.arrays.loss_arrays(own)
        assert base is sc.arrays.loss_base[own.name]
        assert delta is sc.arrays.loss_delta[own.name]
        twin = om.Loss(name=own.name, lmax=own.lmax, table=own.table)
        with pytest.raises(om.ArgumentError, match="not one of the scenario's"):
            sc.arrays.loss_arrays(twin)
        matrix = np.full((len(sc.features.points), sc.k), 0.5)
        with pytest.raises(om.ArgumentError):
            om.induced_rule(matrix, twin, sc)

    def test_input_oblivious_is_read_from_the_table(self):
        rng = np.random.default_rng(53)
        t = raw_tables(rng)
        row = t["losses"][0][2][t["xs"][0]]
        flat = om.Loss(name="flat", lmax=2.0, table={x: dict(row) for x in t["xs"]})
        features = om.FeatureSpace(points=tuple(t["xs"]))
        decisions = om.DecisionSpace(labels=tuple(t["ys"]))
        assert input_oblivious(flat, features, decisions)
        varied = om.Loss(name="l", lmax=2.0, table=t["losses"][0][2])
        assert not input_oblivious(varied, features, decisions)


class TestPartEquality:
    def test_json_parts_equal_the_built_ones(self):
        loaded = om.load_scenario(REPO / "scenarios" / "beta025.json")
        built = make_beta_scenario(0.25)
        assert loaded.losses == built.losses
        assert loaded.hypotheses == built.hypotheses

    def test_loss_differs_in_any_cell_lmax_or_name(self):
        loss = make_beta_scenario(0.25).losses[0]
        # a scenario's loss table is a view whose cells read as tuples
        table = {x: dict(row) for x, row in loss.table.items()}
        assert om.Loss(loss.name, int(loss.lmax), table) == loss
        for x, row in loss.table.items():
            for y, (v0, v1) in row.items():
                for cell in ((v0 + 0.5, v1), (v0, v1 + 0.5)):
                    edited = copy.deepcopy(table)
                    edited[x][y] = cell
                    assert om.Loss(loss.name, loss.lmax, edited) != loss
        assert om.Loss(loss.name, 2.0, table) != loss
        assert om.Loss("other", loss.lmax, table) != loss

    def test_rule_compares_str_labels(self):
        rule = om.Hypothesis("h", {"a": "1", "b": "0"})
        assert om.Hypothesis("h", {"a": "1", "b": "0"}) == rule
        # a number is no label: it does not name decision "1"
        assert om.Hypothesis("h", {"a": 1, "b": "0"}) != rule
        assert om.Hypothesis("h", {"a": 1, "b": 0}) != rule
        assert om.Hypothesis("h", {"a": "1", "b": "1"}) != rule
        assert om.Hypothesis("g", {"a": "1", "b": "0"}) != rule
        assert om.Hypothesis("h", {"a": "1"}) != rule

    def test_parts_of_other_kinds_are_unequal(self):
        loss = make_beta_scenario(0.25).losses[0]
        assert loss != om.Hypothesis(loss.name, {})
        assert loss != (loss.name, loss.lmax, loss.table)


class TestBenchmarkSpans:
    def test_every_traced_name_resolves(self):
        # the traced benchmark run wraps these functions by name
        layers = runpy.run_path(str(REPO / "perfbench" / "layers.py"))
        for span, (module_name, attrs) in layers["SPANS"].items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = owner.__dict__.get(fn_name) if owner_name else getattr(
                    module, fn_name, None)
                assert callable(fn), f"{span}: {module_name}.{attr}"


def raw_document(t):
    """The JSON document of raw_tables' scenario."""
    return {
        "name": "cells",
        "features": t["xs"],
        "decisions": t["ys"],
        "input_distribution": t["masses"],
        "nature": t["nature"],
        "losses": [{"name": n, "lmax": m, "table": tab} for n, m, tab in t["losses"]],
        "hypotheses": [{"name": n, "map": m} for n, m in t["rules"]],
        "epsilon": 0.1,
        "weights": [{"name": n, "map": m, "wmax": w} for n, m, w in t["weights"]],
    }


def set_loss_cell(value):
    def fault(rng, t):
        x, y = later_cell(rng, t)
        t["losses"][-1][2][x][y] = value
    return fault


def ragged_loss_pair(rng, t):
    """Three values in one loss cell and one in the next, in one row: the
    row still holds two values per decision."""
    row = t["losses"][-1][2][later_feature(rng, t)]
    j = int(rng.integers(0, len(t["ys"]) - 1))
    y0, y1 = t["ys"][j], t["ys"][j + 1]
    row[y0], row[y1] = (*row[y0], 0.5), row[y1][:1]


# Cells of the wrong kind or shape. Before tables went straight into
# arrays, a three-value loss cell loaded with its third value dropped.
MALFORMED = {
    "three-value-loss-cell": set_loss_cell((0.5, 0.5, 0.9)),
    "one-value-loss-cell": set_loss_cell((0.5,)),
    "number-loss-cell": set_loss_cell(0.5),
    "null-loss-cell": set_loss_cell(None),
    # a flat read of the values would split these into two each, or pass
    # a long cell next to a short one
    "text-loss-cell": set_loss_cell("01"),
    "object-loss-cell": set_loss_cell({"0": 0.2, "1": 0.4}),
    "ragged-loss-pair": ragged_loss_pair,
    "list-loss-value": set_loss_value([0.5]),
    "object-loss-value": set_loss_value({"v": 0.5}),
    "null-loss-value": set_loss_value(None),
    "list-nature": set_nature([0.5, 0.5]),
    "object-nature": set_nature({"p": 0.5}),
    "null-nature": set_nature(None),
    "text-nature": set_nature("half"),
    "list-mass": set_mass([0.2]),
    "null-mass": set_mass(None),
    "object-weight": set_weight({"w": 1.0}),
    "list-weight": set_weight([1.0]),
    "null-weight": set_weight(None),
}


class TestMalformedCells:
    @pytest.mark.parametrize("fault", sorted(MALFORMED))
    def test_loader_and_construction_refuse(self, fault, tmp_path):
        rng = np.random.default_rng([59, sorted(MALFORMED).index(fault)])
        t = raw_tables(rng)
        MALFORMED[fault](rng, t)
        # null where a number belongs reads as NaN, which the range checks
        # name; any other bad cell is named as malformed
        nan = fault.startswith("null") and fault != "null-loss-cell"
        match = "nan|non-finite" if nan else "malformed cell at"
        with pytest.raises(om.ConfigurationError, match=match):
            om.Scenario(**scenario_parts(t))
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(raw_document(t)))
        with pytest.raises(om.ConfigurationError, match=match):
            om.load_scenario(path)

    def test_first_malformed_cell_is_named(self):
        t = raw_tables(np.random.default_rng(61))
        x, y = t["xs"][1], t["ys"][0]
        t["losses"][0][2][x][y] = (0.5, 0.5, 0.9)
        t["losses"][0][2][t["xs"][2]][y] = "pair"
        with pytest.raises(om.ConfigurationError) as exc:
            om.Scenario(**scenario_parts(t))
        assert str(exc.value) == (
            f"loss 'l0' has a malformed cell at ({x!r}, {y!r}): (0.5, 0.5, 0.9)")


# A number written as JSON text or as a boolean, which numpy would
# convert: (scenario file, its edit, the refusal naming the first cell)
COERCIBLE = {
    "text-mass-and-weight": ("beta025_weights.json", lambda doc: (
        doc["input_distribution"].update({"-1": "0.5"}),
        doc["weights"][0]["map"].update({"+1": "1.0"})),
        "input distribution has a malformed cell at '-1': '0.5'"),
    "text-weight": ("beta025_weights.json",
                    lambda doc: doc["weights"][0]["map"].update({"+1": "1.0"}),
                    "weight function 'uniform' has a malformed cell at '+1': '1.0'"),
    "text-nature": ("beta025.json", lambda doc: doc["nature"]["-1"].update({"+1": "0.25"}),
                    "outcome model has a malformed cell at ('-1', '+1'): '0.25'"),
    "true-nature": ("beta025.json", lambda doc: doc["nature"]["+1"].update({"-1": True}),
                    "outcome model has a malformed cell at ('+1', '-1'): True"),
    "text-loss-value": ("beta025.json",
                        lambda doc: doc["losses"][0]["table"]["+1"].update({"-1": ["0.5", 0.5]}),
                        "loss 'steer_to_one' has a malformed cell at ('+1', '-1'): ['0.5', 0.5]"),
}


class TestNothingIsCoerced:
    @pytest.mark.parametrize("case", sorted(COERCIBLE))
    def test_numbers_written_as_text_or_booleans_are_refused(self, case, tmp_path):
        name, edit, refusal = COERCIBLE[case]
        doc = json.loads((REPO / "scenarios" / name).read_text())
        edit(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(om.ConfigurationError) as exc:
            om.load_scenario(path)
        assert str(exc.value) == f"scenario file {path}: {refusal}"
        check_loads_as_oracle(path)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(["scenario-show", "--config", str(path)]) == 2
        assert err.getvalue() == f"error: scenario file {path}: {refusal}\n"


class TestLoaderInput:
    @pytest.mark.parametrize("where", ["mass", "epsilon", "lmax", "wmax", "weight"])
    def test_oversized_integer_names_the_file(self, where, tmp_path):
        doc = json.loads((REPO / "scenarios" / "beta025_weights.json").read_text())
        huge = 10 ** 400  # too large for a float
        if where == "mass":
            doc["input_distribution"]["-1"] = huge
        elif where == "epsilon":
            doc["epsilon"] = huge
        elif where == "lmax":
            doc["losses"][0]["lmax"] = huge
        elif where == "wmax":
            doc["weights"][0]["wmax"] = huge
        else:
            doc["weights"][0]["map"]["-1"] = huge
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(om.ConfigurationError, match="too large") as exc:
            om.load_scenario(path)
        assert str(path) in str(exc.value)

    def test_text_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(om.ConfigurationError, match="malformed.*utf-8") as exc:
            om.load_scenario(path)
        assert str(path) in str(exc.value)

    def test_json_number_labels_in_rule_maps(self, tmp_path):
        """A rule names a decision by its string label; a JSON number,
        boolean or list whose str form is a decision label names none."""
        doc = json.loads((REPO / "scenarios" / "beta025.json").read_text())
        doc["decisions"] = ["0", "1", "True", "1.0", "[1]"]
        for table in [doc["nature"]] + [l["table"] for l in doc["losses"]]:
            for x, row in table.items():
                table[x] = dict.fromkeys(doc["decisions"], row["-1"])
        doc["hypotheses"][1]["map"] = {"-1": "1", "+1": "0"}
        path = tmp_path / "numeric_labels.json"
        for label in (1, True, 1.0, [1]):
            doc["hypotheses"][0]["map"] = {"-1": "0", "+1": label}
            refusal = f"rule 'h_plus' maps '+1' to unknown decision {label!r}"
            with pytest.raises(om.ConfigurationError) as exc:
                om.scenario_from_dict(copy.deepcopy(doc))
            assert str(exc.value) == refusal
            path.write_text(json.dumps(doc))
            with pytest.raises(om.ConfigurationError) as exc:
                om.load_scenario(path)
            assert str(exc.value) == f"scenario file {path}: {refusal}"
        doc["hypotheses"][0]["map"]["+1"] = "1"
        sc = om.scenario_from_dict(doc)
        assert sc.arrays.hyp_index["h_plus"].tolist() == [0, 1]


def reordered(value):
    """value with the keys of every JSON object in reverse order."""
    if isinstance(value, dict):
        return {k: reordered(v) for k, v in reversed(value.items())}
    if isinstance(value, list):
        return [reordered(v) for v in value]
    return value


def integral_as_int(value):
    """value with every integral float written as a JSON integer."""
    if isinstance(value, dict):
        return {k: integral_as_int(v) for k, v in value.items()}
    if isinstance(value, list):
        return [integral_as_int(v) for v in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


class TestScenarioEquality:
    def test_loaded_scenario_equals_its_round_trip(self):
        sc = om.load_scenario(REPO / "scenarios" / "beta025_weights.json")
        # the loaded tables are views of the checked arrays, whose cells
        # read back as (value at y=0, value at y=1) tuples of floats
        assert sc.losses[0].table["-1"]["-1"] == (1.0, 0.0)
        assert om.scenario_from_dict(scenario_to_dict(sc)) == sc
        assert sc != om.augment_scenario(sc)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["nature"]["-1"].update({"-1": 0.7}),
        lambda doc: doc["losses"][0].update(lmax=2.0),
        lambda doc: doc["weights"][0].update(wmax=3.0),
        lambda doc: doc.update(epsilon=0.2),
        lambda doc: doc["hypotheses"][0].update(name="h_other"),
    ], ids=["nature", "lmax", "wmax", "epsilon", "rule-name"])
    def test_any_canonical_difference_is_unequal(self, edit):
        doc = json.loads((REPO / "scenarios" / "beta025_weights.json").read_text())
        sc = om.scenario_from_dict(doc)
        edit(doc)
        assert om.scenario_from_dict(doc) != sc

    @pytest.mark.parametrize("name", ["beta025.json", "beta025_weights.json"])
    @pytest.mark.parametrize("edit, equal", [
        (lambda doc: doc, True),
        (reordered, True),
        (integral_as_int, True),
        (lambda doc: doc["nature"]["+1"].update({"+1": 0.5}), False),
        (lambda doc: doc["losses"][1]["table"]["-1"]["+1"].__setitem__(0, 0.5), False),
    ], ids=["copy", "reordered-keys", "int-cells", "nature-cell", "loss-cell"])
    def test_equal_exactly_when_the_documents_are(self, name, edit, equal):
        """Field equality agrees with the canonical document form, with
        and without weights."""
        doc = json.loads((REPO / "scenarios" / name).read_text())
        sc = om.scenario_from_dict(doc)
        changed = copy.deepcopy(doc)
        other = om.scenario_from_dict(edit(changed) or changed)
        same_doc = scenario_to_dict(sc) == scenario_to_dict(other)
        assert same_doc is equal
        assert (sc == other) is equal and (other == sc) is equal
        assert (sc != other) is not equal


def eager_augment_losses(losses, weights):
    """Loss augmentation as it was before its tables became views: every
    table built cell by cell, from tables whose cells the loader had
    converted with float(). The reference for the views and for the
    augmented arrays."""
    augmented = []
    for loss in losses:
        for w in weights.weights:
            table = {
                x: {
                    yhat: (w.weight(x) * float(pair[0]), w.weight(x) * float(pair[1]))
                    for yhat, pair in row.items()
                }
                for x, row in loss.table.items()
            }
            augmented.append(
                om.Loss(name=f"{loss.name}@{w.name}", lmax=loss.lmax * weights.wmax,
                        table=table)
            )
    return tuple(augmented)


def per_cell_values(loss, xs, ys):
    return np.array([[[loss.values(x, y, 0), loss.values(x, y, 1)] for y in ys]
                     for x in xs], dtype=np.float64)


@st.composite
def degenerate_documents(draw, n_x=st.integers(1, 4), k=st.integers(1, 3)):
    """Scenario documents with degenerate shapes: k = 1, |X| = 1, zero
    masses, zero weights, tied values and JSON integers in number cells."""
    n_x, k = draw(n_x), draw(k)
    xs, ys = [f"x{i}" for i in range(n_x)], [str(j) for j in range(k)]
    parts = draw(st.lists(st.integers(0, 3), min_size=n_x, max_size=n_x).filter(any))
    masses = [p / sum(parts) for p in parts]
    value = st.sampled_from([0, 1, 0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    losses = []
    for i in range(draw(st.integers(1, 2))):
        lmax = draw(st.sampled_from([1, 2.0]))
        losses.append({"name": f"l{i}", "lmax": lmax, "table": {
            x: {y: [draw(value) * lmax, draw(value) * lmax] for y in ys} for x in xs}})
    rules = []
    for i in range(draw(st.integers(1, 3))):
        labels = [draw(st.integers(0, k - 1)) for _ in xs]
        rules.append({"name": f"h{i}", "map": {x: ys[j] for x, j in zip(xs, labels)}})
    weights = []
    for i in range(draw(st.integers(1, 2))):
        raw = draw(st.lists(st.integers(0, 3), min_size=n_x, max_size=n_x))
        first = parts.index(next(p for p in parts if p))  # keep one supported weight
        raw[first] = max(raw[first], 1)
        mean = math.fsum(m * r for m, r in zip(masses, raw))
        w = [r / mean for r in raw]
        weights.append({"name": f"w{i}", "map": dict(zip(xs, w)), "wmax": max(w)})
    return {
        "name": "degenerate",
        "features": xs,
        "decisions": ys,
        "input_distribution": dict(zip(xs, masses)),
        "nature": {x: {y: draw(value) for y in ys} for x in xs},
        "losses": losses,
        "hypotheses": rules,
        "epsilon": 0.1,
        "weights": weights,
    }


class TestArraysMatchPerCellReferences:
    """Differential checks of the arrays against per-cell loops."""

    @staticmethod
    def check_loaded_arrays(doc):
        sc = om.scenario_from_dict(json.loads(json.dumps(doc)))
        arrays = sc.arrays
        got = {"dist": arrays.dist, "nature": arrays.nature}
        for loss in sc.losses:
            got[f"base:{loss.name}"] = arrays.loss_base[loss.name]
            got[f"delta:{loss.name}"] = arrays.loss_delta[loss.name]
        for h in sc.hypotheses:
            got[f"rule:{h.name}"] = arrays.hyp_index[h.name]
        for w in sc.weights.weights:
            got[f"weight:{w.name}"] = arrays.weights[w.name]
        want = reference_arrays(sc)
        assert got.keys() == want.keys()
        for name, array in want.items():
            assert got[name].dtype == array.dtype, name
            assert got[name].tobytes() == array.tobytes(), name

    @settings(max_examples=80, deadline=None)
    @given(degenerate_documents())
    def test_loaded_arrays(self, doc):
        self.check_loaded_arrays(doc)

    # one decision per row or one feature per table: itemgetter of one
    # key returns the bare item, not a 1-tuple
    @pytest.mark.parametrize("n_x, k", [(4, 1), (1, 3), (1, 1)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_one_decision_or_one_feature(self, n_x, k, data):
        doc = data.draw(degenerate_documents(st.just(n_x), st.just(k)))
        self.check_loaded_arrays(doc)

    @settings(max_examples=80, deadline=None)
    @given(degenerate_documents())
    def test_augmented_arrays_and_views(self, doc):
        sc = om.scenario_from_dict(json.loads(json.dumps(doc)))
        xs, ys = sc.features.points, sc.decisions.labels
        wide = om.augment_scenario(sc)
        eager = eager_augment_losses(sc.losses, sc.weights)
        names = [(l.name, l.lmax) for l in eager]
        assert [(l.name, l.lmax) for l in wide.losses] == names
        for view, ref in zip(wide.losses, eager):
            want = per_cell_values(ref, xs, ys)
            assert per_cell_values(view, xs, ys).tobytes() == want.tobytes()
            assert view.table == ref.table
            got = wide.arrays.loss_values[view.name]
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            base, delta = wide.arrays.loss_arrays(view)
            assert base.tobytes() == want[:, :, 0].tobytes()
            assert delta.tobytes() == (want[:, :, 1] - want[:, :, 0]).tobytes()
        for name in ("dist", "nature", "hyp_index", "weights", "rule_cells"):
            assert getattr(wide.arrays, name) is getattr(sc.arrays, name)

    @settings(max_examples=80, deadline=None)
    @given(degenerate_documents())
    def test_document_round_trip(self, doc):
        sc = om.scenario_from_dict(json.loads(json.dumps(doc)))
        again = json.loads(json.dumps(scenario_to_dict(sc)))
        assert om.scenario_from_dict(again) == sc
        wide = om.augment_scenario(sc)
        again = json.loads(json.dumps(scenario_to_dict(wide)))
        assert om.scenario_from_dict(again) == wide


def json_nodes(node, path=()):
    """(path, node) for every node of a JSON document, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_nodes(child, path + (key,))


FUZZ_DOCS = [
    json.loads((REPO / "scenarios" / "beta025_weights.json").read_text()),
    raw_document(raw_tables(np.random.default_rng(67))),
]
FUZZ_DOCS[1] = json.loads(json.dumps(FUZZ_DOCS[1]))
DELETE = object()
# a plain value in place of a number, a row or a whole section: null, an
# integer too large for a float, text, a list or an object
SCALARS = st.sampled_from(
    [None, True, 10 ** 400, -1, 0.5, "0.5", "x", [], {}, [0.5, 0.5, 0.5], math.nan]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=4,
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(json_nodes(doc))[1:]
        leaves = [path for path, node in nodes if not isinstance(node, (dict, list))]
        path = draw(st.sampled_from(leaves) | st.sampled_from([p for p, _ in nodes]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = draw(st.one_of(SCALARS, SCALARS, JSON_VALUES, st.just(DELETE)))
        if value is DELETE:
            del parent[path[-1]]
        else:  # a copy, so no example mutates SCALARS' shared lists
            parent[path[-1]] = copy.deepcopy(value)
        if not isinstance(doc, dict) or not doc:
            break
    return doc


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutated_documents())
    def test_only_configuration_errors_escape(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.json"
            path.write_text(json.dumps(doc))
            try:
                om.load_scenario(path)
            except om.ConfigurationError:  # WeightInvariantError is one too
                pass


def load_whole(path):
    """The whole-document loader, kept as load_scenario's oracle:
    scenario_from_dict(json.loads(text)), its errors wrapped as
    load_scenario wraps them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
        return om.scenario_from_dict(doc)
    except OSError as exc:
        raise om.ConfigurationError(f"cannot read scenario file {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise om.ConfigurationError(f"scenario file {path} is not valid JSON: {exc}")
    except om.ConfigurationError as exc:
        raise type(exc)(f"scenario file {path}: {exc}") from exc
    except (
        AttributeError, TypeError, ValueError, KeyError, IndexError, OverflowError
    ) as exc:
        raise om.ConfigurationError(f"scenario file {path} is malformed: {exc}") from exc


def check_loads_as_oracle(path):
    """load_scenario(path) raises what load_whole(path) raises, type and
    message, or returns a scenario equal to it field by field and in its
    checked arrays."""
    loaded = {}

    def keep(load):
        def build():
            loaded[load] = load(path)
        return build

    assert outcome(keep(om.load_scenario)) == outcome(keep(load_whole))
    if loaded:
        got, want = loaded[om.load_scenario], loaded[load_whole]
        for field in dataclasses.fields(want):
            assert getattr(got, field.name) == getattr(want, field.name), field.name
        assert arrays_digest(got) == arrays_digest(want)


TABLE_KEYS = {"losses": "table", "hypotheses": "map", "weights": "map"}


def oblivious_document(xs, ys=("0", "1")):
    """A scenario over features xs with two input-oblivious losses, each
    table one row under every feature in canonical order, and a
    built-in loss."""
    rows = [{y: [0.25 * (j + 1), 0.5] for j, y in enumerate(ys)},
            {y: [1.0, 0.0] for y in ys}]
    return {
        "name": "oblivious",
        "features": list(xs),
        "decisions": list(ys),
        "input_distribution": {x: 1 / len(xs) for x in xs},
        "nature": {x: {y: 0.5 for y in ys} for x in xs},
        "losses": [{"name": f"io{i}", "lmax": 1.0, "table": {x: dict(row) for x in xs}}
                   for i, row in enumerate(rows)] + [{"builtin": "steer_to_one"}],
        "hypotheses": [{"name": "h", "map": {x: ys[0] for x in xs}}],
        "epsilon": 0.1,
    }


def rule_document(xs, ys=("d0", "d1", "d2")):
    """oblivious_document over xs and ys, with two rules that use every
    decision: one cycles through them in order, the other backwards."""
    doc = oblivious_document(xs, ys)
    doc["hypotheses"] = [
        {"name": f"h{r}", "map": {x: ys[(1 - 2 * r) * i % len(ys)] for i, x in enumerate(xs)}}
        for r in range(2)
    ]
    return doc


def relabelled(doc, labels):
    """doc with its decisions renamed to labels, in order, everywhere."""
    new = dict(zip(doc["decisions"], labels))
    rows = [doc["nature"]] + [loss["table"] for loss in doc["losses"] if "table" in loss]
    for table in rows:
        for x, row in table.items():
            table[x] = {new[y]: cell for y, cell in row.items()}
    for rule in doc["hypotheses"]:
        rule["map"] = {x: new[y] for x, y in rule["map"].items()}
    doc["decisions"] = list(labels)
    return doc


def edit_first_table(text, old, new, member='"table":'):
    """text with old replaced by new, once, inside the first loss table,
    or the first value of another member."""
    start = text.index(member) + len(member)
    end = json.JSONDecoder().raw_decode(text, start + 1)[1]
    assert old in text[start:end]
    return text[:start] + text[start:end].replace(old, new, 1) + text[end:]


# JSON text layouts of a document; each takes json.dumps's ensure_ascii
LAYOUTS = {
    "default": json.dumps,
    "compact": lambda doc, **kw: json.dumps(doc, separators=(",", ":"), **kw),
    "indent-2": lambda doc, **kw: json.dumps(doc, indent=2, **kw),
    "tab": lambda doc, **kw: json.dumps(doc, indent="\t", **kw),
    "crlf": lambda doc, **kw: json.dumps(doc, indent=2, **kw).replace("\n", "\r\n"),
}

# Decision labels k = 1, 2, 3 may be renamed to: of unequal width, not
# ASCII, or holding the text of a member separator
LABELS = {
    "unequal": ["d9", "d10", "d11"],
    "non-ascii": ["é", "ü", "\u2028"],
    "separator": ["a, b", "c, d", "e: f"],
}


@st.composite
def scenario_texts(draw):
    """(text, member order) of degenerate_documents' scenarios in every
    layout, with or without ensure_ascii, members in any order, with
    built-in losses, input-oblivious tables (one row under every feature),
    rule maps in any key order, renamed decisions (LABELS) and empty
    arrays."""
    doc = draw(degenerate_documents())
    labels = draw(st.sampled_from([None, *sorted(LABELS)]))
    if labels:
        relabelled(doc, LABELS[labels][:len(doc["decisions"])])
    for rule in doc["hypotheses"]:
        order = draw(st.permutations(list(rule["map"])))
        rule["map"] = {x: rule["map"][x] for x in order}
    for loss in doc["losses"]:
        if draw(st.booleans()):
            first = next(iter(loss["table"].values()))
            loss["table"] = {x: first for x in doc["features"]}
    if draw(st.booleans()):
        doc["losses"].insert(draw(st.integers(0, len(doc["losses"]))),
                             {"builtin": "steer_to_zero", "name": "zero"})
    if draw(st.booleans()):
        doc["losses"].append({"builtin": "steer_to_one"})
    empty = draw(st.sampled_from([None, "losses", "hypotheses", "weights"]))
    if empty:
        doc[empty] = []
    order = draw(st.permutations(list(doc)))
    text = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](
        {key: doc[key] for key in order}, ensure_ascii=draw(st.booleans()))
    return text, order


class TestStreamingLoader:
    """load_scenario parses one member and one table entry at a time, and
    loads what the whole-document loader does."""

    @staticmethod
    def written(text):
        directory = tempfile.TemporaryDirectory()
        path = Path(directory.name) / "scenario.json"
        path.write_bytes(text.encode("utf-8"))
        return directory, path

    @settings(max_examples=150, deadline=None)
    @given(scenario_texts())
    def test_equals_the_whole_document_loader(self, text_and_order):
        text, order = text_and_order
        # every layout and order is walked, not left to json.loads; a
        # table becomes a view once features and decisions are read
        walked, _ = core._walk(text)
        spaces_at = max(order.index("features"), order.index("decisions"))
        for key, table_key in TABLE_KEYS.items():
            for entry in walked[key]:
                if table_key in entry:
                    viewed = isinstance(entry[table_key], core._TableView)
                    assert viewed == (order.index(key) > spaces_at), key
        directory, path = self.written(text)
        with directory:
            check_loads_as_oracle(path)

    @pytest.mark.parametrize("repeated", ["features", "losses", "epsilon"])
    def test_a_repeated_top_level_key_is_read_whole(self, repeated):
        # json.loads keeps a repeated key's last value
        doc = json.loads((REPO / "scenarios" / "beta025_weights.json").read_text())
        value = {"features": doc["features"][::-1], "losses": doc["losses"][::-1],
                 "epsilon": 0.2}[repeated]
        text = json.dumps(doc, indent=2)[:-2] + f', "{repeated}": {json.dumps(value)}}}'
        with pytest.raises(ValueError, match="repeated key"):
            core._walk(text)
        directory, path = self.written(text)
        with directory:
            check_loads_as_oracle(path)
            assert getattr(om.load_scenario(path), repeated) != getattr(
                om.load_scenario(REPO / "scenarios" / "beta025_weights.json"), repeated)

    @pytest.mark.parametrize("text", [
        "", "{", "[]", "5", "{}", '{"name": "a",}', '{"name": "a"} {}', '{"name" "a"}',
        '{"losses": [1 2]}', '{"losses": [1,]}', '{"losses": [', "\ufeff{}",
        '{"a": 1}   \r\n\t', '{"losses": []}', '{"features": ["a"], "decisions": ["d"], '
        '"losses": [{"name": "l", "lmax": 1, "table": {"a": {"d": [0, 1]}}}, 5]}',
        '{"nature": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"losses": [' + "[" * 100_000 + "]" * 100_000 + "]}",
        '{"epsilon": 1' + "0" * 5000 + "}",
    ])
    def test_malformed_and_edge_texts(self, text):
        directory, path = self.written(text)
        with directory:
            check_loads_as_oracle(path)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("tables_first", [False, True])
    def test_faults_in_tables_are_refused_in_order(self, fault, tables_first):
        for seed in range(3):
            rng = np.random.default_rng([71, seed])
            t = raw_tables(rng)
            FAULTS[fault](rng, t)
            doc = raw_document(t)
            if tables_first:
                doc = {**{key: doc.pop(key) for key in TABLE_KEYS}, **doc}
            directory, path = self.written(json.dumps(doc))
            with directory:
                check_loads_as_oracle(path)

    @settings(max_examples=300, deadline=None)
    @given(mutated_documents(), st.data())
    def test_errors_match_the_whole_document_loader(self, doc, data):
        order = data.draw(st.permutations(list(doc)))
        text = LAYOUTS[data.draw(st.sampled_from(sorted(LAYOUTS)))](
            {key: doc[key] for key in order})
        directory, path = self.written(text)
        with directory:
            check_loads_as_oracle(path)

    @classmethod
    def repeated_reads(cls, text, reader="_repeated_row"):
        """Checks text against check_loads_as_oracle, and returns for each
        loss table the walk met whether it was read as one repeated row,
        or with reader "_rule_map" for each rule map whether it matched its
        template."""
        taken, read = [], getattr(core, reader)

        def spy(*args):
            result = read(*args)
            taken.append(result is not None)
            return result

        directory, path = cls.written(text)
        with directory, mock.patch.object(core, reader, spy):
            check_loads_as_oracle(path)
        return taken

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n_x", [1, 2, 5])
    def test_oblivious_tables_are_read_once_in_every_layout(self, layout, n_x):
        doc = oblivious_document([f"x{i}" for i in range(n_x)])
        assert self.repeated_reads(LAYOUTS[layout](doc)) == [True, True]

    @pytest.mark.parametrize("at", [1, 2, 4])  # the second, a middle and the last feature
    @pytest.mark.parametrize("layout", ["default", "indent-2"])
    def test_a_row_that_differs_is_read_whole(self, at, layout):
        doc = oblivious_document([f"x{i}" for i in range(5)])
        doc["losses"][0]["table"][f"x{at}"]["1"] = [0.5, 0.75]
        assert self.repeated_reads(LAYOUTS[layout](doc)) == [False, True]

    def test_equal_values_written_otherwise_are_read_whole(self):
        # the row's text differs, not its values: the table reads the same
        text = json.dumps(oblivious_document(["x0", "x1", "x2"]))
        text = edit_first_table(text, '"x2": {"0": [0.25,', '"x2": {"0": [0.250,')
        assert self.repeated_reads(text) == [False, True]

    @pytest.mark.parametrize("edit", [
        ("reordered", None),
        ("escaped first key", ('"x": ', '"\\u0078": ')),
        ("escaped second key", ('"y": ', '"\\u0079": ')),
        ("separator", (', "z": ', ',  "z": ')),
    ])
    def test_keys_written_otherwise_are_read_whole(self, edit):
        doc = oblivious_document(["x", "y", "z"])
        name, replace = edit
        if replace is None:
            doc["losses"][0]["table"] = dict(reversed(doc["losses"][0]["table"].items()))
            text = json.dumps(doc)
        else:
            text = edit_first_table(json.dumps(doc), *replace)
        assert self.repeated_reads(text) == [False, True], name

    @pytest.mark.parametrize("ensure_ascii", [True, False])
    @pytest.mark.parametrize("xs", [["é", "ü", "\u2028"], ["x", "é"], ["é", "x"]])
    def test_non_ascii_features(self, xs, ensure_ascii):
        text = json.dumps(oblivious_document(xs), ensure_ascii=ensure_ascii)
        # keys are written escaped to ASCII when the whole text is ASCII, as
        # they are otherwise, so an ASCII first key does not decide for "é"
        assert self.repeated_reads(text) == [True, True]

    @pytest.mark.parametrize("row", [
        {"0": ["half", 0.5], "1": [0.5, 0.5]},  # a string cell
        {"0": [0.0, 0.5, 1.0], "1": [0.5, 0.5]},  # a three-value cell
        {"0": [0.5, 0.5], "1": [0.5, 0.5], "9": [0.5, 0.5]},  # an unknown decision
        {"0": [0.5, 0.5]},  # a missing decision
        {"0": [0.5, 2.0], "1": [0.5, 0.5]},  # a value above lmax: the row reads
        {"0": [0.5, 10 ** 400], "1": [0.5, 0.5]},  # too large for a float
        [[0.5, 0.5], [0.5, 0.5]],  # no object
        {"0": [[[[0.5]]]] * 2, "1": [0.5, 0.5]},  # cells of nested lists
    ])
    def test_rows_that_do_not_read_are_refused_as_whole(self, row):
        doc = oblivious_document(["x0", "x1", "x2"])
        doc["losses"][0]["table"] = {x: row for x in doc["features"]}
        taken = self.repeated_reads(json.dumps(doc))
        assert taken == [row == {"0": [0.5, 2.0], "1": [0.5, 0.5]}, True]

    @pytest.mark.parametrize("edit", [
        # the last row written again under its key: json.loads keeps it
        ('"x2": {"0": [0.25, 0.5], "1": [0.5, 0.5]}}',
         '"x2": {"0": [0.25, 0.5], "1": [0.5, 0.5]}, "x2": {"0": [0.0, 0.0], "1": [0.0, 0.0]}}'),
        ('"x1": {"0": [0.25, 0.5], "1": [0.5, 0.5]},', ""),  # a feature left out
    ])
    def test_a_repeated_or_missing_key_in_the_table_is_read_whole(self, edit):
        text = edit_first_table(json.dumps(oblivious_document(["x0", "x1", "x2"])), *edit)
        assert self.repeated_reads(text) == [False, True]

    def test_a_repeated_member_of_a_loss_entry_is_read_whole(self):
        # json.loads keeps the last table; the walk leaves the text to it
        doc = oblivious_document(["x0", "x1"])
        text = json.dumps(doc).replace(
            '"lmax": 1.0, "table"', '"lmax": 1.0, "table": {}, "table"', 1)
        with pytest.raises(ValueError, match="repeated key"):
            core._walk(text)
        assert self.repeated_reads(text) == [False]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n_x", [1, 2, 5])
    def test_rule_maps_are_matched_in_every_layout(self, layout, n_x):
        doc = rule_document([f"x{i}" for i in range(n_x)])
        assert self.repeated_reads(LAYOUTS[layout](doc), "_rule_map") == [True, True]

    @pytest.mark.parametrize("ensure_ascii", [True, False])
    @pytest.mark.parametrize("xs, ys", [
        (["é", "ü", "\u2028"], ["d0", "d1"]),  # keys not ASCII
        (["x", "y", "z"], ["é", "ü"]),  # labels not ASCII
        (["x", "é"], ["dé", "d\u2028"]),  # an ASCII first key, then neither
        (["x", "y", "z"], ["a, b", "c, d"]),  # a label holding ", "
        (["x", "y", "z"], ['"', "\\"]),  # labels written with an escape
    ])
    def test_rule_maps_of_any_labels_are_matched(self, xs, ys, ensure_ascii):
        text = json.dumps(rule_document(xs, ys), ensure_ascii=ensure_ascii)
        assert self.repeated_reads(text, "_rule_map") == [True, True]

    def test_a_map_with_its_own_separators_is_matched(self):
        # each map is matched against the template of its own separators
        text = json.dumps(rule_document(["x", "y", "z"]))
        for old, new in [('"x": "', '"x" :"'), ('", "y": "', '" ,"y" :"'),
                         ('", "z": "', '" ,"z" :"')]:
            text = edit_first_table(text, old, new, '"map":')
        assert self.repeated_reads(text, "_rule_map") == [True, True]

    @pytest.mark.parametrize("edit", [
        ("reordered", None),
        ("escaped first key", ('"x": ', '"\\u0078": ')),
        ("escaped second key", ('"y": ', '"\\u0079": ')),
        ("escaped label", ('"z": "d2"', '"z": "\\u0064\\u0032"')),
        ("separator", (', "z": ', ',  "z": ')),
        ("unknown label", ('"z": "d2"', '"z": "d7"')),
        ("number", ('"z": "d2"', '"z": 10')),
        ("true", ('"z": "d2"', '"z": true')),
        ("repeated key", ('"z": "d2"', '"z": "d2", "z": "d1"')),
        ("missing key", ('"y": "d1", ', "")),
        ("unknown key", ('"y": ', '"w": ')),  # as wide as the key it replaces
    ])
    def test_rule_maps_written_otherwise_are_read_whole(self, edit):
        # an unknown label, a number or true is refused, as the whole-
        # document loader refuses it
        doc = rule_document(["x", "y", "z"])
        name, replace = edit
        if replace is None:
            doc["hypotheses"][0]["map"] = dict(reversed(doc["hypotheses"][0]["map"].items()))
            text = json.dumps(doc)
        else:
            text = edit_first_table(json.dumps(doc), *replace, '"map":')
        assert self.repeated_reads(text, "_rule_map") == [False, True], name

    def test_a_repeated_member_of_a_rule_entry_is_read_whole(self):
        # json.loads keeps the last map; the walk, having matched the first
        # rule's map, leaves the whole text to it
        text = json.dumps(rule_document(["x", "y"])).replace(
            '{"name": "h1", "map"', '{"name": "h1", "map": {}, "map"', 1)
        with pytest.raises(ValueError, match="repeated key"):
            core._walk(text)
        assert self.repeated_reads(text, "_rule_map") == [True, False]

    def test_a_repeated_member_of_a_weight_entry_is_read_whole(self):
        # a weight entry is parsed by member, as loss and rule entries are:
        # json.loads keeps the last map, and the walk leaves the text to it
        path = REPO / "scenarios" / "beta025_weights.json"
        text = json.dumps(json.loads(path.read_text())).replace(
            '{"name": "uniform", "map"',
            '{"name": "uniform", "map": {"-1": 0.0, "+1": 2.0}, "map"', 1)
        with pytest.raises(ValueError, match="repeated key"):
            core._walk(text)
        directory, written = self.written(text)
        with directory:
            check_loads_as_oracle(written)
            assert om.load_scenario(written).weights == om.load_scenario(path).weights

    def test_labels_of_unequal_width_are_read_whole(self):
        doc = rule_document(["x", "y", "z"], ["d9", "d10"])
        assert self.repeated_reads(json.dumps(doc), "_rule_map") == [False, False]

    def test_an_oblivious_table_is_decoded_once(self, workload_files, monkeypatch):
        # each random loss of exact-large writes one row under 4000
        # features; the loader decodes that row, not the table
        path = workload_files["exact-large"]
        text = path.read_text(encoding="utf-8")
        tables = []
        for found in re.finditer('"table": ', text):
            tables.append((found.end(), json.JSONDecoder().raw_decode(text, found.end())[1]))
        spans, decode = [], core._decode

        def counted(s, i):
            value, end = decode(s, i)
            spans.append((i, end))
            return value, end

        monkeypatch.setattr(core, "_decode", counted)
        sc = om.load_scenario(path)
        inside = sum(max(0, min(end, b) - max(i, a)) for i, end in spans for a, b in tables)
        assert len(tables) == 6
        assert inside < 0.01 * sum(b - a for a, b in tables)
        monkeypatch.undo()
        whole = load_whole(path)
        assert [l.name for l in sc.losses] == [l.name for l in whole.losses]
        for loss in whole.losses:
            got, want = sc.arrays.loss_values[loss.name], whole.arrays.loss_values[loss.name]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_rule_maps_are_not_decoded(self, workload_files, monkeypatch):
        # each of exact-large's 64 rules writes one label under 4000
        # features; the loader matches the map against its template
        path = workload_files["exact-large"]
        text = path.read_text(encoding="utf-8")
        maps = []
        for found in re.finditer('"map": ', text):
            maps.append((found.end(), json.JSONDecoder().raw_decode(text, found.end())[1]))
        spans, decode = [], core._decode

        def counted(s, i):
            value, end = decode(s, i)
            spans.append((i, end))
            return value, end

        monkeypatch.setattr(core, "_decode", counted)
        sc = om.load_scenario(path)
        inside = sum(max(0, min(end, b) - max(i, a)) for i, end in spans for a, b in maps)
        assert len(maps) == 64 and sum(b - a for a, b in maps) == 3_768_960
        assert inside < 0.01 * 3_768_960
        monkeypatch.undo()
        whole = load_whole(path)
        assert [h.name for h in sc.hypotheses] == [h.name for h in whole.hypotheses]
        for rule in whole.hypotheses:
            got, want = sc.arrays.hyp_index[rule.name], whole.arrays.hyp_index[rule.name]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # per seed-1 workload load: Hypothesis.read_table and Loss.read_table
    # calls and views built; a fast reader's table is read once, in the
    # walk, and its part's check takes the view's array
    READS = {"exact-large": (64, 14, 146), "trial-data": (16, 6, 42), "adapt-serve": (32, 6, 82)}

    @pytest.mark.parametrize("workload", sorted(READS))
    def test_each_table_is_read_once(self, workload, workload_files, monkeypatch):
        path = workload_files[workload]
        text = path.read_text(encoding="utf-8")
        matched, reached, calls = [], [], collections.Counter()

        def spied(reader):
            def spy(*args):
                found = reader(*args)
                if found is not None:  # before, a fast reader returned a view
                    matched.append(getattr(found[0], "array", found[0]))
                return found
            return spy

        def counted(cls, name, table=None):
            method = getattr(cls, name)

            def count(self, *args):
                calls[cls.__name__] += 1
                if table:
                    reached.append(getattr(getattr(self, table), "array", None))
                return method(self, *args)
            monkeypatch.setattr(cls, name, count)

        for reader in ("_repeated_row", "_rule_map"):
            monkeypatch.setattr(core, reader, spied(getattr(core, reader)))
        counted(core.Loss, "read_table", "table")
        counted(core.Hypothesis, "read_table", "mapping")
        counted(core.WeightFunction, "read_table", "mapping")
        counted(core._TableView, "__init__")
        walked, _ = core._walk(text)
        tables = [entry[TABLE_KEYS[key]] for key in TABLE_KEYS for entry in walked.get(key) or ()
                  if TABLE_KEYS[key] in entry]
        # every table of these files is matched or read, and viewed once
        assert all(isinstance(t, core._TableView) for t in tables)
        assert calls["_TableView"] == len(tables)
        assert len(matched) == len(walked["hypotheses"]) + sum(
            "table" in entry for entry in walked["losses"])
        assert not any(a is m for a in reached for m in matched)
        calls.clear()
        sc = om.load_scenario(path)
        builtins = sum("builtin" in entry for entry in walked["losses"])
        functions = sc.weights.weights if sc.weights else ()
        parts = 2 + len(sc.losses) + len(sc.hypotheses) + len(functions)
        assert calls["_TableView"] == len(tables) + builtins + parts
        got = calls["Hypothesis"], calls["Loss"], calls["_TableView"]
        assert got == self.READS[workload]

    def test_load_peak_holds_no_copy_of_the_file(self, workload_files):
        # reading the file holds its bytes and its text, twice its size;
        # the whole parsed document alone is about seven times the text
        path = workload_files["exact-large"]
        tracemalloc.start()
        try:
            om.load_scenario(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * path.stat().st_size


# The benchmark's scenarios: each workload's sizes in perfbench/run.py
# and the scenario seed of a --seed 1 run (trial-data's is fixed at 0).
WORKLOAD_SCENARIOS = {
    "exact-large": (dict(n_x=4000, k=4, n_losses=8, n_hypotheses=64,
                         epsilon=0.02), 1),
    "trial-data": (dict(n_x=200, k=4, n_losses=4, n_hypotheses=16,
                        epsilon=0.05), 0),
    "adapt-serve": (dict(n_x=500, k=3, n_losses=4, n_hypotheses=32,
                         epsilon=0.05, n_weights=4), 1),
}


@pytest.fixture(scope="module")
def workload_files(tmp_path_factory):
    """workload -> its scenario file, written as the benchmark writes it."""
    gen = runpy.run_path(str(REPO / "perfbench" / "gen.py"))
    directory, files = tmp_path_factory.mktemp("workloads"), {}
    for name, (sizes, seed) in WORKLOAD_SCENARIOS.items():
        files[name] = directory / f"{name}.json"
        doc = gen["generate"](f"{name}-{seed}", gen["Sizes"](**sizes), seed)
        gen["write"](doc, files[name])
    return files


def arrays_digest(sc):
    """sha256 over dtype, shape and bytes of dist, nature, every loss's
    values, every rule's indices and every weight, in canonical order."""
    arrays = sc.arrays
    parts = [arrays.dist, arrays.nature]
    parts += [arrays.loss_values[l.name] for l in sc.losses]
    parts += [arrays.hyp_index[h.name] for h in sc.hypotheses]
    parts += [arrays.weights[w.name] for w in (sc.weights.weights if sc.weights else ())]
    digest = hashlib.sha256()
    for array in parts:
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestWorkloadArrays:
    # computed before the tables were read flat
    DIGESTS = {
        "exact-large": "499bea810a5f823d0bf009b813846d6a13b4d2ad9f0e0137568a0f5fe857655a",
        "trial-data": "cf574710f566a3d3ed1513b4a6c43569d9f57a3d686ea8b01cdf5c705a4562c3",
        "adapt-serve": "56e78f0e90863acb9f31ef258824efebb28e9970f669601b7706df29ce085599",
    }

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SCENARIOS))
    def test_checked_arrays_are_pinned(self, workload, workload_files):
        sc = om.load_scenario(workload_files[workload])
        assert arrays_digest(sc) == self.DIGESTS[workload]


class TestCollectorPause:
    """load_scenario pauses the cyclic collector and restores its state."""

    @pytest.mark.parametrize("fault", [None, "missing", "not-json", "invalid", "weight"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored(self, enabled, fault, tmp_path):
        path = tmp_path / "scenario.json"
        doc = json.loads((REPO / "scenarios" / "beta025_weights.json").read_text())
        if fault == "invalid":
            del doc["nature"]["+1"]
        elif fault == "weight":  # raises WeightInvariantError
            doc["weights"][0]["wmax"] = 0.5
        if fault == "not-json":
            path.write_text("{")
        elif fault != "missing":
            path.write_text(json.dumps(doc))
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if fault is None:
                om.load_scenario(path)
            else:
                with pytest.raises(om.ConfigurationError):
                    om.load_scenario(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()

    def test_no_collection_while_loading_a_large_scenario(self, workload_files):
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(count)
        try:
            om.load_scenario(workload_files["exact-large"])
        finally:
            gc.callbacks.remove(count)
        assert starts == []


class TestPartViews:
    """A scenario's parts are views of its checked arrays: no table given
    to it is kept."""

    def test_a_loaded_scenario_keeps_no_document(self, workload_files):
        # the parsed exact-large document alone is about 120 000 tracked
        # containers; a scenario holding only its arrays needs a few
        # thousand
        gc.collect()
        before = len(gc.get_objects())
        sc = om.load_scenario(workload_files["exact-large"])
        assert len(gc.get_objects()) - before < 10_000
        assert len(sc.features.points) == 4000

    @pytest.mark.parametrize("source", ["adapt-serve", "beta025_weights"])
    def test_part_tables_read_back_their_arrays(self, source, workload_files):
        path = workload_files.get(source, REPO / "scenarios" / f"{source}.json")
        sc = om.load_scenario(path)
        arrays, xs, ys = sc.arrays, sc.features.points, sc.decisions.labels
        masses = sc.input_distribution.probabilities
        assert list(masses) == list(xs)
        assert [masses[x] for x in xs] == arrays.dist.tolist()
        assert all(type(masses[x]) is float for x in xs)
        nature = sc.nature.table
        assert [[nature[x][y] for y in ys] for x in xs] == arrays.nature.tolist()
        for loss in sc.losses:
            table = loss.table
            cells = [[table[x][y] for y in ys] for x in xs]
            assert all(type(c) is tuple for row in cells for c in row)
            assert [[list(c) for c in row] for row in cells] == (
                arrays.loss_values[loss.name].tolist())
        for h in sc.hypotheses:
            labels = [h.mapping[x] for x in xs]
            assert all(type(y) is str for y in labels)
            assert [arrays.y_index[y] for y in labels] == arrays.hyp_index[h.name].tolist()
        for w in sc.weights.weights:
            assert [w.mapping[x] for x in xs] == arrays.weights[w.name].tolist()
        with pytest.raises(KeyError):
            nature["no such feature"]

    def test_code_built_parts_are_equal_but_not_the_given_objects(self):
        parts = scenario_parts(raw_tables(np.random.default_rng(59)))
        sc = om.Scenario(**parts)
        pairs = [(sc.input_distribution, parts["input_distribution"]),
                 (sc.nature, parts["nature"]), (sc.weights, parts["weights"])]
        pairs += list(zip(sc.losses, parts["losses"]))
        pairs += list(zip(sc.hypotheses, parts["hypotheses"]))
        pairs += list(zip(sc.weights.weights, parts["weights"].weights))
        assert len(sc.losses) == len(parts["losses"])
        for own, given in pairs:
            assert own == given and own is not given
        matrix = np.full((len(sc.features.points), sc.k), 0.5)
        om.induced_rule(matrix, sc.losses[0], sc)
        with pytest.raises(om.ArgumentError, match="not one of the scenario's"):
            om.induced_rule(matrix, parts["losses"][0], sc)

    def test_replace_with_an_extra_loss_validates(self):
        sc = om.Scenario(**scenario_parts(raw_tables(np.random.default_rng(61))))
        xs, ys = sc.features.points, sc.decisions.labels
        extra = om.Loss("extra", 2.0, {x: {y: (0.5, 1.5 * (j % 2)) for j, y in
                                           enumerate(ys)} for x in xs})
        wide = dataclasses.replace(sc, losses=sc.losses + (extra,))
        assert wide.losses[:-1] == sc.losses and wide.losses[-1] == extra
        assert wide.hypotheses == sc.hypotheses and wide.weights == sc.weights
        assert np.array_equal(wide.arrays.dist, sc.arrays.dist)
        assert np.array_equal(wide.arrays.nature, sc.arrays.nature)
        for h in sc.hypotheses:
            assert np.array_equal(wide.arrays.hyp_index[h.name], sc.arrays.hyp_index[h.name])
        assert wide.arrays.loss_values["extra"].tolist() == [
            [[0.5, 1.5 * (j % 2)] for j in range(len(ys))] for _ in xs]
        pred = om.base_predictor(wide, 0.1)
        rule = om.induced_rule(pred, named(wide.losses, "extra"), wide)
        assert all(rule.mapping[x] == ys[0] for x in xs)
        om.audit_poi_exact(pred, wide, 0.1)
        aug = om.augment_scenario(wide)
        assert aug.arrays.loss_values["extra@wa"].shape == (len(xs), len(ys), 2)
        over = om.Loss("over", 1.0, extra.table)
        with pytest.raises(om.ConfigurationError, match="outside"):
            dataclasses.replace(sc, losses=sc.losses + (over,))

    @pytest.mark.parametrize("source", ["exact-large", "adapt-serve", "beta025_weights"])
    def test_replace_reads_no_cell(self, source, workload_files, monkeypatch):
        # every part's view is keyed by the same features in canonical
        # order, so validation checks its array and reads no cell
        path = workload_files.get(source, REPO / "scenarios" / f"{source}.json")
        sc = om.load_scenario(path)
        calls = []
        getitem = core._TableView.__getitem__

        def counted(self, x):
            calls.append(x)
            return getitem(self, x)

        monkeypatch.setattr(core._TableView, "__getitem__", counted)
        moved = dataclasses.replace(sc, epsilon=sc.epsilon / 2)
        assert calls == []
        assert moved.epsilon == sc.epsilon / 2
        assert arrays_digest(moved) == arrays_digest(sc)

    def test_replace_checks_the_arrays_against_new_bounds(self):
        sc = om.load_scenario(REPO / "scenarios" / "beta025_weights.json")
        loss, w = sc.losses[0], sc.weights.weights[0]
        plain = {x: dict(row) for x, row in loss.table.items()}
        messages = []
        for table in (loss.table, plain):
            with pytest.raises(om.ConfigurationError, match=r"outside \[0, 0\.5\]") as exc:
                dataclasses.replace(
                    sc, losses=(om.Loss(loss.name, 0.5, table),) + sc.losses[1:])
            messages.append(str(exc.value))
        for mapping in (w.mapping, dict(w.mapping)):
            low = om.WeightFunction(w.name, mapping, 0.5)
            with pytest.raises(om.WeightInvariantError, match="outside") as exc:
                dataclasses.replace(sc, weights=om.WeightClass(
                    (low,) + sc.weights.weights[1:]))
            messages.append(str(exc.value))
        assert messages[0] == messages[1] and messages[2] == messages[3]

    def test_views_over_another_order_are_read_by_feature(self):
        # a view keyed in another feature or decision order is read cell
        # by cell, so every array follows the new canonical order
        sc = om.load_scenario(REPO / "scenarios" / "beta025_weights.json")
        flipped = dataclasses.replace(
            sc, features=om.FeatureSpace(sc.features.points[::-1]))
        assert flipped.arrays.dist.tolist() == sc.arrays.dist[::-1].tolist()
        assert flipped.arrays.nature.tolist() == sc.arrays.nature[::-1].tolist()
        for h in sc.hypotheses:
            assert (flipped.arrays.hyp_index[h.name].tolist()
                    == sc.arrays.hyp_index[h.name][::-1].tolist())
        swapped = dataclasses.replace(
            sc, decisions=om.DecisionSpace(sc.decisions.labels[::-1]))
        assert swapped.arrays.nature.tolist() == sc.arrays.nature[:, ::-1].tolist()
        for h in sc.hypotheses:
            assert (swapped.arrays.hyp_index[h.name].tolist()
                    == (sc.k - 1 - sc.arrays.hyp_index[h.name]).tolist())
        for l in sc.losses:
            assert (swapped.arrays.loss_values[l.name].tolist()
                    == sc.arrays.loss_values[l.name][:, ::-1].tolist())

    def test_repr_is_deterministic(self):
        path = REPO / "scenarios" / "beta025_weights.json"
        first, second = repr(om.load_scenario(path)), repr(om.load_scenario(path))
        assert first == second
        assert "0x" not in first
        assert "_TableView(shape=(2, 2, 2))" in first

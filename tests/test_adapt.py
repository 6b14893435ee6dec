"""Weight shifts, loss augmentation, and the adaptability verifier."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omnipredict as om
from omnipredict import adapt

from conftest import features_only, input_oblivious, named, random_scenario


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
        sc = with_weights(beta_scenario, unit_weight(beta_scenario))
        out = om.augment_scenario(sc).losses
        for orig, aug in zip(beta_scenario.losses, out):
            assert aug.name == f"{orig.name}@unit"
            assert aug.lmax == orig.lmax
            assert aug.table == orig.table
            assert input_oblivious(aug, beta_scenario.features, beta_scenario.decisions)

    def test_count_and_order(self, weighted_scenario):
        out = om.augment_scenario(weighted_scenario).losses
        assert [l.name for l in out] == [
            "steer_to_one@uniform", "steer_to_one@focus_minus",
            "steer_to_one@focus_plus", "steer_to_zero@uniform",
            "steer_to_zero@focus_minus", "steer_to_zero@focus_plus",
        ]
        assert all(l.lmax == 2.0 for l in out)  # lmax 1 times class wmax 2

    def test_pointwise_rescaling(self, beta_scenario):
        w15 = om.WeightFunction(name="tilt", mapping={"-1": 0.5, "+1": 1.5}, wmax=2.0)
        out = om.augment_scenario(with_weights(beta_scenario, w15)).losses
        steer = named(out, "steer_to_one@tilt")
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

    def test_colliding_names_are_refused(self, weighted_scenario):
        # losses "a@uniform" and "a" with weights "uniform" and
        # "uniform@uniform" both make "a@uniform@uniform"
        sc = weighted_scenario
        one, zero = sc.losses
        uniform, plus = sc.weights.weights[0], sc.weights.weights[2]
        clash = dataclasses.replace(
            sc,
            losses=(dataclasses.replace(one, name="a@uniform"),
                    dataclasses.replace(zero, name="a")),
            weights=om.WeightClass(weights=(
                uniform, dataclasses.replace(uniform, name="uniform@uniform"), plus)),
        )
        with pytest.raises(om.ConfigurationError) as exc:
            om.augment_scenario(clash)
        assert str(exc.value) == (
            "augmented loss name 'a@uniform@uniform' is made twice: by loss "
            "'a@uniform' with weight 'uniform' and by loss 'a' with weight "
            "'uniform@uniform'"
        )

    def test_names_with_at_signs_that_do_not_collide(self, weighted_scenario):
        sc = weighted_scenario
        at = dataclasses.replace(
            sc, losses=tuple(dataclasses.replace(l, name=f"{l.name}@v2")
                             for l in sc.losses))
        wide, plain = om.augment_scenario(at), om.augment_scenario(sc)
        assert [l.name for l in wide.losses] == [
            l.name.replace("@", "@v2@", 1) for l in plain.losses]
        for a, b in zip(wide.losses, plain.losses):
            assert wide.arrays.loss_values[a.name].tobytes() == (
                plain.arrays.loss_values[b.name].tobytes())


def with_weights(scenario, *functions):
    return dataclasses.replace(scenario, weights=om.WeightClass(weights=functions))


class TestShiftedDistributions:
    def test_identity_shift(self, beta_scenario):
        sc = with_weights(beta_scenario, unit_weight(beta_scenario))
        d = om.shift_distribution(sc, "unit")
        assert d.dtype == np.float64 and np.array_equal(d, sc.arrays.dist)

    def test_reweighted_masses(self, beta_scenario):
        w = om.WeightFunction(name="tilt", mapping={"-1": 0.5, "+1": 1.5}, wmax=2.0)
        d = om.shift_distribution(with_weights(beta_scenario, w), "tilt")
        assert d[0] == pytest.approx(0.25, abs=1e-15)  # canonical order: -1, +1
        assert d[1] == pytest.approx(0.75, abs=1e-15)

    def test_zero_weight_removes_support(self, beta_scenario):
        w = om.WeightFunction(name="half", mapping={"-1": 2.0, "+1": 0.0}, wmax=2.0)
        d = om.shift_distribution(with_weights(beta_scenario, w), "half")
        assert d[1] == 0.0
        assert d[0] == pytest.approx(1.0, abs=1e-15)

    def test_non_unit_mass_rejected(self, beta_scenario):
        # a weight whose shift would not be a distribution never reaches
        # shift_distribution: the scenario holding it is rejected
        w = om.WeightFunction(name="heavy", mapping={"-1": 1.0, "+1": 1.5}, wmax=2.0)
        with pytest.raises(om.WeightInvariantError):
            with_weights(beta_scenario, w)
        with pytest.raises(om.ArgumentError):
            om.shift_distribution(beta_scenario, "heavy")

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
            shifted = om.shift_distribution(with_weights(sc, w), "w")
            g = rng.random(len(pts))
            lhs = math.fsum(dist.probabilities[x] * w.weight(x) * g[i]
                            for i, x in enumerate(pts))
            rhs = math.fsum(shifted[i] * g[i] for i in range(len(pts)))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMixtures:
    def test_single_component(self, weighted_scenario):
        sc = weighted_scenario
        spec = om.MixtureSpec(components=(("focus_minus", 1.0),))
        d = om.mixture_distribution(sc, spec)
        want = om.shift_distribution(sc, "focus_minus")
        assert np.array_equal(d, want)

    def test_even_mixture_of_opposite_tilts(self, weighted_scenario):
        sc = weighted_scenario
        spec = om.MixtureSpec(components=(("focus_minus", 0.5), ("focus_plus", 0.5)))
        d = om.mixture_distribution(sc, spec)
        assert d[0] == pytest.approx(0.5, abs=1e-15)
        assert d[1] == pytest.approx(0.5, abs=1e-15)

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

    def test_coefficients_summing_past_float_range(self):
        # each is finite, but fsum of the two overflows
        with pytest.raises(om.ArgumentError, match="sum to inf, expected 1"):
            om.MixtureSpec(components=(("uniform", 1e308), ("focus_plus", 1e308)))

    def test_unknown_component_name(self, weighted_scenario):
        sc = weighted_scenario
        spec = om.MixtureSpec(components=(("nope", 1.0),))
        with pytest.raises(om.ArgumentError):
            om.mixture_distribution(sc, spec)


@st.composite
def verifier_cases(draw):
    """A weighted scenario and a prediction matrix that make the least
    hypothesis risk hard to find: duplicated hypotheses (exact ties),
    hypotheses that differ at one feature, often one of tiny mass (near
    ties), zero masses and zero weights, and k = 1 or |X| = 1."""
    n_x = draw(st.integers(1, 30))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs = tuple(f"x{i}" for i in range(n_x))
    ys = tuple(f"d{j}" for j in range(k))
    raw = rng.random(n_x) + 0.1
    if draw(st.booleans()):
        raw[rng.random(n_x) < 0.5] = 0.0
    raw[0] = 1.0
    # a feature whose mass is near one unit in the last place of a risk,
    # so rules that differ only there have equal or adjacent risks
    tiny = draw(st.sampled_from([None, 1e-15, 1e-16, 3e-17, 1e-300]))
    if tiny is not None and n_x > 1:
        raw[-1] = tiny * raw[:-1].sum()
    masses = raw / raw.sum()
    coarse = draw(st.booleans())  # values on a 0.25 grid tie more often
    nature = rng.random((n_x, k))
    losses = []
    for li in range(draw(st.integers(1, 3))):
        values = rng.random((n_x, k, 2))
        if coarse:
            values = np.round(values * 4) / 4
        losses.append(om.Loss(name=f"l{li}", lmax=1.0, table={
            x: {y: tuple(values[i, j].tolist()) for j, y in enumerate(ys)}
            for i, x in enumerate(xs)}))
    choice = [rng.integers(0, k, n_x) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 4))):
        row = choice[int(rng.integers(0, len(choice)))].copy()
        if draw(st.booleans()):  # a near tie; otherwise an exact duplicate
            i = n_x - 1 if tiny is not None else int(rng.integers(0, n_x))
            row[i] = (row[i] + 1) % k
        choice.append(row)
    hyps = tuple(
        om.Hypothesis(name=f"h{hi}", mapping={x: ys[j] for x, j in zip(xs, row)})
        for hi, row in enumerate(choice))
    functions = []
    for wi in range(draw(st.integers(1, 3))):
        values = rng.random(n_x) + 0.05
        if draw(st.booleans()):
            values[rng.random(n_x) < 0.5] = 0.0
        values[0] = 1.0
        values /= math.fsum((masses * values).tolist())
        functions.append(om.WeightFunction(
            name=f"w{wi}", mapping=dict(zip(xs, values.tolist())),
            wmax=float(values.max()) * 1.5))
    sc = om.Scenario(
        name="verifier",
        features=om.FeatureSpace(points=xs),
        decisions=om.DecisionSpace(labels=ys),
        input_distribution=om.InputDistribution(
            probabilities=dict(zip(xs, masses.tolist()))),
        nature=om.NatureModel(table={
            x: {y: float(nature[i, j]) for j, y in enumerate(ys)}
            for i, x in enumerate(xs)}),
        losses=tuple(losses),
        hypotheses=hyps,
        epsilon=0.1,
        weights=om.WeightClass(weights=tuple(functions)),
    )
    matrix = rng.random((n_x, k))
    if coarse:
        matrix = np.round(matrix, 1)
    return sc, matrix


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

    def test_mixture_count_is_capped_by_the_cell_budget(
            self, weighted_scenario, adapt_model, monkeypatch):
        # 2 features, 2 losses and 3 weights: each distribution counts
        # 2 + 3 * REPORT_CELLS cells, and ten of them fit 10 - 3 mixtures
        per = 2 + 3 * adapt.REPORT_CELLS
        monkeypatch.setattr(adapt, "CELL_BUDGET", 10 * per)
        rep = om.verify_universal_adaptability(
            adapt_model, weighted_scenario, 0.05, n_mixtures=7)
        assert len(rep.checks) == 10
        with pytest.raises(om.ConfigurationError, match="at most 7 mixtures fit"):
            om.verify_universal_adaptability(
                adapt_model, weighted_scenario, 0.05, n_mixtures=8)
        monkeypatch.setattr(adapt, "CELL_BUDGET", 2 * per)  # not even the shifts
        rep = om.verify_universal_adaptability(
            adapt_model, weighted_scenario, 0.05, n_mixtures=0)
        assert len(rep.checks) == 3
        with pytest.raises(om.ConfigurationError, match="at most 0 mixtures fit"):
            om.verify_universal_adaptability(
                adapt_model, weighted_scenario, 0.05, n_mixtures=1)

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
            loss = named(sc.losses, loss_name)
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
            mass = np.array([dist.mass(x) for x in sc.features.points])
            risks, best, slack, passed = adapt.optimality(terms, sc, mass, eps)
            h = len(sc.hypotheses)
            for j, loss in enumerate(sc.losses):
                assert risks[j] == [om.performative_risk_exact(
                    rule, sc.nature, loss, dist) for rule in rules]
                assert best[j] == min(risks[j][:h])
                assert slack[j] == risks[j][h + j] - best[j]
                assert passed[j] == (slack[j] <= 2 * eps + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(verifier_cases(), st.integers(0, 5), st.sampled_from([1e-9, 0.01, 0.2]))
    def test_report_matches_optimality_bit_for_bit(self, case, n_mixtures, eps):
        sc, q = case
        rep = om.verify_universal_adaptability(q, sc, eps, n_mixtures=n_mixtures,
                                               seed=5)
        _, terms = adapt.rule_terms(q, sc)
        h = len(sc.hypotheses)
        distributions = adapt._distributions(sc, n_mixtures, 5)
        assert [c.name for c in rep.checks] == [name for name, _ in distributions]
        for check, (_, mass) in zip(rep.checks, distributions):
            risks, best, slack, passed = adapt.optimality(terms, sc, mass, eps)
            own = [row[h + j] for j, row in enumerate(risks)]
            want = tuple(zip((l.name for l in sc.losses), own, best))
            # repr tells -0.0 from 0.0, which == does not
            assert repr(check.per_loss) == repr(want)
            assert repr(check.worst_slack) == repr(max(slack))
            assert check.passed == all(passed)
        assert rep.passed == all(c.passed for c in rep.checks)

    def test_candidates_keep_the_least_risk_past_rounding(self):
        # a's small terms are each half an ulp of 1, so a sum that adds
        # them to the leading 1 one at a time drops them all, while its
        # exact risk 1 + 3.5 ulp rounds above b's 1 + 2 ulp
        ulp = 2.0 ** -52
        a = np.array([1.0] + [ulp / 2] * 7)
        b = np.array([1.0 + 2 * ulp] + [0.0] * 7)
        masses = np.ones((3, 8))
        assert adapt._fsum_risks(np.stack([a, b]), masses[0]) == [1 + 4 * ulp, 1 + 2 * ulp]
        kept = adapt._least_risk_candidates([np.stack([a, b])], masses, 2)
        assert kept[0][:, 1].all()

    def test_exact_sums_only_for_candidates(self, weighted_scenario, adapt_model):
        # the two hypotheses' risks are far apart on every distribution,
        # so only the least one is summed exactly
        sc = weighted_scenario
        _, terms = adapt.rule_terms(adapt._model_matrix(adapt_model, sc), sc)
        masses = np.stack([m for _, m in adapt._distributions(sc, 10, 0)])
        for kept in adapt._least_risk_candidates(terms, masses, len(sc.hypotheses)):
            assert kept.sum(axis=1).tolist() == [1] * len(masses)

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
                                named(sc.losses, "steer_to_one"), sc)
        assert plain.mapping["+1"] == "+1"
        wide = om.augment_scenario(sc)
        tilted = named(wide.losses, "steer_to_one@focus_minus")
        shifted_rule = om.induced_rule(beta_nature_matrix, tilted, wide)
        assert shifted_rule.mapping["+1"] == "-1"  # tie falls to first label
        assert not any(x == "+1" and weight == "focus_minus"
                       for _, weight, x in rep.mismatches)

    def test_rounding_tie_is_reported(self, beta_scenario):
        # found by a seeded search: at x=-1 both decisions' expected plain
        # losses round to one value, so the argmin takes the first label,
        # while w(-1) * v0 and w(-1) * v1 round apart and the reweighted
        # argmin takes the second
        loss = om.Loss(name="tied", lmax=1.0, table={
            "-1": {"-1": (0.981, 0.686), "+1": (0.65, 0.688)},
            "+1": {"-1": (0.389, 0.135), "+1": (0.721, 0.525)}})
        tilt = om.WeightFunction(name="tilt", mapping={"-1": 0.31, "+1": 1.69},
                                 wmax=2.0)
        sc = with_weights(dataclasses.replace(beta_scenario, losses=(loss,)), tilt)
        q = 0.9939939939939941
        matrix = np.array([[q, q], [0.5, 0.5]])
        wide = om.augment_scenario(sc)
        plain = om.induced_rule(matrix, sc.losses[0], sc)
        shifted = om.induced_rule(matrix, wide.losses[0], wide)
        assert (plain.mapping["-1"], shifted.mapping["-1"]) == ("-1", "+1")
        rep = om.induced_rule_shift_invariance_check(matrix, sc)
        assert not rep.passed
        assert rep.mismatches == (("tied", "tilt", "-1"),)
        verdict = om.verify_universal_adaptability(matrix, sc, sc.epsilon)
        doc = dataclasses.replace(verdict, rule_invariance=rep).to_json_dict()
        assert doc["rule_invariance"] == {
            "pass": False,
            "mismatches": [{"loss": "tied", "weight": "tilt", "feature": "-1"}],
        }

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
        # the induced rules are views of their argmin indices, so no
        # rule is validated at all
        calls = count_validations(monkeypatch)
        names, _ = adapt.rule_terms(matrix, wide)
        assert calls == []
        assert names[: len(wide.hypotheses)] == tuple(h.name for h in wide.hypotheses)

    def test_model_risk_estimate_reads_own_rules(self, weighted_scenario, monkeypatch):
        sc = weighted_scenario
        xs = features_only(sc, sc.features.points * 3)
        matrix = np.full((len(sc.features.points), sc.k), 0.5)
        calls = count_validations(monkeypatch)
        for h in sc.hypotheses:
            om.model_risk_estimate(xs, matrix, h, sc.losses[0], sc)
        assert calls == []

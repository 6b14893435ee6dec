"""Additive predictor evaluation, induced rules, and model files."""

import dataclasses
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omnipredict as om

from conftest import make_beta_scenario, named, random_scenario


def with_terms(scenario, terms, epsilon=0.05):
    pred = om.base_predictor(scenario, epsilon)
    return dataclasses.replace(pred, terms=tuple(terms))


def optimal_decision_from_vector(v, loss, x, decisions):
    """Loss-optimal decision under modeled outcome probabilities v, one
    label at a time: minimizes loss(x, yhat, 0) + (loss(x, yhat, 1) -
    loss(x, yhat, 0)) * v[j] over decisions; ties go to the lowest
    canonical index."""
    best = best_value = None
    for j, yhat in enumerate(decisions.labels):
        at0, at1 = loss.values(x, yhat, 0), loss.values(x, yhat, 1)
        value = at0 + (at1 - at0) * float(v[j])
        if best_value is None or value < best_value:
            best, best_value = yhat, value
    return best


def brute_vector(terms, x, scenario):
    """Recursive reference evaluation at one feature, no shared state.

    Recomputes the full previous-step vector at every level, so the cost
    is exponential in the number of terms. Only usable on tiny inputs,
    which is the point: it cannot share the single-pass code path.
    """
    k = scenario.k
    if not terms:
        return [0.5] * k
    prev = brute_vector(terms[:-1], x, scenario)
    term = terms[-1]
    loss = named(scenario.losses, term.loss_name)
    if term.target_kind == "external":
        chosen = named(scenario.hypotheses, term.target_name).mapping[x]
    else:
        chosen = optimal_decision_from_vector(
            prev, named(scenario.losses, term.target_name), x, scenario.decisions)
    out = list(prev)
    j = scenario.decisions.labels.index(chosen)
    delta = loss.values(x, chosen, 1) - loss.values(x, chosen, 0)
    out[j] = min(1.0, max(0.0, out[j] - term.eta * delta))
    return out


def apply_term_reference(matrix, term, scenario):
    """The update step over the full matrix: a direction holding the
    loss's outcome gap at each feature's target decision and 0.0
    elsewhere, subtracted and clipped at every cell."""
    arrays = scenario.arrays
    if term.target_kind == "external":
        target_idx = arrays.hyp_index[term.target_name]
    else:
        tbase = arrays.loss_base[term.target_name]
        tdelta = arrays.loss_delta[term.target_name]
        target_idx = np.argmin(tbase + tdelta * matrix, axis=1)
    cols = np.arange(matrix.shape[1])
    delta = arrays.loss_delta[term.loss_name]
    direction = np.where(cols[np.newaxis, :] == target_idx[:, np.newaxis], delta, 0.0)
    return np.clip(matrix - term.eta * direction, 0.0, 1.0)


@st.composite
def update_cases(draw):
    """A scenario, a matrix with many cells at exactly 0 and 1, and a term
    of either kind whose step, up to 2.5 in size against gaps up to 1,
    often clips at one end or the other."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sc = random_scenario(rng, max_x=12, max_k=4, n_hyps=(1, 4))
    matrix = rng.random((len(sc.features.points), sc.k))
    ends = rng.random(matrix.shape)
    matrix[ends < draw(st.floats(0.0, 0.4))] = 0.0
    matrix[ends > draw(st.floats(0.6, 1.0))] = 1.0
    loss = draw(st.sampled_from([l.name for l in sc.losses]))
    if draw(st.booleans()):
        kind, target = "external", draw(st.sampled_from([h.name for h in sc.hypotheses]))
    else:
        kind, target = "induced", draw(st.sampled_from([l.name for l in sc.losses]))
    eta = draw(st.floats(-2.5, 2.5, allow_nan=False) | st.sampled_from([-1.0, 0.0, 1.0]))
    return sc, matrix, om.UpdateTerm(eta=eta, loss_name=loss, target_kind=kind,
                                     target_name=target)


class TestSparseUpdateStep:
    @settings(max_examples=200, deadline=None)
    @given(update_cases())
    def test_matches_dense_reference_bit_for_bit(self, case):
        sc, matrix, term = case
        before = matrix.copy()
        got = om.apply_term(matrix, term, sc)
        want = apply_term_reference(matrix, term, sc)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert matrix.tobytes() == before.tobytes()  # the input is not written


class TestEvaluate:
    def test_no_terms_is_half(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        m = om.evaluate_all(pred, beta_scenario)
        assert np.array_equal(m, np.full((2, 2), 0.5))

    def test_single_term_by_hand(self, beta_scenario):
        term = om.UpdateTerm(eta=-0.05, loss_name="steer_to_one",
                             target_kind="external", target_name="h_plus")
        pred = with_terms(beta_scenario, [term])
        u, v = om.evaluate_all(pred, beta_scenario)  # rows "-1", "+1"
        # h_plus picks "+1" there; outcome gap of steer_to_one is -1, so
        # the "+1" entry moves by eta * (-1) * (-1) = -0.05
        assert v.tolist() == [0.5, 0.45]
        assert u.tolist() == [0.45, 0.5]

    def test_clipping_both_ends(self, beta_scenario):
        up = om.UpdateTerm(eta=2.0, loss_name="steer_to_one",
                           target_kind="external", target_name="h_plus")
        dn = om.UpdateTerm(eta=-2.0, loss_name="steer_to_one",
                           target_kind="external", target_name="h_plus")
        hi = om.evaluate_all(with_terms(beta_scenario, [up]), beta_scenario)[1]
        lo = om.evaluate_all(with_terms(beta_scenario, [dn]), beta_scenario)[1]
        assert hi[1] == 1.0 and lo[1] == 0.0

    def test_nan_prediction_matrix_rejected(self, beta_scenario):
        # NaN compares false both ways, so a check for entries below 0 or
        # above 1 alone would let it through to the audits
        for bad in ([[0.5, np.nan], [0.5, 0.5]], [[0.5, 0.5], [-0.1, 0.5]],
                    [[0.5, 0.5], [0.5, np.inf]]):
            with pytest.raises(om.ArgumentError):
                om.prediction_matrix(bad, beta_scenario)
        ok = om.prediction_matrix([[0.0, 1.0], [0.5, 0.5]], beta_scenario)
        assert ok.tolist() == [[0.0, 1.0], [0.5, 0.5]]

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4,)])
    def test_prediction_matrix_of_the_wrong_shape_rejected(self, beta_scenario, shape):
        matrix = np.full(shape, 0.5)
        refusal = f"prediction matrix has shape {shape}, expected (2, 2)"
        with pytest.raises(om.ArgumentError) as exc:
            om.prediction_matrix(matrix, beta_scenario)
        assert str(exc.value) == refusal
        with pytest.raises(om.ArgumentError, match=re.escape(refusal)):
            om.induced_rule(matrix, beta_scenario.losses[0], beta_scenario)

    def test_unknown_term_references(self, beta_scenario):
        bad_loss = om.UpdateTerm(eta=0.1, loss_name="nope",
                                 target_kind="external", target_name="h_plus")
        with pytest.raises(om.ModelMismatchError):
            om.evaluate_all(with_terms(beta_scenario, [bad_loss]), beta_scenario)
        bad_hyp = om.UpdateTerm(eta=0.1, loss_name="steer_to_one",
                                target_kind="external", target_name="nope")
        with pytest.raises(om.ModelMismatchError):
            om.evaluate_all(with_terms(beta_scenario, [bad_hyp]), beta_scenario)

    def test_bad_term_kind_rejected(self):
        with pytest.raises(om.ArgumentError):
            om.UpdateTerm(eta=0.1, loss_name="l", target_kind="sideways",
                          target_name="h")

    def test_matches_recursive_definition(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            sc = random_scenario(rng, max_x=4, max_k=3)
            n_terms = int(rng.integers(0, 7))
            terms = []
            for _ in range(n_terms):
                loss = sc.losses[int(rng.integers(0, len(sc.losses)))]
                if rng.random() < 0.5:
                    target_kind = "external"
                    target = sc.hypotheses[int(rng.integers(0, len(sc.hypotheses)))].name
                else:
                    target_kind = "induced"
                    target = sc.losses[int(rng.integers(0, len(sc.losses)))].name
                terms.append(om.UpdateTerm(
                    eta=float(rng.uniform(-0.6, 0.6)), loss_name=loss.name,
                    target_kind=target_kind, target_name=target))
            pred = with_terms(sc, terms)
            got = om.evaluate_all(pred, sc)
            for i, x in enumerate(sc.features.points):
                want = brute_vector(tuple(terms), x, sc)
                assert got[i].tolist() == pytest.approx(want, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_entries_stay_in_unit_interval(self, seed, n_terms):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, max_x=4, max_k=3)
        terms = [
            om.UpdateTerm(
                eta=float(rng.uniform(-5, 5)),
                loss_name=sc.losses[int(rng.integers(0, len(sc.losses)))].name,
                target_kind="external",
                target_name=sc.hypotheses[int(rng.integers(0, len(sc.hypotheses)))].name)
            for _ in range(n_terms)
        ]
        m = om.evaluate_all(with_terms(sc, terms), sc)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)

    def test_thousand_terms_in_unit_interval(self, beta_scenario):
        rng = np.random.default_rng(5)
        terms = [
            om.UpdateTerm(
                eta=float(rng.uniform(-3, 3)),
                loss_name=("steer_to_one", "steer_to_zero")[int(rng.integers(0, 2))],
                target_kind=("external", "induced")[int(rng.integers(0, 2))],
                target_name="h_plus")
            for _ in range(1000)
        ]
        terms = [
            t if t.target_kind == "external"
            else dataclasses.replace(t, target_name="steer_to_zero")
            for t in terms
        ]
        m = om.evaluate_all(with_terms(beta_scenario, terms), beta_scenario)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)

    def test_cost_grows_linearly_not_exponentially(self, beta_scenario):
        def build(n):
            return with_terms(beta_scenario, [
                om.UpdateTerm(eta=0.01 if i % 2 else -0.01,
                              loss_name="steer_to_one", target_kind="induced",
                              target_name="steer_to_zero")
                for i in range(n)
            ])

        def clock(pred):
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                om.evaluate_all(pred, beta_scenario)
                best = min(best, time.perf_counter() - t0)
            return best

        small, large = clock(build(100)), clock(build(1000))
        # 10x the terms should cost on the order of 10x, never blow up
        assert large < 50 * max(small, 1e-5)


class TestDecisionSelection:
    def test_picks_loss_minimizer(self, beta_scenario):
        loss = named(beta_scenario.losses, "steer_to_one")
        # expected losses are 1 - v[j]; larger modeled probability wins
        assert optimal_decision_from_vector(
            [0.25, 0.75], loss, "+1", beta_scenario.decisions) == "+1"
        assert optimal_decision_from_vector(
            [0.75, 0.25], loss, "+1", beta_scenario.decisions) == "-1"

    def test_steer_to_zero_prefers_small_probability(self, beta_scenario):
        loss = named(beta_scenario.losses, "steer_to_zero")
        assert optimal_decision_from_vector(
            [0.2, 0.9], loss, "-1", beta_scenario.decisions) == "-1"

    def test_tie_takes_lowest_index(self, beta_scenario):
        loss = named(beta_scenario.losses, "steer_to_one")
        assert optimal_decision_from_vector(
            [0.5, 0.5], loss, "+1", beta_scenario.decisions) == "-1"


class TestInducedRule:
    def test_base_predictor_gives_constant_rule(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        for loss in beta_scenario.losses:
            rule = om.induced_rule(pred, loss, beta_scenario)
            assert set(rule.mapping.values()) == {"-1"}

    def test_truth_matrix_induces_optimal_rules(self, beta_scenario, beta_nature_matrix):
        copy = om.induced_rule(
            beta_nature_matrix, named(beta_scenario.losses, "steer_to_one"),
            beta_scenario)
        assert copy.mapping == {"-1": "-1", "+1": "+1"}
        negate = om.induced_rule(
            beta_nature_matrix, named(beta_scenario.losses, "steer_to_zero"),
            beta_scenario)
        assert negate.mapping == {"-1": "+1", "+1": "-1"}

    def test_agrees_with_per_feature_selection(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sc = random_scenario(rng)
            matrix = rng.random((len(sc.features.points), sc.k))
            for loss in sc.losses:
                rule = om.induced_rule(matrix, loss, sc)
                for i, x in enumerate(sc.features.points):
                    want = optimal_decision_from_vector(matrix[i], loss, x, sc.decisions)
                    assert rule.mapping[x] == want

    def test_invariant_under_affine_loss_change(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            sc = random_scenario(rng)
            matrix = rng.random((len(sc.features.points), sc.k))
            loss = sc.losses[0]
            shift = {x: float(rng.random()) for x in sc.features.points}
            table = {
                x: {y: (2.5 * v0 + shift[x], 2.5 * v1 + shift[x])
                    for y, (v0, v1) in row.items()}
                for x, row in loss.table.items()
            }
            scaled = om.Loss(name="scaled", lmax=3.5, table=table)
            sc = dataclasses.replace(sc, losses=sc.losses + (scaled,))
            own, own_scaled = named(sc.losses, loss.name), named(sc.losses, "scaled")
            assert (om.induced_rule(matrix, own, sc).mapping
                    == om.induced_rule(matrix, own_scaled, sc).mapping)


class TestModelFiles:
    def test_round_trip(self, beta_scenario, tmp_path):
        term = om.UpdateTerm(eta=-0.05, loss_name="steer_to_one",
                             target_kind="external", target_name="h_plus")
        pred = with_terms(beta_scenario, [term])
        path = tmp_path / "model.json"
        om.save_model(pred, path)
        back = om.load_model(path, beta_scenario)
        assert back == pred
        assert np.array_equal(
            om.evaluate_all(back, beta_scenario), om.evaluate_all(pred, beta_scenario))

    def test_base_round_trip(self, beta_scenario, tmp_path):
        pred = om.base_predictor(beta_scenario, 0.05)
        path = tmp_path / "base.json"
        om.save_model(pred, path)
        back = om.load_model(path, beta_scenario)
        assert np.array_equal(om.evaluate_all(back, beta_scenario), np.full((2, 2), 0.5))

    def test_scenario_name_mismatch(self, beta_scenario, tmp_path):
        pred = om.base_predictor(beta_scenario, 0.05)
        path = tmp_path / "model.json"
        om.save_model(pred, path)
        other = make_beta_scenario(0.1)
        renamed = dataclasses.replace(other, name="beta-0.1")
        with pytest.raises(om.ModelMismatchError):
            om.load_model(path, renamed)

    def test_unknown_reference_mismatch(self, beta_scenario, tmp_path):
        term = om.UpdateTerm(eta=-0.05, loss_name="steer_to_one",
                             target_kind="external", target_name="h_plus")
        pred = with_terms(beta_scenario, [term])
        path = tmp_path / "model.json"
        om.save_model(pred, path)
        smaller = dataclasses.replace(
            beta_scenario, hypotheses=(named(beta_scenario.hypotheses, "h_minus"),))
        with pytest.raises(om.ModelMismatchError):
            om.load_model(path, smaller)

    def test_malformed_document(self, beta_scenario, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"terms": []}')
        with pytest.raises(om.ModelMismatchError):
            om.load_model(path, beta_scenario)

    def test_text_that_is_not_utf8(self, beta_scenario, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"fingerprint": "\xff"}')
        with pytest.raises(om.ModelMismatchError, match="not valid JSON.*utf-8"):
            om.load_model(path, beta_scenario)

    def test_serialized_shape(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        doc = om.serialize(pred)
        assert doc["fingerprint"]["scenario"] == beta_scenario.name
        assert doc["fingerprint"]["epsilon"] == 0.05
        assert doc["fingerprint"]["adapt"] is False
        assert doc["terms"] == []

"""POI/DOI audits in all three modes, multiaccuracy, decision calibration."""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omnipredict as om
from omnipredict import audit
from omnipredict.audit import first_violation
from omnipredict.predictor import prediction_matrix

from conftest import (
    dyadic_scenario_and_data,
    io_loss_scenario,
    near_nature_matrix,
    partial_trial_data,
    random_matrix,
    random_scenario,
)


def population_beta_dataset(scenario, per_cell=4):
    """Each (x, yhat) cell holds per_cell samples with the exact
    expected number of positive outcomes for beta = 0.25."""
    rows = []
    for x in ("-1", "+1"):
        for yh in ("-1", "+1"):
            ones = (3 * per_cell) // 4 if x == yh else per_cell // 4
            for i in range(per_cell):
                rows.append((x, yh, 1 if i < ones else 0))
    xs, yhs, ys = zip(*rows)
    meta = om.RctMeta(scenario=scenario.name, seed=None, n=len(rows), gen="manual")
    return om.RctDataset(xs=xs, yhats=yhs, ys=ys, meta=meta)


def exact_err_by_enumeration(matrix, scenario, rule, loss):
    """Independent route to the audit error: difference of two closed-form
    risks, one under the predictor's outcome model and one under Nature."""
    modeled = om.outcome_table(matrix, scenario)
    model_side = om.performative_risk_exact(
        rule, modeled, loss, scenario.input_distribution)
    nature_side = om.performative_risk_exact(
        rule, scenario.nature.table, loss, scenario.input_distribution)
    return model_side - nature_side


class TestExactPoi:
    def test_truth_matrix_has_zero_errs(self, beta_scenario, beta_nature_matrix):
        errs = om.poi_err_matrix(beta_nature_matrix, beta_scenario)
        assert np.array_equal(errs, np.zeros((2, 2)))
        v, rep = om.audit_poi_exact(beta_nature_matrix, beta_scenario, 1e-15)
        assert v is None and rep.passed

    def test_flat_predictor_first_violation(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        v, rep = om.audit_poi_exact(pred, beta_scenario, 0.1)
        assert not rep.passed
        assert v.target.hypothesis == "h_plus"
        assert v.target.loss == "steer_to_one"
        assert v.err == pytest.approx(0.25, abs=1e-12)

    def test_flat_predictor_all_entries(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        _, rep = om.audit_poi_exact(pred, beta_scenario, 0.1)
        want = {
            ("h_plus", "steer_to_one"): 0.25,
            ("h_plus", "steer_to_zero"): -0.25,
            ("h_minus", "steer_to_one"): -0.25,
            ("h_minus", "steer_to_zero"): 0.25,
        }
        got = {(t.hypothesis, t.loss): e for t, e in rep.entries}
        assert got.keys() == want.keys()
        for key, val in want.items():
            assert got[key] == pytest.approx(val, abs=1e-12)

    def test_violation_at_exact_threshold(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        v, rep = om.audit_poi_exact(pred, beta_scenario, 0.25)
        assert v is not None and not rep.passed
        v2, rep2 = om.audit_poi_exact(pred, beta_scenario, 0.2500000001)
        assert v2 is None and rep2.passed

    def test_loose_eps_never_fails(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            sc = random_scenario(rng)
            q = random_matrix(rng, sc)
            v, rep = om.audit_poi_exact(q, sc, 2.0)
            assert v is None and rep.passed

    def test_errs_match_independent_enumeration(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            sc = random_scenario(rng)
            q = random_matrix(rng, sc)
            _, rep = om.audit_poi_exact(q, sc, 10.0)
            for t, err in rep.entries:
                want = exact_err_by_enumeration(
                    q, sc, sc.hypothesis_by_name(t.hypothesis),
                    sc.loss_by_name(t.loss))
                assert err == pytest.approx(want, abs=1e-12)

    def test_first_violation_is_canonical(self, beta_scenario):
        # both (h_plus, steer_to_one) and (h_minus, steer_to_zero) sit at
        # +0.25; rule-major, loss-minor order must pick the former
        pred = om.base_predictor(beta_scenario, 0.05)
        v, _ = om.audit_poi_exact(pred, beta_scenario, 0.2)
        assert (v.target.hypothesis, v.target.loss) == ("h_plus", "steer_to_one")

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(59)
        sc = random_scenario(rng, max_x=8, max_k=4, n_hyps=(4, 4))
        q = random_matrix(rng, sc)
        base = om.poi_err_matrix(q, sc, threads=1)
        for threads in (2, 4, 8):
            assert np.array_equal(base, om.poi_err_matrix(q, sc, threads=threads))


def poi_err_matrix_reference(matrix_or_pred, scenario):
    """The rule-audit kernel before the fused gather: per loss, gather
    delta and the mismatch at (x, h(x)) for every hypothesis, then
    multiply and reduce each row."""
    matrix = prediction_matrix(matrix_or_pred, scenario)
    arrays = scenario.arrays
    cols = np.arange(len(scenario.features.points))
    stacked = np.stack([arrays.hyp_index[h.name] for h in scenario.hypotheses])
    errs = np.empty((len(scenario.hypotheses), len(scenario.losses)))
    mismatch = matrix - arrays.nature
    gap_sel = mismatch[cols, stacked]
    for li, loss in enumerate(scenario.losses):
        delta = arrays.loss_delta[loss.name]
        errs[:, li] = np.add.reduce(
            arrays.dist * delta[cols, stacked] * gap_sel, axis=1
        )
    return errs


def doi_errs_reference(matrix_or_pred, scenario):
    """The decision-audit kernel before it read the fused product: per
    loss, gather delta and the mismatch at the induced rule's cells."""
    matrix = prediction_matrix(matrix_or_pred, scenario)
    arrays = scenario.arrays
    cols = np.arange(len(scenario.features.points))
    mismatch = matrix - arrays.nature
    errs = np.empty(len(scenario.losses))
    for li, loss in enumerate(scenario.losses):
        base = arrays.loss_base[loss.name]
        delta = arrays.loss_delta[loss.name]
        sel = np.argmin(base + delta * matrix, axis=1)
        errs[li] = np.add.reduce(
            arrays.dist * delta[cols, sel] * mismatch[cols, sel]
        )
    return errs


@st.composite
def kernel_cases(draw):
    """A scenario and a prediction matrix, often degenerate: one feature,
    one decision, one hypothesis, zero masses, tied rules and decisions,
    or a predictor equal to Nature."""
    n_x = draw(st.integers(1, 40))
    k = draw(st.integers(1, 4))
    n_losses = draw(st.integers(1, 3))
    n_hyps = draw(st.integers(1, 5))
    zero_masses = draw(st.booleans())
    tied = draw(st.booleans())
    at_truth = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs = tuple(f"x{i}" for i in range(n_x))
    ys = tuple(f"d{j}" for j in range(k))
    raw = rng.random(n_x) + 0.1
    if zero_masses:
        raw[rng.random(n_x) < 0.5] = 0.0
        raw[rng.integers(0, n_x)] = 1.0
    masses = raw / raw.sum()
    nature = rng.random((n_x, k))
    losses = []
    for li in range(n_losses):
        values = rng.random((n_x, k, 2))
        if tied:
            values[:] = values[:, :1, :]
        losses.append(om.Loss(
            name=f"l{li}", lmax=1.0,
            table={x: {y: tuple(values[i, j].tolist()) for j, y in enumerate(ys)}
                   for i, x in enumerate(xs)}))
    choice = rng.integers(0, k, size=(n_hyps, n_x))
    if tied:
        choice[:] = choice[0]
    hyps = tuple(
        om.Hypothesis(name=f"h{hi}",
                      mapping={x: ys[choice[hi, i]] for i, x in enumerate(xs)})
        for hi in range(n_hyps))
    sc = om.Scenario(
        name="kernel",
        features=om.FeatureSpace(points=xs),
        decisions=om.DecisionSpace(labels=ys),
        input_distribution=om.InputDistribution(
            probabilities={x: float(m) for x, m in zip(xs, masses)}),
        nature=om.NatureModel(table={
            x: {y: float(nature[i, j]) for j, y in enumerate(ys)}
            for i, x in enumerate(xs)}),
        losses=tuple(losses),
        hypotheses=hyps,
        epsilon=0.1,
    )
    matrix = sc.arrays.nature.copy() if at_truth else rng.random((n_x, k))
    return sc, matrix


class TestFusedRuleKernel:
    @settings(max_examples=80, deadline=None)
    @given(kernel_cases())
    def test_matches_reference_bit_for_bit(self, case):
        sc, q = case
        want = poi_err_matrix_reference(q, sc)
        for threads in (1, 2, 4):
            assert np.array_equal(om.poi_err_matrix(q, sc, threads=threads), want)

    @settings(max_examples=40, deadline=None)
    @given(kernel_cases())
    def test_lazy_entries_match_full_matrix(self, case):
        sc, q = case
        lazy = [e for _, e in audit.poi_entries_exact(q, sc)]
        for threads in (1, 2, 4):
            full = om.poi_err_matrix(q, sc, threads=threads).ravel()
            assert np.array_equal(np.array(lazy), full)

    @settings(max_examples=80, deadline=None)
    @given(kernel_cases())
    def test_decision_errs_match_reference_bit_for_bit(self, case):
        sc, q = case
        want = doi_errs_reference(q, sc)
        for threads in (1, 2):
            assert np.array_equal(om.doi_errs(q, sc, threads=threads), want)

    def test_long_rows_match_reference(self):
        # rows longer than numpy's 8192-element buffer and its pairwise
        # summation blocks
        rng = np.random.default_rng(61)
        sc = random_scenario(rng, max_x=2, max_k=3, n_hyps=(3, 3))
        n_x = 20_000
        xs = tuple(f"x{i}" for i in range(n_x))
        ys = sc.decisions.labels
        masses = rng.random(n_x) + 0.1
        masses /= masses.sum()
        big = om.Scenario(
            name="long",
            features=om.FeatureSpace(points=xs),
            decisions=sc.decisions,
            input_distribution=om.InputDistribution(
                probabilities={x: float(m) for x, m in zip(xs, masses)}),
            nature=om.NatureModel(table={x: {y: float(rng.random()) for y in ys}
                                         for x in xs}),
            losses=(om.Loss(name="l", lmax=1.0, table={
                x: {y: (float(rng.random()), float(rng.random())) for y in ys}
                for x in xs}),),
            hypotheses=tuple(
                om.Hypothesis(name=f"h{hi}", mapping={
                    x: ys[int(rng.integers(0, len(ys)))] for x in xs})
                for hi in range(3)),
            epsilon=0.1,
        )
        q = rng.random((n_x, big.k))
        want = poi_err_matrix_reference(q, big)
        assert np.array_equal(om.poi_err_matrix(q, big, threads=2), want)
        lazy = [e for _, e in audit.poi_entries_exact(q, big)]
        assert np.array_equal(np.array(lazy), want.ravel())


class TestExactDoi:
    def test_flat_predictor_passes(self, beta_scenario):
        # both induced rules collapse to the same constant rule, whose
        # model-over-Nature gaps cancel across the two features
        pred = om.base_predictor(beta_scenario, 0.05)
        v, rep = om.audit_doi_exact(pred, beta_scenario, 0.1)
        assert v is None and rep.passed
        assert [t.loss for t, _ in rep.entries] == ["steer_to_one", "steer_to_zero"]
        assert all(e == pytest.approx(0.0, abs=1e-12) for _, e in rep.entries)

    def test_truth_matrix_passes(self, beta_scenario, beta_nature_matrix):
        v, rep = om.audit_doi_exact(beta_nature_matrix, beta_scenario, 1e-15)
        assert v is None and rep.passed

    def test_errs_match_independent_enumeration(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            sc = random_scenario(rng)
            q = random_matrix(rng, sc)
            _, rep = om.audit_doi_exact(q, sc, 10.0)
            for t, err in rep.entries:
                loss = sc.loss_by_name(t.loss)
                rule = om.induced_rule(q, loss, sc)
                want = exact_err_by_enumeration(q, sc, rule, loss)
                assert err == pytest.approx(want, abs=1e-12)

    def test_doi_weaker_than_poi(self):
        # a DOI violation is always witnessed by some rule, so a predictor
        # passing POI over all rules passes DOI when induced rules are
        # within the audited class; here we check the contrapositive on
        # random scenarios augmented with their own induced rules
        rng = np.random.default_rng(67)
        for _ in range(10):
            sc = random_scenario(rng)
            q = random_matrix(rng, sc)
            induced = tuple(
                dataclasses.replace(om.induced_rule(q, loss, sc), name=f"ind{i}")
                for i, loss in enumerate(sc.losses))
            wide = dataclasses.replace(sc, hypotheses=sc.hypotheses + induced)
            eps = sc.epsilon
            v_poi, _ = om.audit_poi_exact(q, wide, eps)
            v_doi, _ = om.audit_doi_exact(q, wide, eps)
            if v_doi is not None:
                assert v_poi is not None


class TestEmpiricalAudits:
    def test_overestimating_predictor_doi_err(self):
        sc = om.make_beta_scenario(0.1)
        solo = dataclasses.replace(sc, losses=(sc.loss_by_name("steer_to_one"),))
        q = np.array([[0.9, 0.7], [0.7, 0.9]])  # Nature plus 0.3 everywhere
        rows = []
        for x in ("-1", "+1"):
            for yh in ("-1", "+1"):
                ones = 6 if x == yh else 4
                for i in range(10):
                    rows.append((x, yh, 1 if i < ones else 0))
        xs, yhs, ys = zip(*rows)
        data = om.RctDataset(
            xs=xs, yhats=yhs, ys=ys,
            meta=om.RctMeta(scenario=solo.name, seed=None, n=40, gen="manual"))
        v, rep = om.audit_doi_empirical(q, data, ["-1", "+1"], solo, 0.29)
        assert not rep.passed and rep.mode == "empirical"
        assert v.err == pytest.approx(-0.3, abs=1e-12)
        _, rep2 = om.audit_doi_empirical(q, data, ["-1", "+1"], solo, 0.31)
        assert rep2.passed

    def test_clean_predictor_usually_passes(self, beta_scenario, beta_nature_matrix):
        sc = beta_scenario
        n = om.required_sample_size(1.0, sc.k, len(sc.hypotheses), len(sc.losses),
                                    0.05, 0.1)
        passes = 0
        for seed in range(30):
            data = om.generate_rct(sc, n, seed)
            v, _ = om.audit_poi_empirical(
                beta_nature_matrix, data, data.xs, sc, 0.1)
            passes += v is None
        assert passes >= 25

    def test_flat_predictor_detected_at_large_n(self, beta_scenario):
        sc = beta_scenario
        pred = om.base_predictor(sc, 0.05)
        for seed in range(20):
            data = om.generate_rct(sc, 4000, seed)
            v, _ = om.audit_poi_empirical(pred, data, data.xs, sc, 0.1)
            assert v is not None
            assert (v.target.hypothesis, v.target.loss) == ("h_plus", "steer_to_one")

    def test_empirical_close_to_exact_on_population_data(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            sc, data, q = dyadic_scenario_and_data(rng)
            exact = om.poi_err_matrix(q, sc)
            _, rep = om.audit_poi_empirical(q, data, sc.features.points, sc, 10.0)
            got = {(t.hypothesis, t.loss): e for t, e in rep.entries}
            for i, h in enumerate(sc.hypotheses):
                for j, loss in enumerate(sc.losses):
                    model_side = om.model_risk_estimate(
                        sc.features.points, q, h, loss, sc)
                    # the unlabeled average weights features uniformly, not
                    # by D, so compare against the same-side recomputation
                    nature_side = om.ips_risk_estimate(data, h, loss, sc.k)
                    assert got[(h.name, loss.name)] == pytest.approx(
                        model_side - nature_side, abs=1e-12)


# Every public audit, called with eps; data is trial data for the
# empirical and cost-sensitive ones.
PUBLIC_AUDITS = {
    "poi_exact": lambda pred, sc, data, eps: om.audit_poi_exact(pred, sc, eps),
    "doi_exact": lambda pred, sc, data, eps: om.audit_doi_exact(pred, sc, eps),
    "poi_empirical": lambda pred, sc, data, eps: om.audit_poi_empirical(
        pred, data, data.xs, sc, eps),
    "doi_empirical": lambda pred, sc, data, eps: om.audit_doi_empirical(
        pred, data, data.xs, sc, eps),
    "poi_csc": lambda pred, sc, data, eps: audit.audit_poi_csc(pred, data, sc, eps),
    "via_csc": lambda pred, sc, data, eps: om.audit_via_csc(
        pred, data, sc.losses, lambda inst, rho: None, eps, sc),
    "multiaccuracy": lambda pred, sc, data, eps: om.audit_multiaccuracy(
        pred, sc, eps),
    "decision_calibration": lambda pred, sc, data, eps:
        om.audit_decision_calibration(pred, sc, eps, grid_steps=3),
}


class TestUnusableEps:
    # abs(err) >= eps is never true for a NaN or infinite eps, so every
    # audit used to pass, even a predictor that fails at eps 0.05
    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.05],
                             ids=["nan", "inf", "zero", "negative"])
    @pytest.mark.parametrize("name", list(PUBLIC_AUDITS))
    def test_rejected(self, beta_scenario, name, eps):
        pred = om.base_predictor(beta_scenario, 0.05)
        data = om.generate_rct(beta_scenario, 64, 0)
        with pytest.raises(om.ArgumentError, match="positive finite"):
            PUBLIC_AUDITS[name](pred, beta_scenario, data, eps)


class TestFirstViolation:
    def test_stops_reading_at_the_first_hit(self):
        read = []

        def entries():
            for i, err in enumerate([0.01, -0.2, 0.5, 0.9]):
                read.append(i)
                yield om.AuditTarget(kind="doi", loss=f"l{i}"), err

        v = first_violation(entries(), 0.1)
        assert (v.target.loss, v.err) == ("l1", -0.2)
        assert read == [0, 1]

    def test_bar_is_inclusive(self):
        t = om.AuditTarget(kind="doi", loss="l")
        assert first_violation([(t, -0.1)], 0.1).err == -0.1
        assert first_violation([(t, 0.0999), (t, math.nan)], 0.1) is None
        assert first_violation([], 0.1) is None

    def test_lazy_rule_audit_estimates_only_up_to_the_hit(
            self, beta_scenario, monkeypatch):
        # the flat predictor's first (hypothesis, loss) pair already
        # violates, so training's rule audit estimates one model risk
        sc = beta_scenario
        data = om.generate_rct(sc, 4000, 0)
        nature = list(audit.ips_rule_risks(data, sc))
        calls = []
        real = audit.model_risk_estimate
        monkeypatch.setattr(audit, "model_risk_estimate",
                            lambda *a: calls.append(a) or real(*a))
        entries = audit.poi_entries_empirical(
            om.base_predictor(sc, 0.05), data.xs, sc, nature)
        v = first_violation(entries, 0.1)
        assert (v.target.hypothesis, v.target.loss) == ("h_plus", "steer_to_one")
        assert len(calls) == 1

    def test_every_audit_reports_its_first_violation(self, beta_scenario):
        sc = beta_scenario
        flat = om.base_predictor(sc, 0.05)
        reports = [
            om.audit_poi_exact(flat, sc, 0.1)[1],
            om.audit_doi_exact(flat, sc, 0.01)[1],
            om.audit_multiaccuracy(flat, sc, 0.1),
            om.audit_decision_calibration(flat, sc, 0.1, grid_steps=3),
        ]
        for rep in reports:
            assert rep.violation == first_violation(rep.entries, rep.eps)
            assert rep.passed is (rep.violation is None)
        assert not reports[0].passed


def csc_costs_reference(labeled, pred, loss, sigma, scenario):
    """Cost rows built with per-sample index lookups, the loop the
    encoded columns replaced."""
    matrix = om.prediction_matrix(pred, scenario)
    arrays = scenario.arrays
    base, delta = arrays.loss_arrays_for(scenario, loss)
    n = labeled.n
    xi = np.fromiter((arrays.x_index[x] for x in labeled.xs), dtype=np.int64, count=n)
    ji = np.fromiter(
        (arrays.y_index[yh] for yh in labeled.yhats), dtype=np.int64, count=n
    )
    ys = np.asarray(labeled.ys, dtype=np.float64)
    modeled = base[xi, ji] + delta[xi, ji] * matrix[xi, ji]
    realized = base[xi, ji] + delta[xi, ji] * ys
    scale = 4.0 * scenario.k * scenario.lmax
    costs = np.zeros((n, scenario.k), dtype=np.float64)
    costs[np.arange(n), ji] = sigma * (modeled - realized) / scale
    return costs


def mean_cost_reference(instance, rule):
    """One rule lookup per sample, as before the columns were encoded."""
    cols = np.fromiter(
        (instance.decision_labels.index(rule.decide(x)) for x in instance.xs),
        dtype=np.int64,
        count=instance.n,
    )
    return float(np.add.reduce(instance.costs[np.arange(instance.n), cols])
                 / instance.n)


class TestCscKernelsMatchPerSampleLoops:
    def test_instances_and_mean_costs(self):
        rng = np.random.default_rng(211)
        for _ in range(15):
            sc = random_scenario(rng)
            q = random_matrix(rng, sc)
            data, unlogged = partial_trial_data(rng, sc, int(rng.integers(1, 400)))
            a = int(rng.integers(0, data.n))
            part = data.slice(a, data.n)
            always = om.Hypothesis(
                name="always", mapping={x: unlogged for x in sc.features.points})
            for d in (data, part):
                for loss in sc.losses:
                    for sigma in (-1, 1):
                        inst = om.build_csc_instance(d, q, loss, sigma, sc)
                        want = csc_costs_reference(d, q, loss, sigma, sc)
                        assert inst.costs.tobytes() == want.tobytes()
                        plain = om.CscInstance(
                            xs=tuple(d.xs), decision_labels=inst.decision_labels,
                            costs=inst.costs)
                        for h in sc.hypotheses + (always,):
                            ref = mean_cost_reference(inst, h)
                            assert inst.mean_cost(h) == ref
                            assert plain.mean_cost(h) == ref

    def test_empty_dataset_rejected(self, beta_scenario):
        sc = beta_scenario
        empty = om.generate_rct(sc, 10, 0).slice(4, 4)
        pred = om.base_predictor(sc, 0.05)
        with pytest.raises(om.ArgumentError):
            om.build_csc_instance(empty, pred, sc.losses[0], 1, sc)


class TestCostSensitive:
    def test_csc_rule_audit_uses_the_baseline_learner(self, beta_scenario):
        sc = beta_scenario
        data = population_beta_dataset(sc)
        flat = om.base_predictor(sc, 0.05)
        learner = lambda inst, rho: om.baseline_weak_learner(
            inst, sc.hypotheses, rho)
        expected = om.audit_via_csc(flat, data, sc.losses, learner, 0.1, sc)
        v, rep = audit.audit_poi_csc(flat, data, sc, 0.1)
        assert v is not None and v == expected
        assert rep.mode == "csc" and rep.entries == () and not rep.passed
        assert rep.violation == v

    def test_hand_costs_single_sample(self, beta_scenario):
        sc = beta_scenario
        pred = om.base_predictor(sc, 0.05)
        data = om.RctDataset(
            xs=("+1",), yhats=("+1",), ys=(1,),
            meta=om.RctMeta(scenario=sc.name, seed=None, n=1, gen="manual"))
        loss = sc.loss_by_name("steer_to_one")
        inst = om.build_csc_instance(data, pred, loss, 1, sc)
        # modeled expected loss 0.5, realized loss 0, scale 1/(4*k*lmax);
        # the cost row is zero except at the logged decision's column
        assert inst.costs[0].tolist() == pytest.approx([0.0, 0.0625], abs=1e-15)
        assert inst.mean_cost(sc.hypothesis_by_name("h_plus")) == pytest.approx(0.0625, abs=1e-15)
        assert inst.mean_cost(sc.hypothesis_by_name("h_minus")) == 0.0
        neg = om.build_csc_instance(data, pred, loss, -1, sc)
        assert neg.costs[0].tolist() == pytest.approx([0.0, -0.0625], abs=1e-15)

    def test_zero_costs_when_outcome_irrelevant(self, beta_scenario):
        sc = beta_scenario
        flat = om.Loss(name="flat", lmax=1.0,
                       table={x: {y: (0.4, 0.4) for y in sc.decisions.labels}
                              for x in sc.features.points})
        data = om.generate_rct(sc, 64, 0)
        pred = om.base_predictor(sc, 0.05)
        inst = om.build_csc_instance(data, pred, flat, 1, sc)
        assert np.all(inst.costs == 0.0)

    def test_cost_bounds(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            sc = random_scenario(rng)
            data = om.generate_rct(sc, 100, int(rng.integers(1000)))
            q = random_matrix(rng, sc)
            for sigma in (-1, 1):
                inst = om.build_csc_instance(data, q, sc.losses[0], sigma, sc)
                assert np.max(np.abs(inst.costs)) <= 1 / (4 * sc.k) + 1e-12

    def test_population_mean_cost(self, beta_scenario):
        sc = beta_scenario
        pred = om.base_predictor(sc, 0.05)
        data = population_beta_dataset(sc)
        loss = sc.loss_by_name("steer_to_one")
        inst = om.build_csc_instance(data, pred, loss, -1, sc)
        assert inst.mean_cost(sc.hypothesis_by_name("h_plus")) == -0.015625
        assert inst.mean_cost(sc.hypothesis_by_name("h_minus")) == 0.015625

    def test_flat_predictor_found_through_reduction(self, beta_scenario):
        sc = beta_scenario
        pred = om.base_predictor(sc, 0.05)
        data = population_beta_dataset(sc)

        def learner(inst, rho):
            return om.baseline_weak_learner(inst, sc.hypotheses, rho)

        v = om.audit_via_csc(pred, data, sc.losses, learner, 0.1, sc)
        assert v is not None
        assert v.target.hypothesis == "h_plus"
        assert v.target.loss == "steer_to_one"
        assert v.err == 0.25  # 4 k^2 lmax sigma mean with sigma = -1

    def test_truth_predictor_calls_learner_twice_per_loss(self, beta_scenario,
                                                          beta_nature_matrix):
        sc = beta_scenario
        data = population_beta_dataset(sc)
        calls = []

        def learner(inst, rho):
            calls.append(rho)
            return om.baseline_weak_learner(inst, sc.hypotheses, rho)

        v = om.audit_via_csc(beta_nature_matrix, data, sc.losses, learner, 0.1, sc)
        assert v is None
        assert len(calls) == 2 * len(sc.losses)

    def test_learner_contract_enforced(self, beta_scenario):
        sc = beta_scenario
        pred = om.base_predictor(sc, 0.05)
        data = population_beta_dataset(sc)
        h_minus = sc.hypothesis_by_name("h_minus")

        def bad_learner(inst, rho):
            # h_minus has positive mean cost on the first fired instance,
            # well above the -rho/2 admission bar
            return h_minus

        with pytest.raises(om.LearnerContractError):
            om.audit_via_csc(pred, data, sc.losses, bad_learner, 0.1, sc)

    def test_baseline_learner_threshold(self, beta_scenario):
        sc = beta_scenario
        pred = om.base_predictor(sc, 0.05)
        data = population_beta_dataset(sc)
        loss = sc.loss_by_name("steer_to_one")
        inst = om.build_csc_instance(data, pred, loss, -1, sc)
        found = om.baseline_weak_learner(inst, sc.hypotheses, 0.0125)
        assert found is not None and found.name == "h_plus"
        assert om.baseline_weak_learner(inst, sc.hypotheses, 1.0) is None

    def test_baseline_learner_respects_exact_bar(self, beta_scenario):
        sc = beta_scenario
        pred = om.base_predictor(sc, 0.05)
        data = population_beta_dataset(sc)
        inst = om.build_csc_instance(data, pred, sc.loss_by_name("steer_to_one"), -1, sc)
        # mean cost of h_plus is exactly -0.015625; the admission bar is
        # -rho/2, closed at the boundary
        assert om.baseline_weak_learner(inst, sc.hypotheses, 0.03125) is not None
        assert om.baseline_weak_learner(inst, sc.hypotheses, 0.03126) is None

    def test_agrees_with_exact_audit_on_population_data(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            sc, data, q = dyadic_scenario_and_data(rng)

            def learner(inst, rho, sc=sc):
                return om.baseline_weak_learner(inst, sc.hypotheses, rho)

            v_exact, _ = om.audit_poi_exact(q, sc, sc.epsilon)
            v_csc = om.audit_via_csc(q, data, sc.losses, learner, sc.epsilon, sc)
            assert (v_exact is None) == (v_csc is None)
            if v_csc is not None:
                # the reported err must be a genuine exact-audit entry
                want = exact_err_by_enumeration(
                    q, sc, sc.hypothesis_by_name(v_csc.target.hypothesis),
                    sc.loss_by_name(v_csc.target.loss))
                assert v_csc.err == pytest.approx(want, abs=1e-12)
                assert abs(v_csc.err) >= sc.epsilon - 1e-12


class TestMultiaccuracy:
    def test_truth_matrix_passes(self, beta_scenario, beta_nature_matrix):
        rep = om.audit_multiaccuracy(beta_nature_matrix, beta_scenario, 1e-15)
        assert rep.passed
        assert all(e == 0.0 for _, e in rep.entries)

    def test_flat_predictor_entries(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        rep = om.audit_multiaccuracy(pred, beta_scenario, 0.1)
        assert not rep.passed
        got = {(t.hypothesis, t.decision): e for t, e in rep.entries}
        assert got[("h_plus", "+1")] == pytest.approx(0.125, abs=1e-12)
        assert got[("h_plus", "-1")] == pytest.approx(0.125, abs=1e-12)
        assert got[("h_minus", "+1")] == pytest.approx(-0.125, abs=1e-12)
        assert got[("h_minus", "-1")] == pytest.approx(-0.125, abs=1e-12)
        assert rep.violation.err == pytest.approx(0.125, abs=1e-12)
        assert rep.violation.target.hypothesis == "h_plus"

    def test_unreached_decision_has_zero_entry(self, beta_scenario):
        sc = dataclasses.replace(
            beta_scenario,
            hypotheses=(om.Hypothesis(name="always_minus",
                                      mapping={"-1": "-1", "+1": "-1"}),))
        rng = np.random.default_rng(83)
        q = random_matrix(rng, sc)
        errs = om.multiaccuracy_errs(q, sc)
        got = {(t.hypothesis, t.decision): e
               for t, e in om.audit_multiaccuracy(q, sc, 10.0).entries}
        assert got[("always_minus", "+1")] == 0.0

    def test_sign_is_nature_minus_model(self, beta_scenario):
        # overestimating predictor must give negative entries; each rule
        # reaches a decision on half the feature mass, so the gap of 0.1
        # shows up scaled by 0.5
        q = np.array([[0.85, 0.35], [0.35, 0.85]])  # Nature + 0.1
        rep = om.audit_multiaccuracy(q, beta_scenario, 10.0)
        assert all(e == pytest.approx(-0.05, abs=1e-12) for _, e in rep.entries)

    def test_errs_match_enumeration(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            sc = random_scenario(rng)
            q = random_matrix(rng, sc)
            rep = om.audit_multiaccuracy(q, sc, 10.0)
            for t, err in rep.entries:
                h = sc.hypothesis_by_name(t.hypothesis)
                want = math.fsum(
                    sc.input_distribution.probabilities[x]
                    * (sc.nature.table[x][t.decision] - q[i, sc.decisions.labels.index(t.decision)])
                    for i, x in enumerate(sc.features.points)
                    if h.mapping[x] == t.decision
                )
                assert err == pytest.approx(want, abs=1e-12)

    def test_pass_implies_poi_on_io_losses(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            sc = io_loss_scenario(rng, n_losses=20)
            q = near_nature_matrix(rng, sc, gap=0.019)
            rep = om.audit_multiaccuracy(q, sc, 0.02)
            assert rep.passed
            v, poi = om.audit_poi_exact(q, sc, 0.04)
            assert v is None and poi.passed


def audit_decision_calibration_reference(pred, scenario, eps, grid_steps=9,
                                         allow_large_k=False):
    """The decision-calibration scan before partitions were deduplicated:
    per chunk of 4096 grid points, the full (points, |X|, k) score tensor,
    its argmin, and one region sum per grid point and decision."""
    k = scenario.k
    assert grid_steps >= 3 and (k <= 3 or allow_large_k)
    matrix = prediction_matrix(pred, scenario)
    arrays = scenario.arrays
    grid = np.linspace(-1.0, 1.0, grid_steps)
    total = grid_steps ** (2 * k)
    gap = matrix - arrays.nature
    weighted_gap = arrays.dist[:, np.newaxis] * gap
    best_abs = np.full(k, -1.0)
    best_val = np.zeros(k)
    best_combo = [None] * k
    digits = 2 * k
    for start in range(0, total, 4096):
        stop = min(start + 4096, total)
        idx = np.arange(start, stop)
        combo = np.empty((stop - start, digits))
        rem = idx.copy()
        for d in range(digits - 1, -1, -1):
            combo[:, d] = grid[rem % grid_steps]
            rem //= grid_steps
        w0 = combo[:, 0::2]
        w1 = combo[:, 1::2]
        scores = (
            w0[:, np.newaxis, :] * (1.0 - matrix[np.newaxis, :, :])
            + w1[:, np.newaxis, :] * matrix[np.newaxis, :, :]
        )
        chosen = np.argmin(scores, axis=2)
        for j in range(k):
            mask = chosen == j
            vals = np.add.reduce(mask * weighted_gap[np.newaxis, :, j], axis=1)
            local = int(np.argmax(np.abs(vals)))
            if abs(vals[local]) > best_abs[j]:
                best_abs[j] = abs(vals[local])
                best_val[j] = vals[local]
                best_combo[j] = tuple(float(v) for v in combo[local])
    targets = (
        om.AuditTarget(kind="dc", decision=yhat, weights=best_combo[j])
        for j, yhat in enumerate(scenario.decisions.labels)
    )
    return audit.audit_report(audit.EXACT, eps, zip(targets, best_val.tolist()))


@st.composite
def calibration_cases(draw):
    """A kernel case with a predictor that often ties decisions (q = 1/2
    everywhere, or q rounded to 0.1), and a grid of 3 steps up to the
    most that keeps the scan under 20 000 points; k = 4 runs on grid 3."""
    sc, q = draw(kernel_cases())
    shape = draw(st.sampled_from(["as-drawn", "half", "rounded"]))
    if shape == "half":
        q = np.full_like(q, 0.5)
    elif shape == "rounded":
        q = np.round(q, 1)
    top = {1: 9, 2: 9, 3: 5, 4: 3}[sc.k]
    grid_steps = draw(st.integers(3, top))
    return sc, q, grid_steps


def wide_scenario(rng, n_x, k):
    """Random masses and Nature over n_x features and k decisions, with
    one loss and one rule, which decision calibration does not read."""
    xs = tuple(f"x{i}" for i in range(n_x))
    ys = tuple(f"d{j}" for j in range(k))
    masses = rng.random(n_x) + 0.1
    masses /= masses.sum()
    return om.Scenario(
        name="wide",
        features=om.FeatureSpace(points=xs),
        decisions=om.DecisionSpace(labels=ys),
        input_distribution=om.InputDistribution(
            probabilities={x: float(m) for x, m in zip(xs, masses)}),
        nature=om.NatureModel(table={x: {y: float(rng.random()) for y in ys}
                                     for x in xs}),
        losses=(om.Loss(name="l", lmax=1.0, table={
            x: {y: (0.0, 1.0) for y in ys} for x in xs}),),
        hypotheses=(om.Hypothesis(name="h", mapping={x: ys[0] for x in xs}),),
        epsilon=0.1,
    )


def _same_report(got, want):
    got, want = got.to_json_dict(), want.to_json_dict()
    assert got == want
    # == takes -0.0 for 0.0; the printed report must match too
    assert json.dumps(got) == json.dumps(want)


class TestDistinctPartitionScan:
    @settings(max_examples=120, deadline=None)
    @given(calibration_cases())
    def test_matches_reference_bit_for_bit(self, case):
        sc, q, grid_steps = case
        large = sc.k > 3
        got = om.audit_decision_calibration(q, sc, 0.05, grid_steps=grid_steps,
                                            allow_large_k=large)
        want = audit_decision_calibration_reference(
            q, sc, 0.05, grid_steps=grid_steps, allow_large_k=large)
        _same_report(got, want)

    @pytest.mark.parametrize("k, grid_steps", [(1, 4), (2, 3), (3, 3)])
    def test_every_chunk_shape_matches_reference(self, monkeypatch, k, grid_steps):
        # budgets from one grid point per chunk, through part of one
        # prefix's last pairs, to several whole prefixes per chunk
        rng = np.random.default_rng(137 + k)
        n_x = 7
        sc = wide_scenario(rng, n_x, k)
        q = np.round(random_matrix(rng, sc), 1)
        want = audit_decision_calibration_reference(q, sc, 0.05, grid_steps=grid_steps)
        n_pairs = grid_steps * grid_steps
        for cells in (1, 3 * n_x, n_pairs * n_x - 1, n_pairs * n_x,
                      2 * n_pairs * n_x + 5):
            monkeypatch.setattr(audit, "_DC_CELLS", cells)
            _same_report(
                om.audit_decision_calibration(q, sc, 0.05, grid_steps=grid_steps),
                want)

    def test_long_rows_match_reference(self):
        # rows longer than numpy's 8192-element buffer, in chunks of a
        # few grid points each
        rng = np.random.default_rng(127)
        sc = wide_scenario(rng, 20_000, 2)
        q = np.round(random_matrix(rng, sc), 1)
        _same_report(
            om.audit_decision_calibration(q, sc, 0.05, grid_steps=3),
            audit_decision_calibration_reference(q, sc, 0.05, grid_steps=3))

    def test_memory_bounded_at_serving_size(self):
        # |X| 500, k 3 and grid 5 is the benchmark's serving query: the
        # per-point score tensor peaked at 159 MB there
        rng = np.random.default_rng(131)
        sc = wide_scenario(rng, 500, 3)
        q = random_matrix(rng, sc)
        tracemalloc.start()
        try:
            om.audit_decision_calibration(q, sc, 0.05, grid_steps=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestDecisionCalibration:
    def test_truth_matrix_passes(self, beta_scenario, beta_nature_matrix):
        rep = om.audit_decision_calibration(beta_nature_matrix, beta_scenario, 1e-15)
        assert rep.passed
        assert all(e == 0.0 for _, e in rep.entries)

    def test_flat_predictor_blind_spot(self, beta_scenario):
        # an input-independent predictor only induces constant rules, whose
        # gaps cancel under this Nature; the audit cannot see the failure
        # that the rule-based audits catch
        pred = om.base_predictor(beta_scenario, 0.05)
        rep = om.audit_decision_calibration(pred, beta_scenario, 1e-12)
        assert rep.passed
        assert all(e == 0.0 for _, e in rep.entries)
        v, _ = om.audit_poi_exact(pred, beta_scenario, 0.25)
        assert v is not None

    def test_entries_per_decision(self, beta_scenario):
        rng = np.random.default_rng(101)
        q = random_matrix(rng, beta_scenario)
        rep = om.audit_decision_calibration(q, beta_scenario, 0.05, grid_steps=3)
        assert len(rep.entries) == beta_scenario.k
        assert [t.decision for t, _ in rep.entries] == ["-1", "+1"]
        for t, _ in rep.entries:
            assert t.kind == "dc" and len(t.weights) == 4
            assert all(w in (-1.0, 0.0, 1.0) for w in t.weights)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(103)
        for _ in range(8):
            sc = random_scenario(rng, max_x=4, max_k=2, n_hyps=(2, 2))
            q = random_matrix(rng, sc)
            rep = om.audit_decision_calibration(q, sc, 0.05, grid_steps=3)
            labels = sc.decisions.labels
            pts = sc.features.points
            dist = sc.input_distribution.probabilities
            gap = {
                (x, y): q[i, j] - sc.nature.table[x][y]
                for i, x in enumerate(pts) for j, y in enumerate(labels)
            }
            worst = {y: 0.0 for y in labels}
            for combo in itertools.product((-1.0, 0.0, 1.0), repeat=2 * sc.k):
                w = [combo[2 * a: 2 * a + 2] for a in range(sc.k)]
                vals = {}
                for y in labels:
                    total = 0.0
                    for i, x in enumerate(pts):
                        scores = [w[a][0] * (1 - q[i, a]) + w[a][1] * q[i, a]
                                  for a in range(sc.k)]
                        chosen = labels[min(range(sc.k), key=lambda a: (scores[a], a))]
                        if chosen == y:
                            total += dist[x] * gap[(x, y)]
                    vals[y] = total
                for y in labels:
                    worst[y] = max(worst[y], abs(vals[y]))
            got = {t.decision: abs(e) for t, e in rep.entries}
            for y in labels:
                assert got[y] == pytest.approx(worst[y], abs=1e-12)

    def test_reported_weights_reproduce_err(self):
        rng = np.random.default_rng(107)
        for _ in range(6):
            sc = random_scenario(rng, max_k=3)
            q = random_matrix(rng, sc)
            rep = om.audit_decision_calibration(q, sc, 0.05, grid_steps=5)
            labels = sc.decisions.labels
            pts = sc.features.points
            dist = sc.input_distribution.probabilities
            for t, err in rep.entries:
                w = [t.weights[2 * a: 2 * a + 2] for a in range(sc.k)]
                total = 0.0
                for i, x in enumerate(pts):
                    scores = [w[a][0] * (1 - q[i, a]) + w[a][1] * q[i, a]
                              for a in range(sc.k)]
                    chosen = labels[min(range(sc.k), key=lambda a: (scores[a], a))]
                    if chosen == t.decision:
                        total += dist[x] * (q[i, labels.index(t.decision)]
                                            - sc.nature.table[x][t.decision])
                assert err == pytest.approx(total, abs=1e-12)

    def test_large_decision_space_guard(self):
        rng = np.random.default_rng(109)
        sc = random_scenario(rng, max_x=3)
        sc = dataclasses.replace(
            sc,
            decisions=om.DecisionSpace(labels=("d0", "d1", "d2", "d3")),
            nature=om.NatureModel(table={
                x: {f"d{j}": 0.5 for j in range(4)} for x in sc.features.points}),
            losses=(om.Loss(name="l", lmax=1.0,
                            table={x: {f"d{j}": (0.1, 0.9) for j in range(4)}
                                   for x in sc.features.points}),),
            hypotheses=(om.Hypothesis(
                name="h", mapping={x: "d0" for x in sc.features.points}),))
        q = rng.random((len(sc.features.points), 4))
        with pytest.raises(om.ArgumentError):
            om.audit_decision_calibration(q, sc, 0.05)
        rep = om.audit_decision_calibration(q, sc, 0.05, grid_steps=3,
                                            allow_large_k=True)
        assert len(rep.entries) == 4

    def test_grid_steps_guard(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        with pytest.raises(om.ArgumentError):
            om.audit_decision_calibration(pred, beta_scenario, 0.05, grid_steps=2)

    def test_pass_implies_doi_for_grid_losses(self):
        # losses whose outcome values sit on the calibration grid after the
        # affine map w -> (w + 1) / 2 induce exactly the grid's rules, so a
        # calibrated predictor is decision-ready for them at twice the eps
        rng = np.random.default_rng(113)
        grid = np.linspace(-1.0, 1.0, 9)
        for _ in range(10):
            sc = io_loss_scenario(rng, n_losses=12)
            tables = []
            for li in range(12):
                per = {}
                for y in sc.decisions.labels:
                    w0, w1 = rng.choice(grid), rng.choice(grid)
                    per[y] = ((w0 + 1.0) / 2.0, (w1 + 1.0) / 2.0)
                tables.append(om.io_loss(f"g{li}", 1.0, per, sc.features))
            sc = dataclasses.replace(sc, losses=tuple(tables))
            q = near_nature_matrix(rng, sc, gap=0.019)
            rep = om.audit_decision_calibration(q, sc, 0.02)
            assert rep.passed
            v, doi = om.audit_doi_exact(q, sc, 0.04 + 1e-12)
            assert v is None and doi.passed

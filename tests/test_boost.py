"""Boosting loop: convergence, the potential argument, trace contents."""

import dataclasses
import json
import math

import numpy as np
import pytest

import omnipredict as om
from omnipredict import audit, boost

from conftest import make_beta_scenario, random_scenario


def const_nature_scenario():
    """Nature ignores the decision and flips a fair coin; the base
    predictor is already exactly right, so training has nothing to do."""
    sc = make_beta_scenario(0.25)
    flat = om.NatureModel(table={
        x: {y: 0.5 for y in sc.decisions.labels} for x in sc.features.points})
    return dataclasses.replace(sc, nature=flat)


class TestIterationBound:
    def test_reference_values(self):
        assert om.iteration_bound(2, 1.0, 0.05) == 800
        assert om.iteration_bound(1, 1.0, 1.0) == 1

    def test_scaling(self):
        assert om.iteration_bound(4, 1.0, 0.05) == 2 * om.iteration_bound(2, 1.0, 0.05)
        assert om.iteration_bound(2, 2.0, 0.1) == 800

    def test_positivity_required(self):
        with pytest.raises(om.ArgumentError):
            om.iteration_bound(0, 1.0, 0.05)
        with pytest.raises(om.ArgumentError):
            om.iteration_bound(2, 1.0, 0.0)
        with pytest.raises(om.ArgumentError):
            om.iteration_bound(2, -1.0, 0.05)
        for lmax, eps in ((math.nan, 0.05), (math.inf, 0.05), (1.0, math.nan),
                          (1.0, math.inf)):
            with pytest.raises(om.ArgumentError, match="positive finite"):
                om.iteration_bound(2, lmax, eps)

    def test_bound_past_float_range_is_a_configuration_error(self):
        # eps^2 underflows to 0, lmax^2 overflows, an int k past float range
        for k, lmax, eps in ((2, 1.0, 1e-200), (2, 1e200, 0.05), (10**400, 1.0, 0.05)):
            with pytest.raises(om.ConfigurationError, match="beyond float range") as exc:
                om.iteration_bound(k, lmax, eps)
            assert f"lmax={lmax!r}, eps={eps!r}" in str(exc.value)


class TestPotential:
    def test_zero_at_truth(self, beta_scenario, beta_nature_matrix):
        assert om.potential(beta_nature_matrix, beta_scenario) == 0.0

    def test_base_value(self, beta_scenario):
        pred = om.base_predictor(beta_scenario, 0.05)
        assert om.potential(pred, beta_scenario) == pytest.approx(0.125, abs=1e-15)

    def test_bounded_by_decision_count(self):
        rng = np.random.default_rng(127)
        for _ in range(10):
            sc = random_scenario(rng)
            q = rng.random((len(sc.features.points), sc.k))
            p = om.potential(q, sc)
            assert 0.0 <= p <= sc.k + 1e-12


class TestExactTraining:
    def test_beta_example(self, beta_scenario):
        sc = beta_scenario
        res = om.poi_boost(sc, om.BoostConfig(epsilon=0.05))
        assert res.termination == "converged"
        assert 0 < res.trace.updates <= 800
        v, rep = om.audit_poi_exact(res.predictor, sc, 0.05)
        assert v is None and rep.passed
        v2, rep2 = om.audit_doi_exact(res.predictor, sc, 0.05)
        assert v2 is None and rep2.passed
        for loss in sc.losses:
            rule = om.induced_rule(res.predictor, loss, sc)
            risk = om.performative_risk_exact(
                rule, sc.nature.table, loss, sc.input_distribution)
            assert risk <= 0.35
            assert abs(risk - 0.25) <= 0.02

    def test_already_clean_needs_no_updates(self):
        sc = const_nature_scenario()
        res = om.poi_boost(sc, om.BoostConfig(epsilon=0.05))
        assert res.termination == "converged"
        assert res.trace.updates == 0
        assert res.predictor.terms == ()

    def test_eps_above_lmax_is_immediate(self, beta_scenario):
        res = om.poi_boost(beta_scenario, om.BoostConfig(epsilon=1.1))
        assert res.termination == "converged" and res.trace.updates == 0

    def test_trace_step_sizes_and_signs(self, beta_scenario):
        res = om.poi_boost(beta_scenario, om.BoostConfig(epsilon=0.05))
        step = 0.05  # epsilon / lmax^2 with lmax = 1
        for rec in res.trace.records:
            assert abs(rec.err) >= 0.05 - 1e-12
            assert rec.eta == math.copysign(step, rec.err)
            assert rec.stage in ("poi", "doi")
        assert [rec.t for rec in res.trace.records] == list(
            range(1, res.trace.updates + 1))

    def test_potential_drops_each_update(self, beta_scenario):
        sc = beta_scenario
        res = om.poi_boost(sc, om.BoostConfig(epsilon=0.05))
        prev = om.potential(om.base_predictor(sc, 0.05), sc)
        assert prev == pytest.approx(0.125, abs=1e-15)
        for rec in res.trace.records:
            assert rec.potential is not None
            drop = prev - rec.potential
            assert drop >= 0.05 ** 2 - 1e-9
            prev = rec.potential

    def test_update_terms_mirror_trace(self, beta_scenario):
        res = om.poi_boost(beta_scenario, om.BoostConfig(epsilon=0.05))
        assert len(res.predictor.terms) == res.trace.updates
        for term, rec in zip(res.predictor.terms, res.trace.records):
            assert term.eta == rec.eta
            assert term.loss_name == rec.target.loss
            if rec.stage == "poi":
                assert term.target_kind == "external"
                assert term.target_name == rec.target.hypothesis
            else:
                assert term.target_kind == "induced"
                assert term.target_name == rec.target.loss

    def test_fingerprint(self, beta_scenario):
        res = om.poi_boost(beta_scenario, om.BoostConfig(epsilon=0.05))
        fp = res.predictor.fingerprint
        assert fp.scenario == "beta-0.25"
        assert fp.epsilon == 0.05
        assert fp.lmax == 1.0
        assert fp.adapt is False

    def test_random_suite_bound_and_omniprediction(self):
        rng = np.random.default_rng(131)
        for _ in range(15):
            sc = random_scenario(rng)
            eps = sc.epsilon
            res = om.poi_boost(sc, om.BoostConfig(epsilon=eps))
            assert res.termination == "converged"
            assert res.trace.updates <= om.iteration_bound(sc.k, 1.0, eps)
            prev = om.potential(om.base_predictor(sc, eps), sc)
            for rec in res.trace.records:
                assert prev - rec.potential >= eps ** 2 - 1e-9
                prev = rec.potential
            for loss in sc.losses:
                rule = om.induced_rule(res.predictor, loss, sc)
                risk = om.performative_risk_exact(
                    rule, sc.nature.table, loss, sc.input_distribution)
                best = min(
                    om.performative_risk_exact(
                        h, sc.nature.table, loss, sc.input_distribution)
                    for h in sc.hypotheses)
                assert risk <= best + 2 * eps + 1e-12


def count_rows_read(monkeypatch):
    """Record, per rule audit, the hypothesis rows training computes."""
    audits = []
    make_rows = audit._rule_err_rows

    def counted(*args):
        rows = make_rows(*args)
        read = []
        audits.append(read)

        def wrapper(sel):
            read.extend(range(sel.start, sel.stop))
            return rows(sel)

        return wrapper

    monkeypatch.setattr(audit, "_rule_err_rows", counted)
    return audits


class TestRuleScanStopsAtFirstViolation:
    def test_reads_no_row_past_the_violating_one(self, monkeypatch):
        rng = np.random.default_rng(137)
        early = 0
        for _ in range(6):
            sc = random_scenario(rng, n_hyps=(5, 9))
            audits = count_rows_read(monkeypatch)
            res = om.poi_boost(sc, om.BoostConfig(epsilon=sc.epsilon))
            names = [h.name for h in sc.hypotheses]
            every = list(range(len(names)))
            want = [
                every[: names.index(rec.target.hypothesis) + 1]
                if rec.stage == "poi" else every
                for rec in res.trace.records
            ]
            # the converged pass reads every row
            assert audits == want + [every]
            early += sum(len(read) < len(names) for read in audits)
        assert early > 0

    def test_training_matches_a_full_matrix_scan(self, monkeypatch):
        rng = np.random.default_rng(139)
        scenarios = [random_scenario(rng, n_hyps=(5, 9)) for _ in range(4)]
        lazy = [om.poi_boost(sc, om.BoostConfig(epsilon=sc.epsilon))
                for sc in scenarios]

        def full_scan(pred, scenario):
            errs = om.poi_err_matrix(pred, scenario).ravel().tolist()
            return audit._rule_entries(scenario, errs)

        monkeypatch.setattr(boost, "poi_entries", full_scan)
        for sc, res in zip(scenarios, lazy):
            full = om.poi_boost(sc, om.BoostConfig(epsilon=sc.epsilon))
            assert res.trace == full.trace and res.predictor == full.predictor


class TestPotentialEnforced:
    def test_update_that_misses_the_drop_raises(self, beta_scenario, monkeypatch):
        monkeypatch.setattr(boost, "apply_term", lambda matrix, term, sc: matrix)
        with pytest.raises(om.BoundExceededError, match="potential") as info:
            om.poi_boost(beta_scenario, om.BoostConfig(epsilon=0.05))
        trace = info.value.trace
        assert trace.updates == 1
        # the no-op update leaves the all-1/2 potential in place
        assert trace.records[0].potential == pytest.approx(0.125, abs=1e-15)

    def test_estimated_modes_are_not_held_to_it(self, beta_scenario, monkeypatch):
        monkeypatch.setattr(boost, "apply_term", lambda matrix, term, sc: matrix)
        data = om.generate_rct(beta_scenario, 4000, 0)
        res = om.poi_boost(beta_scenario, om.BoostConfig(
            epsilon=0.1, mode="empirical", data=data, poi_n=2000, doi_n=100))
        assert res.termination == "bound_exceeded"
        assert res.trace.updates == om.iteration_bound(2, 1.0, 0.1)


class TestConfigValidation:
    def test_bad_epsilon(self, beta_scenario):
        for eps in (0.0, -0.05, math.nan, math.inf):
            with pytest.raises(om.ArgumentError):
                om.poi_boost(beta_scenario, om.BoostConfig(epsilon=eps))

    def test_bad_mode(self, beta_scenario):
        with pytest.raises(om.ArgumentError):
            om.poi_boost(beta_scenario, om.BoostConfig(epsilon=0.05, mode="magic"))

    def test_estimated_modes_need_data(self, beta_scenario):
        with pytest.raises(om.ConfigurationError):
            om.poi_boost(beta_scenario, om.BoostConfig(epsilon=0.05, mode="empirical"))
        data = om.generate_rct(beta_scenario, 100, 0)
        with pytest.raises(om.ConfigurationError):
            om.poi_boost(beta_scenario, om.BoostConfig(
                epsilon=0.05, mode="empirical", data=data))
        with pytest.raises(om.ConfigurationError):
            om.poi_boost(beta_scenario, om.BoostConfig(
                epsilon=0.05, mode="empirical", data=data, poi_n=200, doi_n=10))


class TestEstimatedTraining:
    def test_empirical_converges_on_beta(self, beta_scenario):
        sc = beta_scenario
        data = om.generate_rct(sc, 20000, 0)
        res = om.poi_boost(sc, om.BoostConfig(
            epsilon=0.05, mode="empirical", data=data, poi_n=10000, doi_n=150))
        assert res.termination == "converged"
        assert all(rec.potential is None for rec in res.trace.records)
        # sampling noise allows some slack against the exact audit
        v, _ = om.audit_poi_exact(res.predictor, sc, 0.15)
        assert v is None

    def test_empirical_predictor_passes_the_audit_it_trained_against(
            self, beta_scenario):
        # training and audit_poi_empirical read one rule: the fixed prefix
        # that cleared training's last rule audit clears the audit too
        sc = beta_scenario
        data = om.generate_rct(sc, 20000, 0)
        res = om.poi_boost(sc, om.BoostConfig(
            epsilon=0.05, mode="empirical", data=data, poi_n=10000, doi_n=150))
        assert res.termination == "converged" and res.trace.updates > 0
        v, rep = om.audit_poi_empirical(
            res.predictor, data.slice(0, 10000), data, sc, 0.05)
        assert v is None and rep.passed
        # and the first update's err is that audit's first violation
        # for the flat predictor training starts from
        first = res.trace.records[0]
        _, flat = om.audit_poi_empirical(
            om.base_predictor(sc, 0.05), data.slice(0, 10000), data, sc, 0.05)
        assert first.stage == "poi"
        assert (first.target, first.err) == (
            flat.violation.target, flat.violation.err)

    def test_csc_converges_on_beta(self, beta_scenario):
        sc = beta_scenario
        data = om.generate_rct(sc, 24000, 7)
        res = om.poi_boost(sc, om.BoostConfig(
            epsilon=0.05, mode="csc", data=data, poi_n=12000, doi_n=150))
        assert res.termination == "converged"
        v, _ = om.audit_poi_exact(res.predictor, sc, 0.15)
        assert v is None

    def test_data_exhaustion(self):
        sc = const_nature_scenario()
        data = om.generate_rct(sc, 100, 3)
        # the first decision audit would need a fresh slice past the end
        # of the data, so the split is refused before training
        with pytest.raises(om.ConfigurationError):
            om.poi_boost(sc, om.BoostConfig(
                epsilon=0.8, mode="empirical", data=data, poi_n=90, doi_n=20))

    def test_adapt_flag_stamps_fingerprint(self):
        sc = om.load_scenario("scenarios/beta025_weights.json")
        wide = om.augment_scenario(sc)
        res = om.poi_boost(wide, om.BoostConfig(epsilon=0.05, adapt=True))
        assert res.termination == "converged"
        assert res.predictor.fingerprint.adapt is True
        v, _ = om.audit_poi_exact(res.predictor, wide, 0.05)
        assert v is None


class TestTraceFile:
    def test_round_trip_shape(self, beta_scenario, tmp_path):
        res = om.poi_boost(beta_scenario, om.BoostConfig(epsilon=0.05))
        path = tmp_path / "trace.jsonl"
        om.write_trace(res.trace, path)
        lines = path.read_text().splitlines()
        assert len(lines) == res.trace.updates
        for line, rec in zip(lines, res.trace.records):
            obj = json.loads(line)
            assert obj["t"] == rec.t
            assert obj["stage"] == rec.stage
            assert obj["err"] == rec.err
            assert obj["eta"] == rec.eta
            assert obj["potential"] == rec.potential

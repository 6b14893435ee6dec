"""Acceptance checks, one per numbered criterion.

Each test appends a single "ACCEPTANCE n: PASS/FAIL" line to the shared
list in conftest, which is echoed in a terminal section after the run.
The line is recorded before the assert so failures still show up there.
"""

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import omnipredict as om
from omnipredict import cli

from conftest import (
    ACCEPTANCE_LINES,
    dyadic_scenario_and_data,
    io_loss_scenario,
    near_nature_matrix,
    random_scenario,
)

REPO = Path(__file__).resolve().parent.parent
BETA = str(REPO / "scenarios" / "beta025.json")
BETA_W = str(REPO / "scenarios" / "beta025_weights.json")


def _report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def exact_suite():
    """Fifty randomized exact-mode training runs, shared by criteria 2 and 3."""
    rng = np.random.default_rng(20260817)
    runs = []
    started = time.perf_counter()
    for i in range(50):
        sc = random_scenario(rng, name=f"acc2-{i}")
        res = om.poi_boost(sc, om.BoostConfig(epsilon=sc.epsilon))
        runs.append((sc, res))
    elapsed = time.perf_counter() - started
    return runs, elapsed


def test_01_beta_example_optimality(beta_scenario):
    started = time.perf_counter()
    res = om.poi_boost(beta_scenario, om.BoostConfig(epsilon=0.05))
    elapsed = time.perf_counter() - started
    ok = res.termination == "converged" and elapsed < 1.0
    risks = []
    for loss in beta_scenario.losses:
        rule = om.induced_rule(res.predictor, loss, beta_scenario)
        risk = om.performative_risk_exact(
            rule, beta_scenario.nature, loss,
            beta_scenario.input_distribution)
        risks.append(risk)
        ok = ok and risk <= 0.25 + 0.10 + 1e-12 and abs(risk - 0.25) <= 0.02
    _report(1, ok,
            f"risks {[round(r, 4) for r in risks]}, "
            f"{res.trace.updates} updates in {elapsed:.3f}s")


def test_02_iteration_bound(exact_suite):
    runs, elapsed = exact_suite
    ok = elapsed < 30.0
    worst_frac = 0.0
    for sc, res in runs:
        bound = om.iteration_bound(sc.k, 1.0, sc.epsilon)
        ok = ok and res.trace.updates <= bound
        worst_frac = max(worst_frac, res.trace.updates / bound)
        prev = om.potential(om.base_predictor(sc, sc.epsilon), sc)
        for rec in res.trace.records:
            ok = ok and prev - rec.potential >= sc.epsilon ** 2 - 1e-9
            prev = rec.potential
    _report(2, ok,
            f"50 runs in {elapsed:.2f}s, worst update/bound ratio "
            f"{worst_frac:.3f}")


def test_03_oi_implies_omniprediction(exact_suite):
    runs, _ = exact_suite
    ok = all(res.termination == "converged" for _, res in runs)
    worst_excess = -math.inf
    for sc, res in runs:
        for loss in sc.losses:
            rule = om.induced_rule(res.predictor, loss, sc)
            risk = om.performative_risk_exact(
                rule, sc.nature, loss, sc.input_distribution)
            best = min(
                om.performative_risk_exact(
                    h, sc.nature, loss, sc.input_distribution)
                for h in sc.hypotheses)
            worst_excess = max(worst_excess, risk - best - 2 * sc.epsilon)
            ok = ok and risk <= best + 2 * sc.epsilon + 1e-12
    _report(3, ok, f"worst excess over 2*eps bound {worst_excess:.2e}")


def test_04_constant_predictor_negative(beta_scenario):
    half = np.full((2, 2), 0.5)
    v, _ = om.audit_poi_exact(half, beta_scenario, beta_scenario.epsilon)
    ok = (v is not None
          and v.target.hypothesis == "h_plus"
          and v.target.loss == "steer_to_one"
          and abs(v.err - 0.25) <= 1e-12)
    vd, rep_d = om.audit_doi_exact(half, beta_scenario, beta_scenario.epsilon)
    ok = ok and vd is None and rep_d.passed
    _report(4, ok,
            f"POI violation ({v.target.hypothesis}, {v.target.loss}) "
            f"err {v.err:+.3f}, DOI passed {rep_d.passed}")


def test_05_ips_concentration(beta_scenario):
    n = om.required_sample_size(1, 2, 2, 2, 0.05, 0.1)
    exact = {
        (h.name, loss.name): om.performative_risk_exact(
            h, beta_scenario.nature, loss, beta_scenario.input_distribution)
        for h in beta_scenario.hypotheses
        for loss in beta_scenario.losses
    }
    started = time.perf_counter()
    exceed = 0
    for seed in range(100):
        data = om.generate_rct(beta_scenario, n, seed)
        dev = max(
            abs(om.ips_risk_estimate(data, h, loss, beta_scenario.k)
                - exact[(h.name, loss.name)])
            for h in beta_scenario.hypotheses
            for loss in beta_scenario.losses)
        if dev > 0.05:
            exceed += 1
    elapsed = time.perf_counter() - started
    ok = exceed <= 15 and elapsed < 60.0
    _report(5, ok,
            f"n={n}, {exceed}/100 trials exceeded 0.05, {elapsed:.2f}s")


def test_06_csc_agreement():
    rng = np.random.default_rng(6)
    agreements = 0
    ok = True
    for _ in range(100):
        sc, data, matrix = dyadic_scenario_and_data(rng)

        def learner(inst, rho, _sc=sc):
            return om.baseline_weak_learner(inst, _sc.hypotheses, rho)

        v_csc = om.audit_via_csc(matrix, data, sc.losses, learner,
                                 sc.epsilon, sc)
        v_exact, _ = om.audit_poi_exact(matrix, sc, sc.epsilon)
        if (v_csc is None) == (v_exact is None):
            agreements += 1
        else:
            ok = False

        calls = 0
        clean = np.array([[sc.nature.table[x][y]
                           for y in sc.decisions.labels]
                          for x in sc.features.points])

        def counting(inst, rho, _sc=sc):
            nonlocal calls
            calls += 1
            return om.baseline_weak_learner(inst, _sc.hypotheses, rho)

        v_clean = om.audit_via_csc(clean, data, sc.losses, counting,
                                   sc.epsilon, sc)
        ok = ok and v_clean is None and calls == 2 * len(sc.losses)
    _report(6, ok, f"existence agreement {agreements}/100, "
                   f"clean call count 2|L| in every case")


def test_07_ma_implies_poi():
    rng = np.random.default_rng(7)
    ok = True
    checked = 0
    for i in range(20):
        sc = io_loss_scenario(rng, 100, name=f"acc7-{i}")
        q = near_nature_matrix(rng, sc, gap=0.019)
        ma = om.audit_multiaccuracy(q, sc, 0.02)
        ok = ok and ma.passed  # precondition: the predictor is multiaccurate
        v, _ = om.audit_poi_exact(q, sc, 0.04)
        ok = ok and v is None
        checked += 1
    _report(7, ok, f"{checked} scenarios x 100 input-oblivious losses")


def test_08_universal_adaptability(tmp_path):
    model_path = tmp_path / "adapt.json"
    started = time.perf_counter()
    code, _, _ = _cli("train", "--config", BETA_W, "--epsilon", "0.05",
                      "--adapt", "--out", str(model_path))
    ok = code == 0
    code, out, _ = _cli("adapt-verify", "--config", BETA_W,
                        "--model", str(model_path))
    elapsed = time.perf_counter() - started
    ok = ok and code == 0 and elapsed < 10.0
    doc = json.loads(out) if code in (0, 3) else {}
    mixture_checks = [d for d in doc.get("distributions", [])
                      if d["name"].startswith("mixture:")]
    ok = (ok and doc.get("pass") is True
          and len(mixture_checks) == 10
          and all(d["pass"] for d in doc.get("distributions", [])))

    # induced rules must agree with the unweighted ones on the support
    sc = om.load_scenario(BETA_W)
    aug = om.augment_scenario(sc)
    model = om.load_model(model_path, aug)
    matrix = om.prediction_matrix(model, aug)
    aug_by_name = {l.name: l for l in aug.losses}
    for loss in sc.losses:
        plain = om.induced_rule(matrix, loss, sc)
        for w in sc.weights.weights:
            shifted = om.induced_rule(
                matrix, aug_by_name[f"{loss.name}@{w.name}"], sc)
            for x in sc.features.points:
                if w.mapping[x] > 0:
                    ok = ok and shifted.mapping[x] == plain.mapping[x]
    _report(8, ok,
            f"verify exit {code}, {len(mixture_checks)} mixtures, "
            f"{elapsed:.2f}s")


def test_09_determinism(tmp_path):
    data = tmp_path / "d.jsonl"
    assert _cli("rct-gen", "--config", BETA, "--n", "20000", "--seed", "0",
                "--out", str(data))[0] == 0

    def train(tag, *extra):
        out = tmp_path / f"m{tag}.json"
        code, _, err = _cli("train", "--config", BETA, "--epsilon", "0.05",
                            "--out", str(out), *extra)
        assert code == 0, err
        return out.read_bytes() + Path(str(out) + ".trace.jsonl").read_bytes()

    ok = train("a") == train("b") == train("c", "--threads", "4")
    emp = ("--mode", "empirical", "--data", str(data))
    ok = ok and train("ea", *emp) == train("eb", *emp) == train(
        "ec", "--threads", "4", *emp)

    model = str(tmp_path / "ma.json")
    audits = [_cli("audit", "--config", BETA, "--model", model, *extra)
              for extra in ((), (), ("--threads", "4"))]
    ok = ok and all(c == 0 for c, _, _ in audits)
    ok = ok and audits[0][1] == audits[1][1] == audits[2][1]

    def evaluate(tag):
        out = tmp_path / f"t{tag}.csv"
        code, _, _ = _cli("eval", "--config", BETA, "--model", model,
                          "--out", str(out))
        assert code == 0
        return out.read_bytes()

    ok = ok and evaluate("a") == evaluate("b")
    _report(9, ok, "train/audit/eval byte-identical across reruns and "
                   "thread counts")

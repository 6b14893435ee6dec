"""Command-line interface: exit codes, outputs, file contracts."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import omnipredict as om
from omnipredict import adapt, boost, cli, predictor

REPO = Path(__file__).resolve().parent.parent
BETA = str(REPO / "scenarios" / "beta025.json")
BETA_W = str(REPO / "scenarios" / "beta025_weights.json")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def model_path(workdir):
    path = workdir / "model.json"
    code, _, err = run("train", "--config", BETA, "--epsilon", "0.05",
                       "--out", str(path))
    assert code == 0, err
    return str(path)


@pytest.fixture(scope="module")
def loose_model_path(workdir):
    # at epsilon 0.3 the base predictor is already clean, so the model
    # keeps its 0.25-sized gaps and fails tighter audits
    path = workdir / "loose.json"
    code, _, _ = run("train", "--config", BETA, "--epsilon", "0.3",
                     "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def adapt_model_path(workdir):
    path = workdir / "adapt.json"
    code, _, err = run("train", "--config", BETA_W, "--epsilon", "0.05",
                       "--adapt", "--out", str(path))
    assert code == 0, err
    return str(path)


class TestParsing:
    def test_no_command(self):
        code, _, _ = run()
        assert code == 1

    def test_unknown_command(self):
        code, _, _ = run("frobnicate")
        assert code == 1

    def test_missing_required_flag(self):
        code, _, _ = run("train", "--config", BETA, "--epsilon", "0.05")
        assert code == 1

    def test_bad_flag_value(self):
        code, _, _ = run("rct-gen", "--config", BETA, "--n", "ten",
                         "--out", "x.jsonl")
        assert code == 1

    def test_removed_flags(self, workdir, model_path):
        assert run("train", "--config", BETA, "--epsilon", "0.05", "--seed", "1",
                   "--out", str(workdir / "seeded.json"))[0] == 1
        assert run("eval", "--config", BETA, "--model", model_path,
                   "--threads", "2", "--out", str(workdir / "t.csv"))[0] == 1


class TestScenarioShow:
    def test_summary_contents(self):
        code, out, _ = run("scenario-show", "--config", BETA)
        assert code == 0
        for needle in ("beta-0.25", "-1", "+1", "steer_to_one",
                       "steer_to_zero", "h_plus", "h_minus", "0.05"):
            assert needle in out

    def test_weights_listed(self):
        code, out, _ = run("scenario-show", "--config", BETA_W)
        assert code == 0
        for needle in ("uniform", "focus_minus", "focus_plus"):
            assert needle in out

    def test_missing_file(self, workdir):
        code, _, err = run("scenario-show", "--config", str(workdir / "nope.json"))
        assert code == 2

    def test_incomplete_nature_names_pair(self, workdir):
        doc = om.scenario_to_dict(om.make_beta_scenario(0.25))
        del doc["nature"]["+1"]["-1"]
        path = workdir / "holey.json"
        path.write_text(json.dumps(doc))
        code, _, err = run("scenario-show", "--config", str(path))
        assert code == 2
        assert "'+1'" in err and "'-1'" in err


class TestRctGen:
    def test_generates_file(self, workdir):
        path = workdir / "trial.jsonl"
        code, _, _ = run("rct-gen", "--config", BETA, "--n", "10",
                         "--seed", "5", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 11
        data = om.read_jsonl(path, om.make_beta_scenario(0.25))
        assert data.meta.seed == 5 and data.n == 10

    def test_zero_samples_is_usage_error(self, workdir):
        code, _, _ = run("rct-gen", "--config", BETA, "--n", "0",
                         "--out", str(workdir / "zero.jsonl"))
        assert code == 1

    def test_negative_seed_is_usage_error(self, workdir):
        path = workdir / "neg_seed.jsonl"
        code, _, err = run("rct-gen", "--config", BETA, "--n", "10",
                           "--seed", "-1", "--out", str(path))
        assert code == 1
        assert "--seed" in err and "Traceback" not in err
        assert not path.exists()

    def test_deterministic_bytes(self, workdir):
        a, b = workdir / "a.jsonl", workdir / "b.jsonl"
        for path in (a, b):
            assert run("rct-gen", "--config", BETA, "--n", "200", "--seed", "9",
                       "--out", str(path))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        c = workdir / "c.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "200", "--seed", "10",
                   "--out", str(c))[0] == 0
        assert c.read_bytes() != a.read_bytes()


class TestTrain:
    def test_writes_model_and_trace(self, model_path):
        model = Path(model_path)
        assert model.exists()
        trace = Path(model_path + ".trace.jsonl")
        assert trace.exists()
        doc = json.loads(model.read_text())
        assert doc["fingerprint"]["scenario"] == "beta-0.25"
        assert len(trace.read_text().splitlines()) == len(doc["terms"])

    def test_loose_epsilon_trains_empty_model(self, workdir):
        path = workdir / "huge_eps.json"
        code, _, _ = run("train", "--config", BETA, "--epsilon", "1.5",
                         "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["terms"] == []

    def test_estimated_mode_requires_data(self, workdir):
        code, _, _ = run("train", "--config", BETA, "--mode", "empirical",
                         "--epsilon", "0.05", "--out", str(workdir / "m.json"))
        assert code == 1

    def test_empirical_training_via_file(self, workdir):
        data = workdir / "train.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "20000", "--seed", "0",
                   "--out", str(data))[0] == 0
        out = workdir / "emp.json"
        code, _, err = run("train", "--config", BETA, "--mode", "empirical",
                           "--epsilon", "0.05", "--data", str(data),
                           "--out", str(out))
        assert code == 0, err
        assert out.exists()

    def test_csc_training_via_file(self, workdir):
        data = workdir / "train_csc.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "20000", "--seed", "1",
                   "--out", str(data))[0] == 0
        out = workdir / "csc.json"
        code, _, err = run("train", "--config", BETA, "--mode", "csc",
                           "--epsilon", "0.05", "--data", str(data),
                           "--out", str(out))
        assert code == 0, err

    def test_adapt_needs_weight_class(self, workdir):
        code, _, _ = run("train", "--config", BETA, "--epsilon", "0.05",
                         "--adapt", "--out", str(workdir / "nope.json"))
        assert code == 2

    def test_bound_exceeded_is_guarantee_failure(self, workdir):
        # 50 noisy samples cannot certify a 0.05 audit, so rounds repeat
        # until the update bound trips
        data = workdir / "tiny.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "60", "--seed", "2",
                   "--out", str(data))[0] == 0
        out = workdir / "starved.json"
        code, _, err = run("train", "--config", BETA, "--mode", "empirical",
                           "--epsilon", "0.05", "--data", str(data),
                           "--poi-n", "50", "--doi-n", "30", "--out", str(out))
        assert code == 3
        assert "bound_exceeded" in err
        assert not out.exists()

    def test_missed_potential_drop_fails_and_writes_trace(
            self, workdir, monkeypatch):
        # an update that leaves the predictor unchanged breaks the
        # potential argument on its first step
        monkeypatch.setattr(boost, "apply_term", lambda matrix, term, sc: matrix)
        out = workdir / "stalled.json"
        trace = workdir / "stalled.trace.jsonl"
        code, _, err = run("train", "--config", BETA, "--epsilon", "0.05",
                           "--out", str(out), "--trace", str(trace))
        assert code == 3
        assert "potential" in err
        assert not out.exists()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["t"] for r in records] == [1]
        assert records[0]["potential"] == pytest.approx(0.125, abs=1e-15)

    def test_exhausted_data_is_config_error(self, workdir):
        # POI passes at the loose epsilon, then the first rule audit wants
        # 30 fresh samples with only 10 unread
        data = workdir / "tiny2.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "60", "--seed", "2",
                   "--out", str(data))[0] == 0
        out = workdir / "starved2.json"
        code, _, err = run("train", "--config", BETA, "--mode", "empirical",
                           "--epsilon", "0.5", "--data", str(data),
                           "--poi-n", "50", "--doi-n", "30", "--out", str(out))
        assert code == 2
        assert "exhausted" in err
        assert not out.exists()


    def test_truncated_data_is_config_error(self, workdir):
        data = workdir / "cut.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "10", "--seed", "0",
                   "--out", str(data))[0] == 0
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:6]) + "\n")  # header, 5 samples
        out = workdir / "cut.json"
        code, _, err = run("train", "--config", BETA, "--mode", "empirical",
                           "--epsilon", "0.05", "--data", str(data),
                           "--out", str(out))
        assert code == 2
        assert str(data) in err and "n=10" in err and "5 samples" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, extra", [
        (lambda doc: doc["input_distribution"].update({"-1": math.nan}), ()),
        (lambda doc: doc["losses"][0].update(lmax=math.inf), ()),
        (lambda doc: doc["weights"][0].update(wmax=math.inf), ("--adapt",)),
    ], ids=["nan-mass", "inf-lmax", "inf-wmax"])
    def test_non_finite_scenario_number_is_config_error(self, workdir, edit,
                                                        extra):
        doc = json.loads(Path(BETA_W).read_text())
        edit(doc)
        config = workdir / "non_finite.json"
        config.write_text(json.dumps(doc))  # writes NaN / Infinity literals
        out = workdir / "non_finite_model.json"
        code, _, err = run("train", "--config", str(config), "--epsilon",
                           "0.05", "--out", str(out), *extra)
        assert code == 2, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0"])
    def test_unusable_epsilon_is_usage_error(self, workdir, eps):
        out = workdir / "eps.json"
        code, _, err = run("train", "--config", BETA, f"--epsilon={eps}",
                           "--out", str(out))
        assert code == 1
        assert "--epsilon" in err and "positive finite" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestAudit:
    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_unusable_epsilon_is_usage_error(self, model_path, eps):
        code, out, err = run("audit", "--config", BETA, "--model", model_path,
                             "--epsilon", eps)
        assert code == 1
        assert "positive finite" in err and out == ""

    @pytest.mark.parametrize("outcome", ["true", "1.0"])
    def test_non_integer_outcome_in_data_file(self, workdir, model_path,
                                              outcome):
        bad = workdir / "float_y.jsonl"
        bad.write_text('{"x":"+1","yhat":"+1","y":1}\n'
                       f'{{"x":"-1","yhat":"+1","y":{outcome}}}\n')
        code, _, err = run("audit", "--config", BETA, "--model", model_path,
                           "--mode", "empirical", "--data", str(bad))
        assert code == 2
        assert f"{bad}:2" in err

    def test_data_from_another_scenario(self, workdir, model_path):
        data = workdir / "foreign.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "50", "--seed", "1",
                   "--out", str(data))[0] == 0
        lines = data.read_text().splitlines()
        lines[0] = lines[0].replace('"beta-0.25"', '"some-other-scenario"')
        data.write_text("\n".join(lines) + "\n")
        for mode in ("empirical", "csc"):
            code, _, err = run("audit", "--config", BETA, "--model", model_path,
                               "--mode", mode, "--data", str(data))
            assert code == 2
            assert "some-other-scenario" in err

    def test_clean_model_passes(self, model_path):
        code, out, _ = run("audit", "--config", BETA, "--model", model_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["poi"]["pass"] is True and doc["doi"]["pass"] is True
        assert len(doc["poi"]["targets"]) == 4
        assert doc["poi"]["eps"] == 0.05  # model fingerprint supplies eps

    def test_violation_exits_three_and_names_target(self, loose_model_path):
        code, out, _ = run("audit", "--config", BETA, "--model", loose_model_path,
                           "--epsilon", "0.05")
        assert code == 3
        doc = json.loads(out)
        assert doc["pass"] is False
        v = doc["poi"]["violation"]
        assert v["target"]["hypothesis"] == "h_plus"
        assert v["target"]["loss"] == "steer_to_one"
        assert abs(v["err"] - 0.25) < 1e-12

    def test_empirical_mode(self, workdir, model_path):
        data = workdir / "audit.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "14023", "--seed", "3",
                   "--out", str(data))[0] == 0
        code, out, _ = run("audit", "--config", BETA, "--model", model_path,
                           "--mode", "empirical", "--epsilon", "0.2",
                           "--data", str(data))
        assert code == 0
        doc = json.loads(out)
        assert doc["poi"]["mode"] == "empirical"

    def test_csc_mode(self, workdir, model_path):
        data = workdir / "audit_csc.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "14023", "--seed", "4",
                   "--out", str(data))[0] == 0
        code, out, _ = run("audit", "--config", BETA, "--model", model_path,
                           "--mode", "csc", "--epsilon", "0.2",
                           "--data", str(data))
        assert code == 0
        doc = json.loads(out)
        assert doc["poi"]["mode"] == "csc"
        assert doc["poi"]["targets"] == []

    def test_estimated_mode_requires_data(self, model_path):
        code, _, _ = run("audit", "--config", BETA, "--model", model_path,
                         "--mode", "empirical")
        assert code == 1

    def test_model_config_mismatch(self, model_path):
        code, _, _ = run("audit", "--config", BETA_W, "--model", model_path)
        assert code == 2

    def test_malformed_data_file(self, workdir, model_path):
        bad = workdir / "bad.jsonl"
        bad.write_text('{"x":"+1","yhat":"+1","y":1}\nnot json\n')
        code, _, err = run("audit", "--config", BETA, "--model", model_path,
                           "--mode", "empirical", "--data", str(bad))
        assert code == 2
        assert ":2" in err


def tampered_model(workdir, source, name, edit):
    """A copy of a model file with edit applied to its document."""
    doc = json.loads(Path(source).read_text())
    edit(doc)
    path = workdir / name
    path.write_text(json.dumps(doc))  # writes NaN / Infinity literals
    return str(path)


class TestNonFiniteModelNumbers:
    def test_nan_eta_is_config_error(self, workdir, model_path):
        # abs(nan) >= eps is false, so a NaN err used to pass the audit
        def edit(doc):
            doc["terms"][0]["eta"] = math.nan

        model = tampered_model(workdir, model_path, "nan_eta.json", edit)
        code, out, err = run("audit", "--config", BETA, "--model", model)
        assert code == 2 and out == ""
        assert "eta" in err and "Traceback" not in err

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -0.05],
                             ids=["inf", "nan", "zero", "negative"])
    def test_unusable_epsilon_is_config_error(self, workdir, loose_model_path,
                                              eps):
        # an empty model has risk 1/2 for both losses; eval's 2*eps rule
        # called it optimal under an infinite epsilon
        assert json.loads(Path(loose_model_path).read_text())["terms"] == []

        def edit(doc):
            doc["fingerprint"]["epsilon"] = eps

        model = tampered_model(workdir, loose_model_path, "bad_eps.json", edit)
        out_csv = workdir / "bad_eps.csv"
        out_csv.unlink(missing_ok=True)
        code, _, err = run("eval", "--config", BETA, "--model", model,
                           "--out", str(out_csv))
        assert code == 2
        assert "epsilon" in err and "Traceback" not in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("lmax", [math.nan, math.inf, -math.inf])
    def test_non_finite_lmax_is_config_error(self, workdir, model_path, lmax):
        def edit(doc):
            doc["fingerprint"]["lmax"] = lmax

        model = tampered_model(workdir, model_path, "bad_lmax.json", edit)
        code, out, err = run("audit", "--config", BETA, "--model", model)
        assert code == 2 and out == ""
        assert "lmax" in err and "Traceback" not in err


class TestEval:
    def test_table_contents(self, workdir, model_path):
        out_csv = workdir / "table.csv"
        code, out, _ = run("eval", "--config", BETA, "--model", model_path,
                           "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "rule,loss,risk,optimal_within_2eps"
        assert len(lines) == 9  # 2 rules x 2 losses + 2 induced x 2 losses
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows[:4]] == ["h_plus", "h_plus",
                                            "h_minus", "h_minus"]
        assert rows[4][0].startswith("f~(")
        verdicts = {(r[0], r[1]): r[3] for r in rows}
        assert verdicts[("f~(steer_to_one)", "steer_to_one")] == "true"
        assert verdicts[("f~(steer_to_zero)", "steer_to_zero")] == "true"
        assert verdicts[("h_plus", "steer_to_one")] == ""
        assert float(verdicts[("h_plus", "steer_to_one")] or "0") == 0.0
        risks = {(r[0], r[1]): float(r[2]) for r in rows}
        assert risks[("h_plus", "steer_to_one")] == pytest.approx(0.25, abs=1e-12)
        assert risks[("f~(steer_to_one)", "steer_to_one")] == pytest.approx(
            0.25, abs=1e-12)

    def test_shift_changes_flat_model_risks(self, workdir):
        # a flat predictor induces constant rules, whose risk moves when
        # the input distribution tilts; a well-trained model's would not
        flat = workdir / "flat_w.json"
        assert run("train", "--config", BETA_W, "--epsilon", "1.5",
                   "--out", str(flat))[0] == 0
        plain = workdir / "plain.csv"
        shifted = workdir / "shifted.csv"
        assert run("eval", "--config", BETA_W, "--model", str(flat),
                   "--out", str(plain))[0] == 0
        code, _, _ = run("eval", "--config", BETA_W, "--model", str(flat),
                         "--shift", "focus_minus", "--out", str(shifted))
        assert code == 0
        assert plain.read_text() != shifted.read_text()

    def test_unknown_shift_name(self, workdir, adapt_model_path):
        code, _, _ = run("eval", "--config", BETA_W, "--model", adapt_model_path,
                         "--shift", "nope", "--out", str(workdir / "x.csv"))
        assert code == 1

    def test_shift_needs_weight_class(self, workdir, model_path):
        code, _, _ = run("eval", "--config", BETA, "--model", model_path,
                         "--shift", "uniform", "--out", str(workdir / "x.csv"))
        assert code == 1

    def test_mixture_flag(self, workdir, adapt_model_path):
        out_csv = workdir / "mix.csv"
        code, _, _ = run("eval", "--config", BETA_W, "--model", adapt_model_path,
                         "--mixture", "focus_minus:0.5,focus_plus:0.5",
                         "--out", str(out_csv))
        assert code == 0
        assert out_csv.exists()

    def test_bad_mixture_flag(self, workdir, adapt_model_path):
        for flag in ("focus_minus:0.5", "focus_minus:0.6,focus_plus:0.6",
                     "focus_minus", "focus_minus:x,focus_plus:y",
                     "uniform:nan,focus_plus:1"):
            code, _, _ = run("eval", "--config", BETA_W,
                             "--model", adapt_model_path,
                             "--mixture", flag, "--out", str(workdir / "y.csv"))
            assert code == 1, flag

    def test_rows_are_exact_risks_and_verdicts_match_adapt_verify(
            self, workdir, adapt_model_path):
        # a plain model stamped with a tighter epsilon than it was trained
        # to fails on some shifts and for some losses, so both verdicts occur
        stamped = workdir / "stamped.json"
        assert run("train", "--config", BETA_W, "--epsilon", "0.3",
                   "--out", str(stamped))[0] == 0
        doc = json.loads(stamped.read_text())
        doc["fingerprint"]["epsilon"] = 0.05
        stamped.write_text(json.dumps(doc))
        sc = om.load_scenario(BETA_W)
        mixture = "focus_minus:0.25,focus_plus:0.75"
        spec = om.MixtureSpec(components=(("focus_minus", 0.25),
                                          ("focus_plus", 0.75)))
        flags = [(), ("--mixture", mixture)] + [
            ("--shift", w.name) for w in sc.weights.weights]
        verdicts = []
        for model in (adapt_model_path, str(stamped)):
            pred, target = adapt.load_model_with_scenario(model, sc)
            matrix = om.prediction_matrix(pred, target)
            rules = {h.name: h for h in sc.hypotheses}
            rules.update((f"f~({l.name})", om.induced_rule(matrix, l, sc))
                         for l in sc.losses)
            code, out, _ = run("adapt-verify", "--config", BETA_W,
                               "--model", model, "--epsilon", "0.05",
                               "--mixtures", "0")
            assert code in (0, 3)
            verified = {d["name"]: d["pass"]
                        for d in json.loads(out)["distributions"]}
            for flag in flags:
                out_csv = workdir / "exact.csv"
                assert run("eval", "--config", BETA_W, "--model", model,
                           *flag, "--out", str(out_csv))[0] == 0
                dist = sc.input_distribution
                if flag[:1] == ("--shift",):
                    dist = om.shift_distribution(dist, sc.weights.by_name(flag[1]))
                elif flag:
                    dist = om.mixture_distribution(dist, sc.weights, spec)
                rows = [line.split(",")
                        for line in out_csv.read_text().splitlines()[1:]]
                for rule, loss, risk, _ in rows:
                    assert float(risk) == om.performative_risk_exact(
                        rules[rule], sc.nature, sc.loss_by_name(loss), dist)
                if flag[:1] == ("--shift",):
                    own = [r[3] for r in rows if r[3]]
                    assert len(own) == len(sc.losses)
                    verdicts += own
                    passed = own == ["true"] * len(own)
                    assert passed == verified[f"weight:{flag[1]}"], (model, flag)
        assert set(verdicts) == {"true", "false"}

    def test_shift_and_mixture_conflict(self, workdir, adapt_model_path):
        code, _, _ = run("eval", "--config", BETA_W, "--model", adapt_model_path,
                         "--shift", "uniform",
                         "--mixture", "focus_minus:0.5,focus_plus:0.5",
                         "--out", str(workdir / "z.csv"))
        assert code == 1


class TestAdaptVerify:
    def test_trained_adapt_model_passes(self, adapt_model_path):
        code, out, _ = run("adapt-verify", "--config", BETA_W,
                           "--model", adapt_model_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["rule_invariance"]["pass"] is True
        assert len(doc["distributions"]) == 13

    def test_mixture_count_flag(self, adapt_model_path):
        code, out, _ = run("adapt-verify", "--config", BETA_W,
                           "--model", adapt_model_path, "--mixtures", "3")
        assert code == 0
        assert len(json.loads(out)["distributions"]) == 6

    def test_unprepared_model_fails(self, workdir, loose_model_path):
        # same scenario family, but trained with the plain losses and a
        # loose epsilon: the weighted distributions expose its gaps
        code, out, _ = run("train", "--config", BETA_W, "--epsilon", "0.3",
                           "--out", str(workdir / "w_loose.json"))
        assert code == 0
        code, out, _ = run("adapt-verify", "--config", BETA_W,
                           "--model", str(workdir / "w_loose.json"),
                           "--epsilon", "0.05")
        assert code == 3
        assert json.loads(out)["pass"] is False

    def test_unusable_epsilon_is_usage_error(self, adapt_model_path):
        code, _, err = run("adapt-verify", "--config", BETA_W,
                           "--model", adapt_model_path, "--epsilon", "nan")
        assert code == 1
        assert "positive finite" in err

    def test_negative_seed_is_usage_error(self, adapt_model_path):
        code, out, err = run("adapt-verify", "--config", BETA_W,
                             "--model", adapt_model_path, "--seed", "-1")
        assert code == 1 and out == ""
        assert "--seed" in err and "Traceback" not in err

    def test_requires_weight_class(self, model_path):
        code, _, _ = run("adapt-verify", "--config", BETA, "--model", model_path)
        assert code == 2

    def test_builds_the_augmented_scenario_and_replays_once(
            self, adapt_model_path, monkeypatch):
        calls = {"augment": 0, "replay": 0}
        augment, replay = adapt.augment_scenario, predictor.evaluate_all

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(adapt, "augment_scenario",
                            counted("augment", augment))
        monkeypatch.setattr(predictor, "evaluate_all", counted("replay", replay))
        code, out, _ = run("adapt-verify", "--config", BETA_W,
                           "--model", adapt_model_path)
        assert code == 0 and json.loads(out)["pass"] is True
        assert calls == {"augment": 1, "replay": 1}

    def test_shifts_each_weight_once_and_augments_losses_once(
            self, adapt_model_path, monkeypatch):
        # 3 weights and 10 mixtures: the mixtures reuse the 3 shifts, and
        # the invariance check reads the scenario's arrays, so the only
        # augment_losses call is the one that loads the adapt model
        calls = {"shift": 0, "augment_losses": 0}
        shift, augment = adapt.shift_distribution, adapt.augment_losses

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(adapt, "shift_distribution", counted("shift", shift))
        monkeypatch.setattr(adapt, "augment_losses",
                            counted("augment_losses", augment))
        code, out, _ = run("adapt-verify", "--config", BETA_W,
                           "--model", adapt_model_path)
        assert code == 0 and len(json.loads(out)["distributions"]) == 13
        assert calls == {"shift": 3, "augment_losses": 1}


class TestThreads:
    def test_env_fallback(self, model_path, monkeypatch):
        monkeypatch.setenv("OMNI_THREADS", "4")
        code, out, _ = run("audit", "--config", BETA, "--model", model_path)
        assert code == 0
        monkeypatch.setenv("OMNI_THREADS", "0")
        code, _, _ = run("audit", "--config", BETA, "--model", model_path)
        assert code == 1

    def test_flag_overrides_env(self, model_path, monkeypatch):
        monkeypatch.setenv("OMNI_THREADS", "0")
        code, _, _ = run("audit", "--config", BETA, "--model", model_path,
                         "--threads", "2")
        assert code == 0

    def test_negative_flag_rejected(self, model_path):
        code, _, _ = run("audit", "--config", BETA, "--model", model_path,
                         "--threads", "-1")
        assert code == 1


class TestEntryPoint:
    def test_module_invocation(self):
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "omnipredict.cli", "scenario-show",
             "--config", BETA],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "beta-0.25" in proc.stdout

    def test_package_main(self):
        # python -m omnipredict from the source tree, without an install
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "omnipredict", "scenario-show",
             "--config", BETA],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "beta-0.25" in proc.stdout
        proc = subprocess.run(
            [sys.executable, "-m", "omnipredict", "scenario-show",
             "--config", str(REPO / "scenarios" / "missing.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr

    def test_console_script(self):
        # the [project.scripts] entry, run the way pip's generated wrapper
        # runs it, so the check needs no installed copy of the package
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(REPO / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts.get("omnipredict") == "omnipredict.cli:main"
        module, func = scripts["omnipredict"].split(":")
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.argv[0] = 'omnipredict'; sys.exit({func}())")
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path}

        def script(*argv):
            return subprocess.run([sys.executable, "-c", wrapper, *argv],
                                  capture_output=True, text=True, env=env)

        proc = script("scenario-show", "--config", BETA)
        assert proc.returncode == 0, proc.stderr
        assert "beta-0.25" in proc.stdout
        # main's return value, not just "no exception", is the exit status
        proc = script("scenario-show", "--config",
                      str(REPO / "scenarios" / "missing.json"))
        assert proc.returncode == 2, proc.stderr

    @pytest.mark.skipif(shutil.which("omnipredict") is None,
                        reason="omnipredict console script not installed")
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["omnipredict", "scenario-show", "--config", BETA],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "beta-0.25" in proc.stdout

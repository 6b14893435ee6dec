"""Command-line interface: exit codes, outputs, file contracts."""

import contextlib
import hashlib
import io
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import omnipredict as om
from omnipredict import adapt, boost, cli, predictor

from conftest import make_beta_scenario, mid_scenario_doc, named, scenario_to_dict

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
        assert run("audit", "--config", BETA, "--model", model_path,
                   "--threads", "2")[0] == 1


# A scenario document, an edit of it, and the message that refuses the
# edited file. A rule names a decision by its string label only, so -1
# does not name decision "-1".
FILE_REFUSALS = {
    "rule-label-number": (json.loads(Path(BETA).read_text()),
                          lambda d: d["hypotheses"][0]["map"].update({"+1": -1}),
                          "rule 'h_plus' maps '+1' to unknown decision -1"),
    "rule-label-boolean": (json.loads(Path(BETA).read_text()),
                           lambda d: d["hypotheses"][0]["map"].update({"+1": True}),
                           "rule 'h_plus' maps '+1' to unknown decision True"),
    "squared-forecast-range": (
        json.loads(Path(BETA).read_text()),
        lambda d: d["losses"].append({"builtin": "squared_forecast"}),
        "squared_forecast needs decision labels in [0, 1], got '-1'"),
    "squared-forecast-text": (
        mid_scenario_doc(n_x=3, k=2, n_losses=0, n_hyps=1),
        lambda d: d["losses"].append({"builtin": "squared_forecast"}),
        "squared_forecast needs numeric decision labels, got 'd0'"),
}

# Per table kind, an edit of beta025_weights.json that adds the unknown
# key "zzz", and the message that refuses it.
UNKNOWN_KEYS = {
    "rule": (lambda d: d["hypotheses"][0]["map"].update(zzz="+1"),
             "rule 'h_plus' has an entry for unknown feature 'zzz'"),
    "nature": (lambda d: d["nature"].update(zzz={"-1": 0.5, "+1": 0.5}),
               "outcome model has an entry for unknown feature 'zzz'"),
    "nature_row": (lambda d: d["nature"]["+1"].update(zzz=0.5),
                   "outcome model has an entry for unknown decision 'zzz' at feature '+1'"),
    "loss": (lambda d: d["losses"][1]["table"].update(zzz={}),
             "loss 'steer_to_zero' has an entry for unknown feature 'zzz'"),
    "loss_row": (lambda d: d["losses"][0]["table"]["-1"].update(zzz=[1, 0]),
                 "loss 'steer_to_one' has an entry for unknown decision 'zzz' at feature '-1'"),
    "weight": (lambda d: d["weights"][1]["map"].update(zzz=1.0),
               "weight function 'focus_minus' has an entry for unknown feature 'zzz'"),
}


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
        doc = scenario_to_dict(make_beta_scenario(0.25))
        del doc["nature"]["+1"]["-1"]
        path = workdir / "holey.json"
        path.write_text(json.dumps(doc))
        code, _, err = run("scenario-show", "--config", str(path))
        assert code == 2
        assert "'+1'" in err and "'-1'" in err

    def test_construction_error_names_the_file(self, workdir):
        doc = json.loads(Path(BETA).read_text())
        doc["nature"]["-1"]["-1"] = 1.5
        path = workdir / "beta_bad_prob.json"
        path.write_text(json.dumps(doc))
        code, _, err = run("scenario-show", "--config", str(path))
        assert code == 2
        assert err == (f"error: scenario file {path}: outcome probability 1.5 "
                       "at ('-1', '-1') is outside [0, 1]\n")

    @pytest.mark.parametrize("kind", sorted(UNKNOWN_KEYS))
    def test_unknown_key_is_refused(self, workdir, kind):
        edit, message = UNKNOWN_KEYS[kind]
        doc = json.loads(Path(BETA_W).read_text())
        edit(doc)
        path = workdir / f"unknown_{kind}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run("scenario-show", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: scenario file {path}: {message}\n"

    @pytest.mark.parametrize("case", sorted(FILE_REFUSALS))
    def test_refusal_names_the_file(self, workdir, case):
        doc, edit, message = FILE_REFUSALS[case]
        doc = json.loads(json.dumps(doc))
        edit(doc)
        path = workdir / f"refused_{case}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run("scenario-show", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: scenario file {path}: {message}\n"

    def test_weight_error_keeps_its_type_and_names_the_file(self, workdir):
        doc = json.loads(Path(BETA_W).read_text())
        doc["weights"][0]["wmax"] = -1.0
        path = workdir / "beta_bad_wmax.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(om.WeightInvariantError, match="wmax") as exc:
            om.load_scenario(path)
        assert str(exc.value).startswith(f"scenario file {path}: ")
        assert run("scenario-show", "--config", str(path))[0] == 2


class TestRctGen:
    def test_generates_file(self, workdir):
        path = workdir / "trial.jsonl"
        code, _, _ = run("rct-gen", "--config", BETA, "--n", "10",
                         "--seed", "5", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 11
        data = om.read_jsonl(path, make_beta_scenario(0.25))
        assert data.meta.seed == 5 and data.n == 10

    def test_zero_samples_is_usage_error(self, workdir):
        path = workdir / "zero.jsonl"
        code, out, err = run("rct-gen", "--config", BETA, "--n", "0",
                             "--out", str(path))
        assert code == 1 and out == ""
        assert "--n" in err and "Traceback" not in err
        assert not path.exists()

    def test_negative_seed_is_usage_error(self, workdir):
        path = workdir / "neg_seed.jsonl"
        code, _, err = run("rct-gen", "--config", BETA, "--n", "10",
                           "--seed", "-1", "--out", str(path))
        assert code == 1
        assert "--seed" in err and "Traceback" not in err
        assert not path.exists()

    def test_request_too_large_to_hold_is_config_error(self, tmp_path):
        # 10**15 samples need petabytes: the first draw fails at once,
        # before anything is allocated
        path = tmp_path / "huge.jsonl"
        code, out, err = run("rct-gen", "--config", BETA, "--n", str(10**15),
                             "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: rct-gen: not enough memory: ")
        assert err.count("\n") == 1 and "Traceback" not in err
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

    def test_exact_train_bytes_are_pinned(self, workdir):
        # a mid-size scenario with built-in and random losses, one table
        # out of key order, trained through 65 rule and 3 decision
        # updates; the digests were taken before the update step, the
        # built-in losses and the table reads were vectorized
        config, out = workdir / "mid.json", workdir / "mid_model.json"
        config.write_text(json.dumps(mid_scenario_doc()))
        code, _, err = run("train", "--config", str(config), "--epsilon", "0.03",
                           "--out", str(out))
        assert code == 0, err
        digest = lambda path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert digest(out) == (
            "7c6e472b625772bf34e20a5768673b3dfc70096838bbb044f5d1201bdb7898e1")
        assert digest(f"{out}.trace.jsonl") == (
            "5a6ae9fd37a72990439ed2873922d0a137aa3d5ba9752b40ad9f4efaf69b3446")

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

    @pytest.mark.parametrize("flag, value", [
        ("--data", "/nonexistent/train.jsonl"), ("--poi-n", "10"), ("--doi-n", "2"),
    ])
    def test_exact_mode_refuses_data_flags(self, tmp_path, flag, value):
        # exact training reads no trial data: the flag is refused before
        # any file is read or written
        code, out, err = run("train", "--config", BETA, "--epsilon", "0.05",
                             flag, value, "--out", str(tmp_path / "m.json"))
        assert code == 1 and out == ""
        assert err == f"error: {flag} is not used in exact mode\n"
        assert list(tmp_path.iterdir()) == []

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
        # until the update bound trips; the split leaves one decision slice
        data = workdir / "tiny.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "60", "--seed", "2",
                   "--out", str(data))[0] == 0
        out = workdir / "starved.json"
        code, _, err = run("train", "--config", BETA, "--mode", "empirical",
                           "--epsilon", "0.05", "--data", str(data),
                           "--poi-n", "50", "--doi-n", "10", "--out", str(out))
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
        # the first decision audit reads the last 5 samples and fails, so
        # the next one finds none unread
        data = workdir / "tiny2.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "60", "--seed", "2",
                   "--out", str(data))[0] == 0
        out = workdir / "starved2.json"
        code, _, err = run("train", "--config", BETA, "--mode", "empirical",
                           "--epsilon", "0.5", "--data", str(data),
                           "--poi-n", "55", "--doi-n", "5", "--out", str(out))
        assert code == 2
        assert "exhausted" in err
        assert not out.exists()


    @pytest.mark.parametrize("mode", ["empirical", "csc"])
    def test_one_sample_names_the_data_size(self, workdir, mode):
        # the default rule-audit prefix is half the data, none of one sample
        data = workdir / "one.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "1", "--out", str(data))[0] == 0
        out = workdir / f"one_{mode}.json"
        code, stdout, err = run("train", "--config", BETA, "--mode", mode,
                                "--epsilon", "0.05", "--data", str(data),
                                "--out", str(out))
        assert code == 2
        assert err == (
            f"error: training data {data} has 1 sample; {mode} training needs "
            "at least 2: a prefix for the rule audits and a fresh slice for "
            "each decision audit\n")
        assert stdout == "" and not out.exists()
        # two samples are enough: at epsilon 5 no estimate, each at most
        # 2 (an IPS weight of k = 2), can violate, so one audit of each
        # kind settles
        two = workdir / "two.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "2", "--out", str(two))[0] == 0
        code, _, err = run("train", "--config", BETA, "--mode", mode,
                           "--epsilon", "5", "--data", str(two), "--out", str(out))
        assert code == 0, err

    @pytest.mark.parametrize("mode", ["empirical", "csc"])
    def test_split_past_the_data_is_refused_up_front(self, workdir, mode):
        # a prefix of all the data leaves no fresh slice for a decision
        # audit, so training could only run to the update bound
        data = workdir / "one.jsonl"
        assert run("rct-gen", "--config", BETA, "--n", "1", "--out", str(data))[0] == 0
        out = workdir / f"split_{mode}.json"
        trace = workdir / f"split_{mode}.trace.jsonl"
        code, stdout, err = run("train", "--config", BETA, "--mode", mode,
                                "--epsilon", "0.05", "--data", str(data),
                                "--poi-n", "1", "--out", str(out),
                                "--trace", str(trace))
        assert code == 2
        assert err == (
            "error: poi_n=1 plus doi_n=1 exceeds the dataset size 1, so "
            "training could never converge\n")
        assert stdout == "" and not out.exists() and not trace.exists()

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

    @pytest.mark.parametrize("n, shown", [("1e400", "inf"), ("2.5", "2.5"),
                                          ("true", "True")])
    def test_header_n_that_is_no_count_is_data_error(self, workdir, n, shown):
        data = workdir / "huge_n.jsonl"
        data.write_text('{"meta":{"scenario":"beta-0.25","seed":0,"n":' + n
                        + ',"gen":""}}\n{"x":"+1","yhat":"+1","y":1}\n')
        out = workdir / "huge_n.json"
        code, _, err = run("train", "--config", BETA, "--mode", "empirical",
                           "--epsilon", "0.05", "--data", str(data),
                           "--out", str(out))
        assert code == 2
        assert err == (f"error: {data}:1: bad metadata: n must be a "
                       f"non-negative integer, got {shown}\n")
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

    @pytest.mark.parametrize("config, edit, extra", [
        (BETA, None, ("--epsilon", "1e-200")),
        (BETA, lambda doc: doc["losses"][0].update(lmax=1e200), ("--epsilon", "0.05")),
        (BETA_W, lambda doc: doc["weights"][0].update(wmax=1e200),
         ("--epsilon", "0.05", "--adapt")),
    ], ids=["tiny-epsilon", "huge-lmax", "huge-wmax-adapt"])
    def test_bound_past_float_range_is_config_error(self, tmp_path, config, edit,
                                                    extra):
        # the proven bound ceil(k * lmax^2 / eps^2) is past float range
        doc = json.loads(Path(config).read_text())
        if edit is not None:
            edit(doc)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        code, out, err = run("train", "--config", str(scenario), *extra,
                             "--out", str(tmp_path / "model.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "k=2, lmax=" in err and "eps=" in err and "beyond float range" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [scenario]  # no model, no trace

    @pytest.mark.parametrize("flag, value", [
        ("--poi-n", "0"), ("--doi-n", "-3"), ("--poi-n", "x"), ("--threads", "0"),
    ])
    def test_bad_slice_size_is_usage_error(self, workdir, flag, value):
        out = workdir / "slices.json"
        code, _, err = run("train", "--config", BETA, "--mode", "empirical",
                           "--epsilon", "0.05", "--data", str(workdir / "none.jsonl"),
                           flag, value, "--out", str(out))
        assert code == 1
        assert flag in err and "Traceback" not in err
        assert not out.exists()

    def test_oversized_integer_in_scenario_is_config_error(self, workdir):
        doc = json.loads(Path(BETA).read_text())
        doc["input_distribution"]["-1"] = 10 ** 400
        config = workdir / "huge_mass.json"
        config.write_text(json.dumps(doc))
        for argv in (("scenario-show",),
                     ("train", "--epsilon", "0.05", "--out", str(workdir / "h.json"))):
            code, _, err = run(*argv, "--config", str(config))
            assert code == 2
            assert str(config) in err and "Traceback" not in err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0"])
    def test_unusable_epsilon_is_usage_error(self, workdir, eps):
        out = workdir / "eps.json"
        code, _, err = run("train", "--config", BETA, f"--epsilon={eps}",
                           "--out", str(out))
        assert code == 1
        assert "--epsilon" in err and "positive finite" in err
        assert "Traceback" not in err
        assert not out.exists()


# Training runs on the shipped scenarios: scenario, trial data drawn as
# (n, seed) or None, extra flags, and the sha256 of the model (None: the
# run exits 3 and writes only its trace) and of the trace.
TRAINING_PINS = {
    "exact": (BETA, None, (),
              "fa0261835e03efeb3c511c3a5918b225a9bcca82f2ea6adeb54330ab5dfbf35c",
              "a87e37eaf7cb62b4bd1c33b625b5d996e48513d1a4a12dcd9eb7060f948c54b8"),
    "empirical": (BETA, (20000, 0), ("--mode", "empirical"),
                  "da1b0bbfdd3a416b20558d3a09a5364d2caa13261a00f2621072c23514b170de",
                  "c1c15da39685a4d7c813da13e42425a40d02bdc0d54ed622dd0a501866f7246a"),
    "csc": (BETA, (20000, 1), ("--mode", "csc"),
            "fa0261835e03efeb3c511c3a5918b225a9bcca82f2ea6adeb54330ab5dfbf35c",
            "2374aad879dbcc8d586b41a2f7e674a74ed8742016f91de224eda0d41fb3ceaf"),
    "adapt": (BETA_W, None, ("--adapt",),
              "c9fc73ae70bd3ffd34001dd93560745812e0fb68cb375c27e565e6e0641723c1",
              "df5b4bc0fd4dc0818dddee415dfeb6e08d9ac40789610a5e2225ff7e8895a65c"),
    "bound_exceeded": (BETA, (60, 2),
                       ("--mode", "empirical", "--poi-n", "50", "--doi-n", "10"),
                       None,
                       "e362cf6ef06ea267670028bd0831fe8e0ca08b7e661ac08902fcefa029eeff2c"),
}


class TestTrainingBytes:
    """Each mode's model and trace, pinned by digest across code changes;
    reruns of the same code are compared by ACCEPTANCE 9. A supported
    numpy that changes a digest is a finding to report, not a pin to
    update."""

    @pytest.mark.parametrize("name", list(TRAINING_PINS))
    def test_model_and_trace_are_pinned(self, tmp_path, name):
        config, draw, extra, model_sha, trace_sha = TRAINING_PINS[name]
        out = tmp_path / "model.json"
        argv = ["train", "--config", config, "--epsilon", "0.05", *extra,
                "--out", str(out)]
        if draw is not None:
            data = str(tmp_path / "data.jsonl")
            assert run("rct-gen", "--config", config, "--n", str(draw[0]),
                       "--seed", str(draw[1]), "--out", data)[0] == 0
            argv += ["--data", data]
        code, _, err = run(*argv)
        digest = lambda path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if model_sha is None:
            assert code == 3 and not out.exists(), err
        else:
            assert code == 0, err
            assert digest(out) == model_sha
        trace = Path(f"{out}.trace.jsonl")
        assert digest(trace) == trace_sha
        # a record's stage is the kind of the target it stepped against
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records and all(r["stage"] == r["target"]["kind"] for r in records)


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

    def test_exact_mode_refuses_data(self, model_path):
        code, out, err = run("audit", "--config", BETA, "--model", model_path,
                             "--data", "/nonexistent/audit.jsonl")
        assert code == 1 and out == ""
        assert err == "error: --data is not used in exact mode\n"

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
        for mode in ("empirical", "csc"):
            code, out, err = run("audit", "--config", BETA, "--model", model_path,
                                 "--mode", mode)
            assert code == 1 and out == ""
            assert err == f"error: --data is required in {mode} mode\n"

    def test_model_config_mismatch(self, model_path):
        code, _, _ = run("audit", "--config", BETA_W, "--model", model_path)
        assert code == 2

    def test_adapt_model_on_another_scenario_is_refused_by_name(
            self, workdir, adapt_model_path):
        refusals = refused_adapt_model(workdir, adapt_model_path, "audit")
        assert refusals == [
            f"error: model file {adapt_model_path}: model was trained on "
            "scenario 'beta-0.25-w', not 'beta-0.25'\n",
            f"error: model file {adapt_model_path}: scenario has no weight "
            "class, so losses cannot be augmented\n",
        ]

    def test_malformed_data_file(self, workdir, model_path):
        bad = workdir / "bad.jsonl"
        bad.write_text('{"x":"+1","yhat":"+1","y":1}\nnot json\n')
        code, _, err = run("audit", "--config", BETA, "--model", model_path,
                           "--mode", "empirical", "--data", str(bad))
        assert code == 2
        assert ":2" in err


def refused_adapt_model(workdir, model, command, *flags):
    """stderr of command run with an adapt model trained on
    beta025_weights.json, against beta025.json and against a copy of
    beta025_weights.json without weights; each run must exit 2 with
    nothing on stdout."""
    doc = json.loads(Path(BETA_W).read_text())
    del doc["weights"]
    unweighted = workdir / "unweighted.json"
    unweighted.write_text(json.dumps(doc))
    errs = []
    for config in (BETA, str(unweighted)):
        code, out, err = run(command, "--config", config, "--model", model, *flags)
        assert (code, out) == (2, ""), err
        errs.append(err)
    return errs


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


    @pytest.mark.parametrize("edit", [
        lambda doc: doc["terms"][0].update(eta=10 ** 400),
        lambda doc: doc["fingerprint"].update(epsilon=10 ** 400),
    ], ids=["eta", "epsilon"])
    def test_oversized_integer_is_config_error(self, workdir, model_path, edit):
        # a 400-digit integer does not fit a float
        model = tampered_model(workdir, model_path, "huge.json", edit)
        code, out, err = run("audit", "--config", BETA, "--model", model)
        assert code == 2 and out == ""
        assert model in err and "Traceback" not in err
        doc = json.loads(Path(model).read_text())
        with pytest.raises(om.ModelMismatchError, match="too large"):
            predictor.deserialize(doc, om.load_scenario(BETA))


# Scenario values of the wrong JSON type: the edit, and the key the
# refusal names. Each used to be coerced by str() or float().
WRONG_SCENARIO_TYPES = {
    "features_text": (lambda doc: doc.update(features="ab"), "'features'"),
    "decisions_text": (lambda doc: doc.update(decisions="01"), "'decisions'"),
    "epsilon_bool": (lambda doc: doc.update(epsilon=True), "'epsilon'"),
    "epsilon_text": (lambda doc: doc.update(epsilon="0.05"), "'epsilon'"),
    "lmax_text": (lambda doc: doc["losses"][0].update(lmax="1.0"), "'lmax'"),
    "name_number": (lambda doc: doc.update(name=7), "'name'"),
    # an entry that is no object: "builtin" in a text entry is a substring
    # test, and a list entry has no key "name"
    "hypothesis_number": (lambda doc: doc["hypotheses"].__setitem__(0, 5),
                          "'hypotheses' item"),
    "loss_text": (lambda doc: doc["losses"].__setitem__(0, "steer_to_one"),
                  "'losses' item"),
    "weight_list": (lambda doc: doc.update(weights=[[1]]), "'weights' item"),
}

# Model values of the wrong JSON type: where each goes, as a path of keys
# into the document (the document itself when empty), and the refusal.
WRONG_MODEL_TYPES = {
    "eta_text": (("terms", 0, "eta"), "-0.05", "key 'eta' must be a JSON number"),
    "epsilon_text": (("fingerprint", "epsilon"), "0.05",
                     "key 'epsilon' must be a JSON number"),
    "document_number": ((), 5, "model document must be a JSON object, got 5"),
    "fingerprint_list": (("fingerprint",), [1],
                         "key 'fingerprint' must be a JSON object, got [1]"),
    "term_number": (("terms", 0), 5, "key 'terms' item must be a JSON object, got 5"),
    "target_text": (("terms", 0, "target"), "external",
                    "key 'target' must be a JSON object, got 'external'"),
}


class TestStrictTypes:
    """A name or label must be a JSON string, a number a JSON number that
    is not a boolean, and a list a JSON array; nothing is coerced."""

    @pytest.mark.parametrize("case", list(WRONG_SCENARIO_TYPES))
    def test_scenario_value_of_the_wrong_type(self, tmp_path, case):
        edit, key = WRONG_SCENARIO_TYPES[case]
        doc = json.loads(Path(BETA).read_text())
        edit(doc)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run("scenario-show", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: scenario file {path}: ")
        assert f"key {key} must be a JSON" in err

    @pytest.mark.parametrize("case", list(WRONG_MODEL_TYPES))
    def test_model_value_of_the_wrong_type(self, workdir, model_path, case):
        path, value, refusal = WRONG_MODEL_TYPES[case]
        doc = json.loads(Path(model_path).read_text())
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            doc = value
        model = workdir / f"typed_{case}.json"
        model.write_text(json.dumps(doc))
        code, out, err = run("audit", "--config", BETA, "--model", str(model))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: model file {model}: ")
        assert refusal in err


# Model files that parse but do not fit beta025.json: the edit of the
# trained model, and the refusal.
MODEL_REFUSALS = {
    "lmax": (lambda doc: doc["fingerprint"].update(lmax=2.0),
             "model lmax 2.0 does not match scenario lmax 1.0"),
    "base-length": (lambda doc: doc.update(base=[0.5]),
                    "model base vector must be all 1/2 of length k"),
    "base-value": (lambda doc: doc.update(base=[0.5, 0.25]),
                   "model base vector must be all 1/2 of length k"),
    "induced-loss": (lambda doc: doc["terms"][0].update(
                         target={"kind": "induced", "name": "nope"}),
                     "induced update term references unknown loss 'nope'"),
}


@pytest.mark.parametrize("case", sorted(MODEL_REFUSALS))
def test_model_refusal_names_the_file(workdir, model_path, case):
    edit, refusal = MODEL_REFUSALS[case]
    model = tampered_model(workdir, model_path, f"refused_{case}.json", edit)
    code, out, err = run("audit", "--config", BETA, "--model", model)
    assert (code, out) == (2, "")
    assert err == f"error: model file {model}: {refusal}\n"


class TestFingerprint:
    @pytest.mark.parametrize("adapt", ["false", "true", 0, 1, None])
    def test_adapt_must_be_a_json_boolean(self, workdir, model_path, adapt):
        # "false" used to count as true, so a plain model was read against
        # the augmented scenario and failed with an unrelated message
        def edit(doc):
            doc["fingerprint"]["adapt"] = adapt

        model = tampered_model(workdir, model_path, "adapt_field.json", edit)
        for command in ("audit", "adapt-verify"):
            code, out, err = run(command, "--config", BETA_W, "--model", model)
            assert code == 2 and out == ""
            assert "'adapt'" in err and model in err and "Traceback" not in err
        with pytest.raises(om.ModelMismatchError, match="'adapt'"):
            predictor.read_fingerprint(json.loads(Path(model).read_text()),
                                       om.load_scenario(BETA_W))

    def test_missing_adapt_reads_as_plain(self, workdir, model_path):
        model = tampered_model(workdir, model_path, "no_adapt.json",
                               lambda doc: doc["fingerprint"].pop("adapt"))
        code, _, err = run("audit", "--config", BETA, "--model", model)
        assert code == 0, err


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

    def test_mixture_summing_past_float_range(self, workdir, adapt_model_path):
        code, out, err = run("eval", "--config", BETA_W, "--model", adapt_model_path,
                             "--mixture", "uniform:1e308,focus_plus:1e308",
                             "--out", str(workdir / "overflow.csv"))
        assert (code, out) == (1, "")
        assert err == "error: mixture coefficients sum to inf, expected 1\n"

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
                mass = sc.arrays.dist
                if flag[:1] == ("--shift",):
                    mass = om.shift_distribution(sc, flag[1])
                elif flag:
                    mass = om.mixture_distribution(sc, spec)
                dist = om.InputDistribution(
                    probabilities=dict(zip(sc.features.points, mass.tolist())))
                rows = [line.split(",")
                        for line in out_csv.read_text().splitlines()[1:]]
                for rule, loss, risk, _ in rows:
                    assert float(risk) == om.performative_risk_exact(
                        rules[rule], sc.nature, named(sc.losses, loss), dist)
                if flag[:1] == ("--shift",):
                    own = [r[3] for r in rows if r[3]]
                    assert len(own) == len(sc.losses)
                    verdicts += own
                    passed = own == ["true"] * len(own)
                    assert passed == verified[f"weight:{flag[1]}"], (model, flag)
        assert set(verdicts) == {"true", "false"}

    def test_adapt_model_on_another_scenario_is_refused_by_name(
            self, workdir, adapt_model_path):
        out_csv = workdir / "refused.csv"
        errs = refused_adapt_model(workdir, adapt_model_path, "eval",
                                   "--out", str(out_csv))
        assert [e.startswith(f"error: model file {adapt_model_path}: ")
                for e in errs] == [True, True]
        assert "not 'beta-0.25'" in errs[0] and "no weight class" in errs[1]
        assert not out_csv.exists()

    def test_shift_and_mixture_conflict(self, workdir, adapt_model_path):
        code, _, _ = run("eval", "--config", BETA_W, "--model", adapt_model_path,
                         "--shift", "uniform",
                         "--mixture", "focus_minus:0.5,focus_plus:0.5",
                         "--out", str(workdir / "z.csv"))
        assert code == 1


def renamed_weights_scenario(path, losses=None, weights=None):
    """beta025_weights.json with its losses and weights renamed by the
    given old-to-new maps, written to path."""
    doc = json.loads(Path(BETA_W).read_text())
    for key, names in (("losses", losses or {}), ("weights", weights or {})):
        for part in doc[key]:
            part["name"] = names.get(part["name"], part["name"])
    path.write_text(json.dumps(doc))
    return str(path)


class TestAugmentedNames:
    # losses "a@uniform" and "a" with weights "uniform" and
    # "uniform@uniform" both make the augmented name "a@uniform@uniform"
    REFUSAL = ("augmented loss name 'a@uniform@uniform' is made twice: by loss "
               "'a@uniform' with weight 'uniform' and by loss 'a' with weight "
               "'uniform@uniform'")

    @pytest.fixture(scope="class")
    def clash(self, workdir):
        return renamed_weights_scenario(
            workdir / "clash.json",
            losses={"steer_to_one": "a@uniform", "steer_to_zero": "a"},
            weights={"focus_minus": "uniform@uniform"})

    def test_train_adapt_refuses_and_writes_nothing(self, workdir, clash):
        out = workdir / "clash_model.json"
        code, stdout, err = run("train", "--config", clash, "--epsilon", "0.05",
                                "--adapt", "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: {self.REFUSAL}\n")
        assert not out.exists() and not Path(f"{out}.trace.jsonl").exists()

    @pytest.mark.parametrize("command", ["audit", "adapt-verify"])
    def test_loading_an_adapt_model_refuses(self, clash, adapt_model_path, command):
        code, out, err = run(command, "--config", clash, "--model", adapt_model_path)
        assert (code, out) == (2, "")
        assert err == f"error: model file {adapt_model_path}: {self.REFUSAL}\n"

    def test_mixture_of_a_weight_named_with_a_colon(self, workdir):
        # --mixture splits each component at its last colon, as a weight
        # named "focus:plus" mixes as "focus_plus" does
        colon = renamed_weights_scenario(workdir / "colon.json",
                                         weights={"focus_plus": "focus:plus"})
        model = workdir / "colon_model.json"
        assert run("train", "--config", BETA_W, "--epsilon", "0.05",
                   "--out", str(model))[0] == 0
        tables = []
        for config, weight in ((colon, "focus:plus"), (BETA_W, "focus_plus")):
            out = workdir / f"colon_{len(tables)}.csv"
            code, _, err = run("eval", "--config", config, "--model", str(model),
                               "--mixture", f"uniform:0.5,{weight}:0.5",
                               "--out", str(out))
            assert code == 0, err
            tables.append(out.read_text())
        assert tables[0] == tables[1]


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

    def test_negative_mixture_count_is_usage_error(self, adapt_model_path):
        code, out, err = run("adapt-verify", "--config", BETA_W,
                             "--model", adapt_model_path, "--mixtures", "-1")
        assert code == 1 and out == ""
        assert "--mixtures" in err and "Traceback" not in err

    def test_mixture_count_past_the_budget_is_config_error(self, adapt_model_path):
        # refused before any mixture is drawn or any mass allocated
        # beta025_weights.json: 2 features, 2 losses, 3 weights
        fit = (1 << 24) // (2 + 256 * 3) - 3
        code, out, err = run("adapt-verify", "--config", BETA_W, "--model",
                             adapt_model_path, "--mixtures", "1000000000000000")
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: 1000000000000000 mixtures over 2 features and 2 losses")
        assert err.endswith(f"at most {fit} mixtures fit\n")

    def test_same_bytes_across_blas_thread_counts(self, workdir):
        # a serving-size scenario, where the verifier's matrix products
        # are large enough for BLAS to split them over threads
        gen = runpy.run_path(str(REPO / "perfbench" / "gen.py"))
        sizes = gen["Sizes"](n_x=500, k=3, n_losses=4, n_hypotheses=32,
                             epsilon=0.05, n_weights=4)
        config, model = workdir / "serve.json", workdir / "serve_model.json"
        gen["write"](gen["generate"]("serve", sizes, 3), config)
        code, _, err = run("train", "--config", str(config), "--epsilon", "0.05",
                           "--adapt", "--out", str(model))
        assert code == 0, err
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "omnipredict", "adapt-verify",
                 "--config", str(config), "--model", str(model), "--mixtures", "20"],
                capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["distributions"]) == 24

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
        # augmentation is the one that loads the adapt model
        calls = {"shift": 0, "augment": 0}
        shift, augment = adapt.shift_distribution, adapt.augment_scenario

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(adapt, "shift_distribution", counted("shift", shift))
        monkeypatch.setattr(adapt, "augment_scenario", counted("augment", augment))
        code, out, _ = run("adapt-verify", "--config", BETA_W,
                           "--model", adapt_model_path)
        assert code == 0 and len(json.loads(out)["distributions"]) == 13
        assert calls == {"shift": 3, "augment": 1}


    @pytest.mark.parametrize("command", ["audit", "eval", "adapt-verify"])
    def test_loading_an_adapt_model_checks_each_table_once(
            self, workdir, adapt_model_path, monkeypatch, command):
        # the augmented scenario is derived from the checked arrays, so
        # only load_scenario builds and validates a scenario; the induced
        # rules are views of their argmin indices and are not validated
        sc = om.load_scenario(BETA_W)
        calls = {}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(self, *args):
                key = f"{owner.__name__}.{name}"
                calls[key] = calls.get(key, 0) + 1
                return fn(self, *args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(om.Scenario, "__post_init__")
        for part in (om.InputDistribution, om.NatureModel, om.Loss,
                     om.Hypothesis, om.WeightFunction):
            counted(part, "validate")
        extra = ("--out", str(workdir / "counted.csv")) if command == "eval" else ()
        code, _, err = run(command, "--config", BETA_W, "--model",
                           adapt_model_path, *extra)
        assert code == 0, err
        assert calls == {
            "Scenario.__post_init__": 1,
            "InputDistribution.validate": 1,
            "NatureModel.validate": 1,
            "Loss.validate": len(sc.losses),
            "Hypothesis.validate": len(sc.hypotheses),
            "WeightFunction.validate": len(sc.weights.weights),
        }


def permute_records(src, dst, bounds, seed):
    """Copy a dataset file, shuffling its sample lines within each
    [start, stop) range of bounds; the header stays first."""
    with open(src, encoding="utf-8") as fh:
        header, *lines = fh.readlines()
    rng = np.random.default_rng(seed)
    for start, stop in bounds:
        lines[start:stop] = [lines[i] for i in rng.permutation(range(start, stop))]
    with open(dst, "w", encoding="utf-8") as fh:
        fh.writelines([header] + lines)


@pytest.fixture(scope="module")
def trial_dir(tmp_path_factory):
    """The benchmark's trial-data scenario (seed 0, |X| 200, k 4) with a
    24 000-sample training file (seed 0) and a held-out file (seed 2)."""
    work = tmp_path_factory.mktemp("trial")
    gen = runpy.run_path(str(REPO / "perfbench" / "gen.py"))
    sizes = gen["Sizes"](n_x=200, k=4, n_losses=4, n_hypotheses=16, epsilon=0.05)
    gen["write"](gen["generate"]("trial-data-0", sizes, 0), work / "sc.json")
    for name, seed in (("train", 0), ("heldout", 2)):
        code, _, err = run("rct-gen", "--config", str(work / "sc.json"),
                           "--n", "24000", "--seed", str(seed),
                           "--out", str(work / f"{name}.jsonl"))
        assert code == 0, err
    return work


class TestRecordOrder:
    """Every estimator reads counts, so the order of a file's records
    changes no output byte."""

    def train(self, work, mode, data, out):
        code, _, err = run("train", "--config", str(work / "sc.json"),
                           "--mode", mode, "--epsilon", "0.05",
                           "--data", str(data), "--poi-n", "12000",
                           "--doi-n", "2000", "--out", str(out))
        assert code == 0, err
        return out.read_bytes(), Path(f"{out}.trace.jsonl").read_bytes()

    @pytest.mark.parametrize("mode", ["empirical", "csc"])
    def test_shuffled_heldout_file_gives_the_same_audit(self, trial_dir, mode):
        # a model trained at epsilon 0.3 keeps gaps the 0.05 audit reports
        work = trial_dir
        model = work / "loose.json"
        if not model.exists():
            assert run("train", "--config", str(work / "sc.json"),
                       "--epsilon", "0.3", "--out", str(model))[0] == 0
        shuffled = work / "heldout_shuffled.jsonl"
        permute_records(work / "heldout.jsonl", shuffled, [(0, 24000)], 5)
        outs = [
            run("audit", "--config", str(work / "sc.json"), "--model",
                str(model), "--mode", mode, "--epsilon", "0.05",
                "--data", str(data))
            for data in (work / "heldout.jsonl", shuffled)
        ]
        assert outs[0][0] == 3 and outs[0][2] == ""
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["empirical", "csc"])
    def test_permuted_slices_give_the_same_model_and_trace(self, trial_dir, mode):
        # the rule audits read the --poi-n prefix and each decision audit
        # one --doi-n slice after it; shuffling within each keeps every
        # slice's counts
        work = trial_dir
        bounds = [(0, 12000)] + [(a, a + 2000) for a in range(12000, 24000, 2000)]
        permuted = work / "train_permuted.jsonl"
        permute_records(work / "train.jsonl", permuted, bounds, 7)
        want = self.train(work, mode, work / "train.jsonl", work / f"{mode}.json")
        got = self.train(work, mode, permuted, work / f"{mode}_permuted.json")
        assert got == want


class TestUnwritableOutput:
    """An output path in a missing directory exits 2 and names the path,
    with no traceback."""

    @pytest.mark.parametrize("command, flag", [
        ("train", "--out"), ("train", "--trace"), ("rct-gen", "--out"), ("eval", "--out"),
    ])
    def test_exit_2_naming_the_path(self, workdir, model_path, command, flag):
        missing = workdir / "no_such_dir" / f"{command}{flag}"
        ok = str(workdir / f"written_{command}{flag}")
        paths = {"--out": ok, "--trace": ok, flag: str(missing)}
        if command == "train":
            argv = ["--epsilon", "0.05", "--out", paths["--out"], "--trace", paths["--trace"]]
        elif command == "rct-gen":
            argv = ["--n", "10", "--out", paths["--out"]]
        else:
            argv = ["--model", model_path, "--out", paths["--out"]]
        code, out, err = run(command, "--config", BETA, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {missing}: No such file or directory\n"
        assert not missing.parent.exists()

    @pytest.mark.parametrize("trace", [None, "ok.jsonl"])
    def test_train_refuses_before_any_work(self, tmp_path, monkeypatch, trace):
        """train checks where it will write before it reads the scenario,
        so nothing runs and nothing is written: the missing --config is
        not reached, and the named --out is the one refused, not the
        default trace path beside it."""
        missing = tmp_path / "nodir" / "m.json"
        argv = ["--out", str(missing)] + ([] if trace is None else ["--trace", trace])
        monkeypatch.chdir(tmp_path)
        code, out, err = run("train", "--config", "no_such_config.json",
                             "--epsilon", "0.05", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {missing}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_train_refuses_a_trace_in_a_file(self, tmp_path):
        (tmp_path / "file").write_text("")
        trace = tmp_path / "file" / "t.jsonl"
        code, out, err = run("train", "--config", BETA, "--epsilon", "0.05",
                             "--out", str(tmp_path / "m.json"), "--trace", str(trace))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {trace}: Not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("spelling", ["m.json", "./sub/../m.json"])
    def test_train_refuses_a_trace_that_is_the_model(self, tmp_path, monkeypatch,
                                                     spelling):
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        code, out, err = run("train", "--config", BETA, "--epsilon", "0.05",
                             "--out", "m.json", "--trace", spelling)
        assert (code, out) == (1, "")
        assert err == (f"error: --trace {spelling} and --out m.json are the "
                       "same file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_failed_model_write_leaves_no_trace(self, tmp_path):
        """An --out the directory check passes but the write refuses, here
        a directory, still leaves no trace without its model."""
        (tmp_path / "out").mkdir()
        code, out, err = run("train", "--config", BETA, "--epsilon", "0.05",
                             "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {tmp_path / 'out'}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestThreads:
    """train still accepts --threads, checks it and ignores it."""

    def test_negative_flag_rejected(self, workdir):
        code, _, _ = run("train", "--config", BETA, "--epsilon", "0.05",
                         "--threads", "-1", "--out", str(workdir / "neg.json"))
        assert code == 1

    def test_ignored_flag_changes_no_byte(self, workdir):
        def train(name, *extra):
            out = workdir / name
            code, _, err = run("train", "--config", BETA, "--epsilon", "0.05",
                               "--out", str(out), *extra)
            assert code == 0, err
            return out.read_bytes(), Path(f"{out}.trace.jsonl").read_bytes()

        assert train("threads2.json", "--threads", "2") == train("plain.json")

    def test_flag_hidden_from_help(self):
        code, out, _ = run("train", "--help")
        assert code == 0 and "--threads" not in out


class TestJsonParserLimits:
    """Input the JSON parser refuses past its own limits, rather than as
    malformed text: an integer longer than 4300 digits (ValueError) and
    arrays nested 100 000 deep (RecursionError)."""

    @pytest.mark.parametrize("value", ["1" * 4301, "[" * 100_000],
                             ids=["long_integer", "deep_nesting"])
    @pytest.mark.parametrize("kind", ["scenario", "model", "header", "sample"])
    def test_exit_2_naming_the_file(self, workdir, model_path, kind, value):
        bad = workdir / f"limit_{kind}_{value[0]}.json"
        config, model, extra = BETA, model_path, []
        if kind == "scenario":
            bad.write_text(f'{{"name": {value}}}')
            config = str(bad)
        elif kind == "model":
            bad.write_text(f'{{"terms": {value}}}')
            model = str(bad)
        else:
            header = '{"meta":{"scenario":"beta-0.25","seed":0,"n":%s,"gen":"g"}}'
            sample = '{"x":"-1","yhat":"-1","y":%s}'
            lines = (header % (value if kind == "header" else "1"),
                     sample % (value if kind == "sample" else "0"))
            bad.write_text("\n".join(lines) + "\n")
            extra = ["--mode", "empirical", "--data", str(bad)]
        code, out, err = run("audit", "--config", config, "--model", model, *extra)
        assert code == 2 and out == ""
        assert str(bad) in err and "Traceback" not in err
        if kind in ("header", "sample"):
            assert f"{bad}:{1 if kind == 'header' else 2}: invalid JSON" in err


class TestClosedStdout:
    """A reader that closes stdout before the output is written gets exit 2
    and one error line, not a traceback."""

    @pytest.mark.parametrize("command", ["audit", "adapt-verify"])
    def test_closed_pipe(self, command, model_path, adapt_model_path):
        argv = {
            "audit": ["--config", BETA, "--model", model_path],
            "adapt-verify": ["--config", BETA_W, "--model", adapt_model_path,
                             "--mixtures", "200"],
        }[command]
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "omnipredict", command, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path})
        # closed before the command starts up, so its first write fails
        proc.stdout.close()
        err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 2, err
        assert err == "error: stdout was closed before the output was written\n"


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

"""Tests of the benchmark itself: generator, output checks, accounting.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import math

import numpy as np
import pytest

import checks
import layers
import run
from gen import Sizes, generate
from omnipredict.core import optimal_rule_from_model, scenario_from_dict

TINY = run.Workload(
    Sizes(n_x=40, k=3, n_losses=3, n_hypotheses=6, epsilon=0.1, n_weights=2),
    "small enough for unit tests",
    train=("train_exact_s",),
    audit=("audit_exact_s",),
)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_generated_scenarios_validate(name):
    sizes = run.WORKLOADS[name].sizes
    doc = generate(name, sizes, seed=3)
    scenario = scenario_from_dict(doc)
    assert len(scenario.features.points) == sizes.n_x
    assert len(scenario.losses) == sizes.n_losses
    assert len(scenario.hypotheses) == sizes.n_hypotheses
    # the first hypotheses are the Nature-optimal rule of each loss
    for loss, h in zip(scenario.losses, scenario.hypotheses):
        best = optimal_rule_from_model(scenario.nature, loss, scenario.decisions)
        assert dict(best.mapping) == dict(h.mapping)
    if sizes.n_weights:
        assert len(scenario.weights.weights) == sizes.n_weights
        for w in scenario.weights.weights:
            values = [w.weight(x) for x in scenario.features.points]
            assert min(values) > 0
            mean = math.fsum(
                scenario.input_distribution.mass(x) * w.weight(x)
                for x in scenario.features.points
            )
            assert mean == pytest.approx(1.0, abs=1e-12)


def test_generator_is_seeded():
    sizes = TINY.sizes
    assert generate("t", sizes, 5) == generate("t", sizes, 5)
    assert generate("t", sizes, 5) != generate("t", sizes, 6)


@pytest.fixture()
def session(tmp_path):
    return run.Session("adapt-serve", TINY, seed=2, workdir=tmp_path)


def test_clean_cycle_has_no_failures(session):
    run.cycle_adapt_serve(session)
    session.train_exact("train_exact_t2_s", "m2.json", threads=2, adapt=True,
                        same_as="ma.json")
    assert [op.problems for op in session.ops] == [[]] * len(session.ops)
    assert checks.op_fail_rate(op.problems for op in session.ops) == 0.0
    assert session.gaps["ma.json"] < 1.0


def test_flipped_byte_in_two_thread_model_is_a_failure(session):
    session.train_exact("train_exact_s", "m1.json", threads=1)
    session.train_exact("train_exact_t2_s", "m2.json", threads=2, same_as="m1.json")
    assert session.ops[-1].problems == []
    model = session.dir / "m1.json"
    data = bytearray(model.read_bytes())
    data[len(data) // 2] ^= 0x01
    model.write_bytes(bytes(data))
    op = session.train_exact("train_exact_t2_s", "m2.json", threads=2,
                             same_as="m1.json")
    assert any("differs" in p for p in op.problems)
    assert checks.op_fail_rate(o.problems for o in session.ops) == pytest.approx(1 / 3)


def test_rising_potential_is_flagged(session):
    session.train_exact("train_exact_s", "m1.json")
    records = checks.read_trace(session.dir / "m1.json.trace.jsonl")
    args = (session.p0, session.eps, session.scenario.lmax, session.scenario.k)
    assert checks.check_exact_trace(records, *args) == []
    records[1]["potential"] = records[0]["potential"] + 1e-3
    assert checks.check_exact_trace(records, *args)


def test_update_count_above_bound_is_flagged():
    records = [{"t": t, "potential": 1.0 - t} for t in range(1, 6)]
    assert checks.check_exact_trace(records, 1.0, eps=1.0, lmax=1.0, k=1)
    assert checks.check_exact_trace(records[:1], 1.0, eps=1.0, lmax=1.0, k=1) == []


def test_eval_row_set_to_false_is_a_failure(session):
    session.train_exact("train_exact_s", "ma.json", adapt=True)
    session.eval_mixture("eval_s", "ma.json")
    assert session.ops[-1].problems == []
    table = session.dir / "table.csv"
    lines = table.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.endswith(",true"))
    lines[row] = lines[row][: -len("true")] + "false"
    table.write_text("\n".join(lines) + "\n")
    n_rows = (TINY.sizes.n_hypotheses + TINY.sizes.n_losses) * TINY.sizes.n_losses
    assert checks.check_eval(table, n_rows)


def test_exit_code_must_match_the_printed_verdict():
    report = json.dumps({"poi": {}, "doi": {}, "pass": False})
    assert checks.check_verdict(3, report) == []
    assert checks.check_verdict(0, report)
    assert checks.check_verdict(0, "Traceback")


def test_command_failures_count_against_op_fail_rate(session):
    session.show()
    op = session.run("audit_exact_s", ["audit", "--config", "scenario.json",
                                       "--model", "missing.json"])
    assert op.problems
    assert checks.op_fail_rate(o.problems for o in session.ops) == 0.5
    with pytest.raises(ValueError):
        checks.op_fail_rate([])


def test_traced_command_matches_untraced_output(session):
    session.show()
    session.traced = True
    op = session.show()
    assert op.problems == []
    names = {span[0] for span in op.spans["spans"]}
    assert {"cli.main", "core.load_scenario", "core.validate"} <= names
    totals = run.layer_totals([op], session)
    assert totals["core.load_scenario.calls"] == 1
    assert 0 <= totals["core.load_scenario.self_s"] <= totals["core.load_scenario.s"]


def test_end_to_end_times_are_in_units_of_the_adjacent_reference_runs(session):
    session.ops = [
        run.Op("setup_s", 0.4, 50.0, [], ref=0.5),
        run.Op("setup_s", 0.6, 50.0, [], ref=0.3),
        run.Op("train_exact_s", 2.0, 60.0, [], ref=0.5),
        run.Op("audit_exact_s", 1.0, 55.0, [], ref=0.4),
    ]
    metrics = run.end_to_end(run.Measured(session))
    assert metrics["setup_s"] == pytest.approx(1.4 * run.REF_NOMINAL_S)
    assert metrics["train_ref"] == pytest.approx(4.0)
    assert metrics["audit_ref"] == pytest.approx(2.5)
    # the set-up ratios 0.8 and 2.0 have the median 1.4
    assert metrics["cycle_ref"] == pytest.approx(7.9)
    assert metrics["peak_rss_mb"] == 60.0


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.per_layer_units()
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in doc["end_to_end"])


def test_missing_source_fails_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "trial-data", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

"""Every record of the package behaves as its dataclass(frozen=True) twin.

The comparisons are record_parity.check's; the samples below are built
the way the commands build them, on the shipped scenarios.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import omnipredict as om
from omnipredict._record import Record
from omnipredict.adapt import DistributionCheck, InvarianceReport
from conftest import random_scenario
from record_parity import check, check_synthetic, twins

REPO = Path(__file__).resolve().parent.parent
MODULES = ("core", "predictor", "rct", "audit", "boost", "adapt")
# the records declared eq=False: identity equality unless they define __eq__
IDENTITY_NAMES = {"CscInstance", "RctDataset"}


def package_records() -> dict:
    """{name: class} of every dataclass defined in the package."""
    found = {}
    for module_name in MODULES:
        module = importlib.import_module(f"omnipredict.{module_name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                found[name] = value
    return found


RECORDS = package_records()


def values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


@pytest.fixture(scope="module")
def samples() -> dict:
    """{record class: (argument tuples, refused argument tuples)}."""
    beta = om.load_scenario(REPO / "scenarios" / "beta025.json")
    weighted = om.load_scenario(REPO / "scenarios" / "beta025_weights.json")
    result = om.poi_boost(beta, om.BoostConfig(epsilon=0.05))
    other = om.poi_boost(beta, om.BoostConfig(epsilon=0.2))
    pred = result.predictor
    base = om.base_predictor(beta, 0.05)
    violation, report = om.audit_poi_exact(base, beta, 0.05)
    _, passed = om.audit_poi_exact(pred, beta, 0.05)
    data = om.generate_rct(beta, 200, seed=1)
    more = om.generate_rct(beta, 50, seed=2)
    csc = om.build_csc_instance(data, pred, beta.losses[0], 1, beta)
    csc2 = om.build_csc_instance(more, base, beta.losses[1], -1, beta)
    augmented = om.augment_scenario(weighted)
    adapt_pred = om.poi_boost(augmented, om.BoostConfig(epsilon=0.05, adapt=True)).predictor
    adapt_report = om.verify_universal_adaptability(adapt_pred, weighted, 0.05, 2)
    plain_report = om.verify_universal_adaptability(base, weighted, 0.05, 1)
    invariance = om.induced_rule_shift_invariance_check(adapt_pred, weighted)
    mismatch = InvarianceReport(False, (("l", "w", "x"),))
    weights = weighted.weights.weights
    foreign = random_scenario(np.random.default_rng(0))
    trace = result.trace

    def of(*records):
        return [values(r) for r in records]

    def with_(record, **changes):
        """record's field values with changes, unchecked."""
        return tuple(changes.get(f.name, getattr(record, f.name))
                     for f in dataclasses.fields(record))

    spaces = [(("a", "b"),), (("a",),), (["b", "a"],)]
    return {
        om.DecisionSpace: (spaces, [((),), (("a", "a"),)]),
        om.FeatureSpace: (spaces, [((),), (("x", "x"),)]),
        om.InputDistribution: (
            of(beta.input_distribution, weighted.input_distribution)
            + [({"+1": 0.5, "-1": 0.5},)], []),
        om.NatureModel: (of(beta.nature, weighted.nature)
                         + [({"+1": {"-1": 0.75, "+1": 0.25}},)], []),
        om.Loss: (of(*beta.losses) + [("steer_to_one", 1, {"+1": {"-1": [0, 1]}})], []),
        om.Hypothesis: (of(*beta.hypotheses) + [("h", {"+1": "-1", "-1": 1})], []),
        om.WeightFunction: (of(*weights), []),
        om.WeightClass: (of(weighted.weights) + [(weights[:1],)],
                         [((),), ((weights[0], weights[0]),)]),
        om.Scenario: (of(beta, weighted),
                      [with_(beta, epsilon=0.0), with_(beta, losses=()),
                       with_(beta, hypotheses=beta.hypotheses * 2)]),
        om.UpdateTerm: (of(*pred.terms[:2]), [(0.1, "l", "other", "h")]),
        om.Fingerprint: (of(pred.fingerprint, adapt_pred.fingerprint)
                         + [("s", 0.1, 1.0)], []),
        om.AdditivePredictor: (of(pred, base, other.predictor),
                               [with_(pred, k=0)]),
        om.RctMeta: (of(data.meta, more.meta), []),
        om.RctDataset: (of(data, more, om.generate_rct(beta, 200, seed=1)),
                        [with_(data, meta=more.meta),
                         with_(data, cells=np.full(200, 8))]),
        om.AuditTarget: ([values(e[0]) for e in report.entries[:3]]
                         + [("ma", None, None, None, (0.5, 1.0))], []),
        om.Violation: (of(violation, om.Violation(report.entries[1][0], -0.5)), []),
        om.AuditReport: (of(report, passed), []),
        om.CscInstance: (of(csc, csc2), [with_(csc, costs=np.zeros(3)),
                                         with_(csc, costs=csc.costs * np.inf),
                                         with_(csc, scenario=foreign)]),
        om.BoostConfig: ([(0.05,), (0.1, "csc", data, 10, 20, True)], []),
        om.TraceRecord: (of(*trace.records[:3]), []),
        om.BoostTrace: (of(trace, other.trace), []),
        om.BoostResult: (of(result, other), []),
        om.MixtureSpec: ([((("a", 1.0),),), ((("a", 0.25), ("b", 0.75)),)],
                         [((),), ((("a", 0.5),),), ((("a", -1.0), ("b", 2.0)),),
                          (("a",),)]),
        DistributionCheck: (of(*adapt_report.checks[:2]), []),
        om.AdaptReport: (of(adapt_report, plain_report,
                            dataclasses.replace(adapt_report, rule_invariance=invariance)),
                         []),
        InvarianceReport: (of(invariance, mismatch), []),
    }


@pytest.fixture(scope="module")
def twin_of() -> dict:
    return twins(list(RECORDS.values()), [RECORDS[n] for n in IDENTITY_NAMES])


class TestRecords:
    def test_every_record_is_on_the_base(self):
        assert len(RECORDS) == 26
        for name, cls in RECORDS.items():
            assert issubclass(cls, Record), name
            params = cls.__dataclass_params__
            assert (params.init, params.repr, params.eq, params.frozen) == (
                False, False, False, False), name
        identity = {n for n, c in RECORDS.items() if c.__dict__.get("__hash__", 0)
                    in (None, object.__hash__)}
        assert identity == IDENTITY_NAMES

    def test_synthetic_records_match_their_twins(self):
        assert check_synthetic() > 0

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_matches_its_dataclass_twin(self, name, samples, twin_of):
        cls = RECORDS[name]
        good, bad = samples[cls]
        assert len(good) >= 2
        assert check(cls, twin_of[cls], good, bad) > 0

    def test_post_init_is_looked_up_per_call(self, monkeypatch):
        """A wrapper installed on the class after it is defined, as the
        benchmark's traced runs install one, is the one called."""
        calls = []
        original = om.Scenario.__post_init__

        def wrapped(self):
            calls.append(self.name)
            return original(self)

        monkeypatch.setattr(om.Scenario, "__post_init__", wrapped)
        scenario = om.load_scenario(REPO / "scenarios" / "beta025.json")
        assert calls == [scenario.name]
        dataclasses.replace(scenario, epsilon=0.1)
        assert calls == [scenario.name] * 2


class TestDeclaration:
    def test_the_base_alone_declares_a_record(self):
        class Pair(Record):
            a: int
            b: str = "x"

        pair = Pair(1)
        assert dataclasses.is_dataclass(Pair) and dataclasses.is_dataclass(pair)
        assert [f.name for f in dataclasses.fields(Pair)] == ["a", "b"]
        assert Pair.__match_args__ == ("a", "b")
        assert dataclasses.replace(pair, b="y") == Pair(1, "y")
        match pair:
            case Pair(a, b):
                assert (a, b) == (1, "x")
            case _:
                pytest.fail("a record matches its own class pattern")

    @pytest.mark.parametrize("option", [
        {"default_factory": list}, {"init": False}, {"repr": False},
        {"compare": False}, {"hash": True}, {"kw_only": True},
    ], ids=lambda option: next(iter(option)))
    def test_a_field_option_is_refused_where_the_class_is_defined(self, option):
        with pytest.raises(TypeError, match=r"Bad\.a takes no field\(\) options"):
            class Bad(Record):
                a: list = dataclasses.field(**option)

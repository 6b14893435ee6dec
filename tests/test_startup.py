"""Start-up: the package imports lazily and each command loads its own modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omnipredict as om

REPO = Path(__file__).resolve().parent.parent
BETA = str(REPO / "scenarios" / "beta025.json")
BETA_W = str(REPO / "scenarios" / "beta025_weights.json")

# The public API, by defining module.
PUBLIC = {
    "errors": """ArgumentError BoundExceededError ConfigurationError
        DataFormatError LearnerContractError ModelMismatchError
        OmnipredictError WeightInvariantError""",
    "core": """BUILTIN_LOSSES DecisionSpace FeatureSpace Hypothesis
        InputDistribution Loss NatureModel Scenario WeightClass WeightFunction
        augment_scenario builtin_loss expected_loss_given io_loss load_scenario
        optimal_rule_from_model performative_risk_exact scenario_from_dict""",
    "predictor": """AdditivePredictor Fingerprint UpdateTerm apply_term
        base_predictor evaluate_all induced_rule load_model prediction_matrix
        save_model serialize""",
    "rct": """GENERATOR_TAG RctDataset RctMeta generate_rct ips_risk_estimate
        model_risk_estimate read_jsonl required_sample_size write_jsonl""",
    "audit": """AuditReport AuditTarget CscInstance Violation
        audit_decision_calibration audit_doi_empirical audit_doi_exact
        audit_multiaccuracy audit_poi_empirical audit_poi_exact audit_via_csc
        baseline_weak_learner build_csc_instance doi_errs multiaccuracy_errs
        poi_err_matrix""",
    "boost": """BoostConfig BoostResult BoostTrace TraceRecord iteration_bound
        poi_boost potential write_trace""",
    "adapt": """AdaptReport MixtureSpec induced_rule_shift_invariance_check mixture_distribution
        shift_distribution verify_universal_adaptability""",
}
PUBLIC = {module: names.split() for module, names in PUBLIC.items()}


class TestPublicApi:
    def test_all_lists_the_same_names(self):
        names = sorted(n for group in PUBLIC.values() for n in group)
        assert len(names) == 76
        assert sorted(om.__all__) == names

    def test_each_name_is_its_defining_modules_object(self):
        for module_name, names in PUBLIC.items():
            module = importlib.import_module(f"omnipredict.{module_name}")
            for name in names:
                value = getattr(om, name)
                assert value is getattr(module, name), name
                if hasattr(value, "__qualname__"):
                    assert value.__module__ == module.__name__, name
                scope = {}
                exec(f"from omnipredict import {name} as imported", scope)
                assert scope["imported"] is value, name

    def test_dir_lists_every_name(self):
        assert set(om.__all__) <= set(dir(om))

    def test_unknown_names_raise(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            om.no_such_name
        with pytest.raises(ImportError):
            exec("from omnipredict import no_such_name", {})


def source_env():
    """The environment, with src first on PYTHONPATH."""
    path = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def readme_library_sketch():
    """The Python block under README.md's "Library sketch" heading."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_sketch_runs():
    # from the repo root, as a reader would: a renamed name or argument fails
    proc = subprocess.run([sys.executable, "-c", readme_library_sketch()],
                          capture_output=True, text=True, cwd=REPO, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("steer_to_one ")


def loaded_after(code, *argv):
    """The module names a fresh interpreter holds after running code."""
    probe = (
        "import sys\n"
        f"{code}\n"
        "print('\\n'.join(sorted(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def run_command(*argv):
    return loaded_after(
        "from omnipredict.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "assert code == 0, code", *argv)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    from omnipredict.cli import main

    workdir = tmp_path_factory.mktemp("startup")
    plain, adapt = str(workdir / "plain.json"), str(workdir / "adapt.json")
    assert main(["train", "--config", BETA, "--epsilon", "0.05",
                 "--out", plain]) == 0
    assert main(["train", "--config", BETA_W, "--epsilon", "0.05", "--adapt",
                 "--out", adapt]) == 0
    return workdir, plain, adapt


def package_modules(loaded):
    return {m for m in loaded if m.startswith("omnipredict")}


class TestCommandImports:
    def test_package_import_loads_no_module(self):
        loaded = loaded_after("import omnipredict")
        assert package_modules(loaded) == {"omnipredict"}
        assert "numpy" not in loaded

    def test_submodules_are_attributes_after_a_bare_import(self):
        loaded = loaded_after(
            "import omnipredict\n"
            f"for name in {sorted(PUBLIC)!r}:\n"
            "    module = getattr(omnipredict, name)\n"
            "    assert module is sys.modules['omnipredict.' + name], name")
        assert {f"omnipredict.{m}" for m in PUBLIC} <= loaded

    def test_scenario_show_loads_core_alone(self):
        loaded = run_command("scenario-show", "--config", BETA)
        assert package_modules(loaded) == {
            "omnipredict", "omnipredict._record", "omnipredict.cli",
            "omnipredict.core", "omnipredict.errors"}

    def test_rct_gen_loads_core_rct_and_predictor(self, models):
        workdir = models[0]
        loaded = run_command("rct-gen", "--config", BETA, "--n", "10",
                             "--out", str(workdir / "trial.jsonl"))
        assert package_modules(loaded) == {
            "omnipredict", "omnipredict._record", "omnipredict.cli",
            "omnipredict.core", "omnipredict.errors", "omnipredict.rct",
            "omnipredict.predictor"}

    def test_eval_and_adapt_verify_skip_audit_boost_and_rct(self, models):
        workdir, _, adapt = models
        for argv in (
            ["eval", "--config", BETA_W, "--model", adapt,
             "--shift", "focus_plus", "--out", str(workdir / "risks.csv")],
            ["adapt-verify", "--config", BETA_W, "--model", adapt],
        ):
            loaded = run_command(*argv)
            assert "omnipredict.adapt" in loaded
            for module in ("audit", "boost", "rct"):
                assert f"omnipredict.{module}" not in loaded, (argv[0], module)

    def test_train_loads_adapt_only_with_adapt(self, models):
        workdir = models[0]
        data = str(workdir / "train.jsonl")
        run_command("rct-gen", "--config", BETA, "--n", "20000", "--out", data)
        for extra in ([], ["--mode", "empirical", "--data", data]):
            loaded = run_command("train", "--config", BETA, "--epsilon", "0.05",
                                 "--out", str(workdir / "plain2.json"), *extra)
            assert "omnipredict.boost" in loaded
            assert "omnipredict.adapt" not in loaded, extra

    def test_no_command_starts_a_pool(self, models):
        workdir, plain, _ = models
        loaded = run_command("train", "--config", BETA, "--epsilon", "0.05",
                             "--threads", "2", "--out", str(workdir / "t2.json"))
        assert "omnipredict.boost" in loaded
        assert "concurrent.futures" not in loaded
        loaded = run_command("audit", "--config", BETA, "--model", plain)
        assert "omnipredict.audit" in loaded
        assert "omnipredict.boost" not in loaded
        assert "concurrent.futures" not in loaded


# Counts the exec calls dataclasses makes while every package module is
# imported, then while one bookkeeping-only record is defined.
EXEC_PROBE = """
import builtins, dataclasses, importlib, sys
import numpy
calls = [0]
real_exec = builtins.exec
def counting_exec(*args, **kwargs):
    if sys._getframe(1).f_globals.get("__name__") == "dataclasses":
        calls[0] += 1
    return real_exec(*args, **kwargs)
builtins.exec = counting_exec
modules = [importlib.import_module("omnipredict." + m) for m in sys.argv[1:]]
package = calls[0]
@dataclasses.dataclass(init=False, repr=False, eq=False)
class Bookkeeping:
    x: int = 0
records = sum(isinstance(v, type) and dataclasses.is_dataclass(v)
              and v.__module__ == m.__name__ for m in modules for v in vars(m).values())
print(package, calls[0] - package, records)
"""


# Counts the exec calls made from the records' base while exact train
# and audit run in process, then for one call that does not fit.
STUB_PROBE = """
import builtins, sys
from omnipredict import Hypothesis
from omnipredict.cli import main
calls = [0]
real_exec = builtins.exec
def counting_exec(*args, **kwargs):
    if sys._getframe(1).f_globals.get("__name__") == "omnipredict._record":
        calls[0] += 1
    return real_exec(*args, **kwargs)
builtins.exec = counting_exec
config, model = sys.argv[1:]
assert main(["train", "--config", config, "--epsilon", "0.05", "--out", model]) == 0
assert main(["audit", "--config", config, "--model", model]) == 0
commands = calls[0]
try:
    Hypothesis()
except TypeError as exc:
    assert str(exc).startswith("Hypothesis.__init__() missing 2 "), exc
print(commands, calls[0] - commands, file=sys.stderr)
"""


class TestRecordSetUp:
    def test_no_record_code_is_generated_at_import(self):
        """dataclass(frozen=True) writes and execs six methods per record
        in every process (152 calls for the package's records on 3.11);
        the records' base generates none. From 3.13 dataclass execs once
        per class whatever it adds, so there the package must exec no
        more than its records' bookkeeping alone does."""
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", EXEC_PROBE, "cli", *PUBLIC],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        package, per_record, records = map(int, proc.stdout.split())
        assert records == 26
        assert package == per_record * records
        if sys.version_info < (3, 13):
            assert package == 0

    def test_only_a_call_that_does_not_fit_compiles_a_stub(self, tmp_path):
        """An exact train and audit compile nothing in the records' base;
        one call that does not fit compiles its one stub."""
        proc = subprocess.run(
            [sys.executable, "-c", STUB_PROBE, BETA, str(tmp_path / "model.json")],
            capture_output=True, text=True, env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["0", "1"]


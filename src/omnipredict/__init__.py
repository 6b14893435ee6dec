"""Training and auditing of predictors whose decisions move the outcome.

The outcome model here is decision-conditional: Nature fixes, for every
feature point and every decision, the probability of a positive outcome.
A predictor is trained not to match those probabilities everywhere but
to be indistinguishable from them under the tests that matter for
downstream loss minimization, which makes one predictor simultaneously
near-optimal for a whole collection of losses.

Importing the package loads none of its modules. Each public name below
is imported from its defining module on first access (PEP 562), so a
command that needs only scenarios never pays for the audits or training.
"""

import importlib as _importlib

# every public name, by the module that defines it
_EXPORTS = {
    "errors": (
        "ArgumentError",
        "BoundExceededError",
        "ConfigurationError",
        "DataFormatError",
        "LearnerContractError",
        "ModelMismatchError",
        "OmnipredictError",
        "WeightInvariantError",
    ),
    "core": (
        "BUILTIN_LOSSES",
        "DecisionSpace",
        "FeatureSpace",
        "Hypothesis",
        "InputDistribution",
        "Loss",
        "NatureModel",
        "Scenario",
        "WeightClass",
        "WeightFunction",
        "augment_scenario",
        "builtin_loss",
        "expected_loss_given",
        "io_loss",
        "load_scenario",
        "optimal_rule_from_model",
        "performative_risk_exact",
        "scenario_from_dict",
    ),
    "predictor": (
        "AdditivePredictor",
        "Fingerprint",
        "UpdateTerm",
        "apply_term",
        "base_predictor",
        "evaluate_all",
        "induced_rule",
        "load_model",
        "prediction_matrix",
        "save_model",
        "serialize",
    ),
    "rct": (
        "GENERATOR_TAG",
        "RctDataset",
        "RctMeta",
        "generate_rct",
        "ips_risk_estimate",
        "model_risk_estimate",
        "read_jsonl",
        "required_sample_size",
        "write_jsonl",
    ),
    "audit": (
        "AuditReport",
        "AuditTarget",
        "CscInstance",
        "Violation",
        "audit_decision_calibration",
        "audit_doi_empirical",
        "audit_doi_exact",
        "audit_multiaccuracy",
        "audit_poi_empirical",
        "audit_poi_exact",
        "audit_via_csc",
        "baseline_weak_learner",
        "build_csc_instance",
        "doi_errs",
        "multiaccuracy_errs",
        "poi_err_matrix",
    ),
    "boost": (
        "BoostConfig",
        "BoostResult",
        "BoostTrace",
        "TraceRecord",
        "iteration_bound",
        "poi_boost",
        "potential",
        "write_trace",
    ),
    "adapt": (
        "AdaptReport",
        "MixtureSpec",
        "induced_rule_shift_invariance_check",
        "mixture_distribution",
        "shift_distribution",
        "verify_universal_adaptability",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name from its defining module, or a submodule by name."""
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

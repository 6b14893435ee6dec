"""The functions the traced run wraps, one span name each, by layer.

A span name is "<layer>.<function>"; its value names the defining module
and the attributes to wrap there. Several attributes may share one span
name: core.validate sums the validate methods of every scenario part.
Per-sample helpers such as Loss.values and Hypothesis.decide are left
out on purpose, since wrapping them would cost more than they do.
"""

SPANS = {
    "cli.main": ("omnipredict.cli", ["main"]),
    "core.load_scenario": ("omnipredict.core", ["load_scenario"]),
    "core.scenario_from_dict": ("omnipredict.core", ["scenario_from_dict"]),
    "core.Scenario.__post_init__": ("omnipredict.core", ["Scenario.__post_init__"]),
    "core.validate": (
        "omnipredict.core",
        [
            "InputDistribution.validate",
            "NatureModel.validate",
            "Loss.validate",
            "Hypothesis.validate",
            "WeightFunction.validate",
        ],
    ),
    "core.performative_risk_exact": ("omnipredict.core", ["performative_risk_exact"]),
    "predictor.apply_term": ("omnipredict.predictor", ["apply_term"]),
    "predictor.evaluate_all": ("omnipredict.predictor", ["evaluate_all"]),
    "predictor.induced_rule": ("omnipredict.predictor", ["induced_rule"]),
    "predictor.deserialize": ("omnipredict.predictor", ["deserialize"]),
    "predictor.save_model": ("omnipredict.predictor", ["save_model"]),
    "audit.poi_err_matrix": ("omnipredict.audit", ["poi_err_matrix"]),
    "audit.doi_errs": ("omnipredict.audit", ["doi_errs"]),
    "audit.audit_poi_empirical": ("omnipredict.audit", ["audit_poi_empirical"]),
    "audit.audit_doi_empirical": ("omnipredict.audit", ["audit_doi_empirical"]),
    "audit.build_csc_instance": ("omnipredict.audit", ["build_csc_instance"]),
    "audit.CscInstance.mean_cost": ("omnipredict.audit", ["CscInstance.mean_cost"]),
    "audit.baseline_weak_learner": ("omnipredict.audit", ["baseline_weak_learner"]),
    "audit.audit_decision_calibration": (
        "omnipredict.audit",
        ["audit_decision_calibration"],
    ),
    "audit.audit_multiaccuracy": ("omnipredict.audit", ["audit_multiaccuracy"]),
    "boost.poi_boost": ("omnipredict.boost", ["poi_boost"]),
    "boost.potential": ("omnipredict.boost", ["potential"]),
    "boost.write_trace": ("omnipredict.boost", ["write_trace"]),
    "rct.generate_rct": ("omnipredict.rct", ["generate_rct"]),
    "rct.write_jsonl": ("omnipredict.rct", ["write_jsonl"]),
    "rct.read_jsonl": ("omnipredict.rct", ["read_jsonl"]),
    "rct.ips_risk_estimate": ("omnipredict.rct", ["ips_risk_estimate"]),
    "rct.model_risk_estimate": ("omnipredict.rct", ["model_risk_estimate"]),
    "adapt.augment_scenario": ("omnipredict.adapt", ["augment_scenario"]),
    "adapt.shift_distribution": ("omnipredict.adapt", ["shift_distribution"]),
    "adapt.mixture_distribution": ("omnipredict.adapt", ["mixture_distribution"]),
    "adapt.verify_universal_adaptability": (
        "omnipredict.adapt",
        ["verify_universal_adaptability"],
    ),
    "adapt.induced_rule_shift_invariance_check": (
        "omnipredict.adapt",
        ["induced_rule_shift_invariance_check"],
    ),
}

# Work counted at a span: the size of the input the call scans.
# predictor.evaluate_all counts terms replayed, the rest count samples.
SIZED = {
    "predictor.evaluate_all": "predictor.terms_replayed",
    "rct.ips_risk_estimate": "rct.ips_samples",
    "rct.model_risk_estimate": "rct.model_risk_samples",
    "audit.CscInstance.mean_cost": "audit.csc_cost_rows",
}

# Per-layer metrics that are not a span's calls, time or self time.
EXTRA = {
    "cli.startup.s": "s",
    "boost.updates": "count",
    "boost.bound_headroom": "ratio",
    "boost.true_gap": "eps",
    "audit.poi_cells_per_update": "count",
    "predictor.terms_replayed": "count",
    "rct.ips_samples": "count",
    "rct.model_risk_samples": "count",
    "audit.csc_cost_rows": "count",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    return units

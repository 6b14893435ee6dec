"""Training and auditing of predictors whose decisions move the outcome.

The outcome model here is decision-conditional: Nature fixes, for every
feature point and every decision, the probability of a positive outcome.
A predictor is trained not to match those probabilities everywhere but
to be indistinguishable from them under the tests that matter for
downstream loss minimization, which makes one predictor simultaneously
near-optimal for a whole collection of losses.
"""

import types as _types

from .errors import (
    ArgumentError,
    BoundExceededError,
    ConfigurationError,
    DataFormatError,
    LearnerContractError,
    ModelMismatchError,
    OmnipredictError,
    WeightInvariantError,
)
from .core import (
    BUILTIN_LOSSES,
    DecisionSpace,
    FeatureSpace,
    Hypothesis,
    InputDistribution,
    Loss,
    NatureModel,
    Scenario,
    WeightClass,
    WeightFunction,
    builtin_loss,
    expected_loss_given,
    io_loss,
    load_scenario,
    make_beta_scenario,
    optimal_rule_from_model,
    performative_risk_exact,
    scenario_from_dict,
    scenario_to_dict,
)
from .predictor import (
    AdditivePredictor,
    Fingerprint,
    UpdateTerm,
    apply_term,
    base_predictor,
    evaluate,
    evaluate_all,
    induced_rule,
    load_model,
    optimal_decision_from_vector,
    outcome_table,
    prediction_matrix,
    save_model,
    serialize,
)
from .rct import (
    GENERATOR_TAG,
    RctDataset,
    RctMeta,
    generate_rct,
    ips_risk_estimate,
    model_risk_estimate,
    read_jsonl,
    required_sample_size,
    write_jsonl,
)
from .audit import (
    AuditReport,
    AuditTarget,
    CscInstance,
    Violation,
    audit_decision_calibration,
    audit_doi_empirical,
    audit_doi_exact,
    audit_multiaccuracy,
    audit_poi_empirical,
    audit_poi_exact,
    audit_via_csc,
    baseline_weak_learner,
    build_csc_instance,
    doi_errs,
    multiaccuracy_errs,
    poi_err_matrix,
)
from .boost import (
    BoostConfig,
    BoostResult,
    BoostTrace,
    TraceRecord,
    iteration_bound,
    poi_boost,
    potential,
    write_trace,
)
from .adapt import (
    AdaptReport,
    MixtureSpec,
    augment_losses,
    augment_scenario,
    induced_rule_shift_invariance_check,
    mixture_distribution,
    shift_distribution,
    verify_universal_adaptability,
)

__version__ = "0.1.0"

# every public name imported above; the submodules themselves are left out
__all__ = sorted(
    name
    for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _types.ModuleType))
)

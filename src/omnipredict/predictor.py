"""Additive vector-valued predictors over finite decision problems.

A predictor maps each feature to a vector in [0,1]^k whose j-th entry
models the probability of outcome 1 if decision j were taken. The
representation is a base vector of 1/2 entries plus an ordered list of
clipped additive updates. Each update subtracts a signed step times a
loss-gap direction supported on one decision per feature: the decision
named by an external rule, or the running vector's own loss-optimal
decision ("induced" updates). Induced updates are resolved in a single
left-to-right pass, so evaluation cost stays linear in the number of
terms; the running vector at each position is exactly the predictor
that existed when that term was appended.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import DecisionSpace, Hypothesis, Loss, Scenario
from .errors import ArgumentError, ConfigurationError, ModelMismatchError

EXTERNAL = "external"
INDUCED = "induced"

_LMAX_MATCH_TOLERANCE = 1e-12


@dataclass(frozen=True)
class UpdateTerm:
    """One additive update: step size, driving loss, and its rule target.

    target_kind is "external" (target_name names a scenario hypothesis)
    or "induced" (the rule is recomputed from the running vector for the
    named loss during evaluation).
    """

    eta: float
    loss_name: str
    target_kind: str
    target_name: str

    def __post_init__(self):
        if self.target_kind not in (EXTERNAL, INDUCED):
            raise ArgumentError(f"unknown update-term kind {self.target_kind!r}")


@dataclass(frozen=True)
class Fingerprint:
    """Identity of the training run a model belongs to."""

    scenario: str
    epsilon: float
    lmax: float
    adapt: bool = False


@dataclass(frozen=True)
class AdditivePredictor:
    """Base vector of 1/2 entries plus ordered clipped additive updates."""

    k: int
    terms: tuple[UpdateTerm, ...]
    fingerprint: Fingerprint

    def __post_init__(self):
        if self.k < 1:
            raise ArgumentError("predictor needs k >= 1 decisions")

    @property
    def base(self) -> tuple[float, ...]:
        return (0.5,) * self.k


def base_predictor(scenario: Scenario, epsilon: float, adapt: bool = False) -> AdditivePredictor:
    """The all-1/2 predictor for a scenario, with a fresh fingerprint."""
    return AdditivePredictor(
        k=scenario.k,
        terms=(),
        fingerprint=Fingerprint(
            scenario=scenario.name,
            epsilon=float(epsilon),
            lmax=float(scenario.lmax),
            adapt=bool(adapt),
        ),
    )


def _resolve_term(term: UpdateTerm, scenario: Scenario):
    try:
        scenario.loss_by_name(term.loss_name)
    except ConfigurationError:
        raise ModelMismatchError(
            f"update term references unknown loss {term.loss_name!r}"
        ) from None
    if term.target_kind == EXTERNAL:
        try:
            scenario.hypothesis_by_name(term.target_name)
        except ConfigurationError:
            raise ModelMismatchError(
                f"update term references unknown hypothesis {term.target_name!r}"
            ) from None
    else:
        try:
            scenario.loss_by_name(term.target_name)
        except ConfigurationError:
            raise ModelMismatchError(
                f"induced update term references unknown loss {term.target_name!r}"
            ) from None


def apply_term(matrix: np.ndarray, term: UpdateTerm, scenario: Scenario) -> np.ndarray:
    """One fold step: subtract eta times the term's direction, then clip.

    The direction at feature x is the loss's outcome gap
    loss(x, yhat, 1) - loss(x, yhat, 0) placed at the target rule's
    decision index and zero elsewhere. For induced terms the rule is the
    loss-optimal decision under the incoming matrix itself.
    """
    arrays = scenario.arrays
    base = arrays.loss_base[term.loss_name]
    delta = arrays.loss_delta[term.loss_name]
    if term.target_kind == EXTERNAL:
        target_idx = arrays.hyp_index[term.target_name]
    else:
        tbase = arrays.loss_base[term.target_name]
        tdelta = arrays.loss_delta[term.target_name]
        target_idx = np.argmin(tbase + tdelta * matrix, axis=1)
    cols = np.arange(matrix.shape[1])
    direction = np.where(cols[np.newaxis, :] == target_idx[:, np.newaxis], delta, 0.0)
    return np.clip(matrix - term.eta * direction, 0.0, 1.0)


def evaluate_all(pred: AdditivePredictor, scenario: Scenario) -> np.ndarray:
    """Prediction matrix of shape (|X|, k), rows in canonical feature order."""
    for term in pred.terms:
        _resolve_term(term, scenario)
    n_x = len(scenario.features.points)
    matrix = np.full((n_x, pred.k), 0.5, dtype=np.float64)
    for term in pred.terms:
        matrix = apply_term(matrix, term, scenario)
    return matrix


def evaluate(pred: AdditivePredictor, x: str, scenario: Scenario) -> np.ndarray:
    """Prediction vector at one feature; entries always within [0, 1]."""
    arrays = scenario.arrays
    if x not in arrays.x_index:
        raise ArgumentError(f"unknown feature {x!r}")
    return evaluate_all(pred, scenario)[arrays.x_index[x]]


def prediction_matrix(pred, scenario: Scenario) -> np.ndarray:
    """Normalize a predictor argument to its (|X|, k) prediction matrix.

    Accepts an AdditivePredictor or a precomputed matrix aligned to the
    scenario's canonical feature and decision order.
    """
    if isinstance(pred, AdditivePredictor):
        return evaluate_all(pred, scenario)
    matrix = np.asarray(pred, dtype=np.float64)
    expected = (len(scenario.features.points), scenario.k)
    if matrix.shape != expected:
        raise ArgumentError(
            f"prediction matrix has shape {matrix.shape}, expected {expected}"
        )
    if np.any(matrix < 0.0) or np.any(matrix > 1.0):
        raise ArgumentError("prediction matrix entries must lie in [0, 1]")
    return matrix


def optimal_decision_from_vector(
    v, loss: Loss, x: str, decisions: DecisionSpace
) -> str:
    """Loss-optimal decision under modeled outcome probabilities v.

    Minimizes loss(x, yhat, 0) + (loss(x, yhat, 1) - loss(x, yhat, 0)) * v[j]
    over decisions; ties go to the lowest canonical index.
    """
    best = None
    best_value = None
    for j, yhat in enumerate(decisions.labels):
        at0 = loss.values(x, yhat, 0)
        at1 = loss.values(x, yhat, 1)
        value = at0 + (at1 - at0) * float(v[j])
        if best_value is None or value < best_value:
            best = yhat
            best_value = value
    return best


def induced_rule(pred, loss: Loss, scenario: Scenario) -> Hypothesis:
    """The predictor's loss-optimal post-processing as a total rule."""
    matrix = prediction_matrix(pred, scenario)
    arrays = scenario.arrays
    base, delta = arrays.loss_arrays_for(scenario, loss)
    idx = np.argmin(base + delta * matrix, axis=1)
    labels = scenario.decisions.labels
    mapping = {x: labels[idx[i]] for i, x in enumerate(scenario.features.points)}
    return Hypothesis(name=f"f~({loss.name})", mapping=mapping)


def outcome_table(pred, scenario: Scenario) -> dict:
    """Nested feature -> decision -> probability view of a predictor."""
    matrix = prediction_matrix(pred, scenario)
    labels = scenario.decisions.labels
    return {
        x: {labels[j]: float(matrix[i, j]) for j in range(scenario.k)}
        for i, x in enumerate(scenario.features.points)
    }


def serialize(pred: AdditivePredictor) -> dict:
    return {
        "fingerprint": {
            "scenario": pred.fingerprint.scenario,
            "epsilon": pred.fingerprint.epsilon,
            "lmax": pred.fingerprint.lmax,
            "adapt": pred.fingerprint.adapt,
        },
        "base": list(pred.base),
        "terms": [
            {
                "eta": t.eta,
                "loss": t.loss_name,
                "target": {"kind": t.target_kind, "name": t.target_name},
            }
            for t in pred.terms
        ],
    }


def deserialize(doc: dict, scenario: Scenario) -> AdditivePredictor:
    """Rebuild a predictor and check it belongs to the given scenario.

    The fingerprint's scenario name and lmax must match, and every term
    reference must resolve; otherwise the model file is unusable here.
    """
    try:
        fp_doc = doc["fingerprint"]
        fingerprint = Fingerprint(
            scenario=str(fp_doc["scenario"]),
            epsilon=float(fp_doc["epsilon"]),
            lmax=float(fp_doc["lmax"]),
            adapt=bool(fp_doc.get("adapt", False)),
        )
        base = [float(v) for v in doc["base"]]
        terms = tuple(
            UpdateTerm(
                eta=float(t["eta"]),
                loss_name=str(t["loss"]),
                target_kind=str(t["target"]["kind"]),
                target_name=str(t["target"]["name"]),
            )
            for t in doc["terms"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelMismatchError(f"model document is malformed: {exc}") from exc
    if fingerprint.scenario != scenario.name:
        raise ModelMismatchError(
            f"model was trained on scenario {fingerprint.scenario!r}, "
            f"not {scenario.name!r}"
        )
    if abs(fingerprint.lmax - scenario.lmax) > _LMAX_MATCH_TOLERANCE:
        raise ModelMismatchError(
            f"model lmax {fingerprint.lmax!r} does not match scenario "
            f"lmax {scenario.lmax!r}"
        )
    if len(base) != scenario.k or any(v != 0.5 for v in base):
        raise ModelMismatchError("model base vector must be all 1/2 of length k")
    pred = AdditivePredictor(k=scenario.k, terms=terms, fingerprint=fingerprint)
    for term in terms:
        _resolve_term(term, scenario)
    return pred


def save_model(pred: AdditivePredictor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(pred), fh, indent=2)
        fh.write("\n")


def read_model_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelMismatchError(f"cannot read model file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ModelMismatchError(f"model file {path} is not valid JSON: {exc}")


def load_model(path, scenario: Scenario) -> AdditivePredictor:
    return deserialize(read_model_document(path), scenario)

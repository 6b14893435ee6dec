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
import math
from functools import partial

import numpy as np

from ._record import Record
from .core import Hypothesis, Loss, Scenario, json_value
from .errors import ArgumentError, ModelMismatchError

EXTERNAL = "external"
INDUCED = "induced"

_LMAX_MATCH_TOLERANCE = 1e-12


class UpdateTerm(Record):
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


class Fingerprint(Record):
    """Identity of the training run a model belongs to."""

    scenario: str
    epsilon: float
    lmax: float
    adapt: bool = False


class AdditivePredictor(Record):
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
    arrays = scenario.arrays
    if term.loss_name not in arrays.loss_values:
        raise ModelMismatchError(
            f"update term references unknown loss {term.loss_name!r}"
        )
    if term.target_kind == EXTERNAL and term.target_name not in arrays.hyp_index:
        raise ModelMismatchError(
            f"update term references unknown hypothesis {term.target_name!r}"
        )
    if term.target_kind == INDUCED and term.target_name not in arrays.loss_values:
        raise ModelMismatchError(
            f"induced update term references unknown loss {term.target_name!r}"
        )


def apply_term(matrix: np.ndarray, term: UpdateTerm, scenario: Scenario) -> np.ndarray:
    """One fold step: subtract eta times the term's direction, then clip.

    The direction at feature x is the loss's outcome gap
    loss(x, yhat, 1) - loss(x, yhat, 0) placed at the target rule's
    decision index and zero elsewhere. For induced terms the rule is the
    loss-optimal decision under the incoming matrix itself.

    Only the |X| target cells x*k + target(x) are touched: they are
    gathered, stepped and clipped on a copy of the matrix, and every
    other cell comes out unchanged bit for bit, as the dense step over
    the full matrix leaves it.
    """
    arrays = scenario.arrays
    if term.target_kind == EXTERNAL:
        target_idx = arrays.hyp_index[term.target_name]
    else:
        target_idx = arrays.optimal_decisions(term.target_name, matrix)
    cells = arrays.offsets + target_idx
    stepped = np.array(matrix, dtype=np.float64)
    step = stepped.take(cells) - term.eta * arrays.loss_delta[term.loss_name].take(cells)
    stepped.put(cells, np.clip(step, 0.0, 1.0))
    return stepped


def evaluate_all(pred: AdditivePredictor, scenario: Scenario) -> np.ndarray:
    """Prediction matrix of shape (|X|, k), rows in canonical feature order."""
    for term in pred.terms:
        _resolve_term(term, scenario)
    n_x = len(scenario.features.points)
    matrix = np.full((n_x, pred.k), 0.5, dtype=np.float64)
    for term in pred.terms:
        matrix = apply_term(matrix, term, scenario)
    return matrix


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
    if not np.all((matrix >= 0.0) & (matrix <= 1.0)):  # NaN fails too
        raise ArgumentError("prediction matrix entries must lie in [0, 1]")
    return matrix


def induced_rule(pred, loss: Loss, scenario: Scenario) -> Hypothesis:
    """The predictor's loss-optimal post-processing as a total rule,
    whose mapping is a view of the argmin decision indices."""
    matrix = prediction_matrix(pred, scenario)
    arrays = scenario.arrays
    arrays.loss_arrays(loss)  # rejects a loss from outside the scenario
    idx = arrays.optimal_decisions(loss.name, matrix)
    return Hypothesis(name=f"f~({loss.name})", mapping=arrays.view(idx))


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


# json_value for model documents: a value of the wrong type is a mismatch
_typed = partial(json_value, error=ModelMismatchError)


def read_fingerprint(doc, scenario: Scenario) -> Fingerprint:
    """The fingerprint of a model document, checked: epsilon positive
    and finite, lmax finite, adapt a JSON boolean when present, and the
    scenario's name."""
    try:
        doc = _typed(doc, "object", "model document")
        fp = _typed(doc["fingerprint"], "object", "key 'fingerprint'")
        name = _typed(fp["scenario"], "string", "fingerprint key 'scenario'")
        eps, lmax = (float(_typed(fp[k], "number", f"fingerprint key {k!r}"))
                     for k in ("epsilon", "lmax"))
        adapt = fp.get("adapt", False)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ModelMismatchError(f"model document is malformed: {exc}") from exc
    if not isinstance(adapt, bool):
        raise ModelMismatchError(
            f"model fingerprint field 'adapt' must be true or false, got {adapt!r}"
        )
    if not (math.isfinite(eps) and eps > 0):
        raise ModelMismatchError(f"model epsilon must be positive and finite: {eps!r}")
    if not math.isfinite(lmax):
        raise ModelMismatchError(f"model lmax must be finite: {lmax!r}")
    if name != scenario.name:
        raise ModelMismatchError(
            f"model was trained on scenario {name!r}, not {scenario.name!r}"
        )
    return Fingerprint(scenario=name, epsilon=eps, lmax=lmax, adapt=adapt)


def _read_term(t) -> UpdateTerm:
    """One item of a model document's terms, its keys read in order."""
    t = _typed(t, "object", "key 'terms' item")
    eta = float(_typed(t["eta"], "number", "term key 'eta'"))
    loss_name = _typed(t["loss"], "string", "term key 'loss'")
    target = _typed(t["target"], "object", "term key 'target'")
    return UpdateTerm(
        eta=eta,
        loss_name=loss_name,
        target_kind=_typed(target["kind"], "string", "term target key 'kind'"),
        target_name=_typed(target["name"], "string", "term target key 'name'"),
    )


def deserialize(doc: dict, scenario: Scenario) -> AdditivePredictor:
    """Rebuild a predictor and check it belongs to the given scenario.

    The fingerprint (read_fingerprint) must name the scenario and match
    its lmax, every eta must be finite, and every term reference must
    resolve; otherwise the model file is unusable here.
    """
    fingerprint = read_fingerprint(doc, scenario)
    try:
        base = _typed(doc["base"], "array", "key 'base'")
        base = [float(_typed(v, "number", "key 'base' item")) for v in base]
        terms = tuple(map(_read_term, _typed(doc["terms"], "array", "key 'terms'")))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelMismatchError(f"model document is malformed: {exc}") from exc
    for i, term in enumerate(terms):
        if not math.isfinite(term.eta):
            raise ModelMismatchError(
                f"model term {i} has a non-finite eta: {term.eta!r}"
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
    except (ValueError, RecursionError) as exc:  # bad bytes, long integers, nesting
        raise ModelMismatchError(f"model file {path} is not valid JSON: {exc}")


def load_model(path, scenario: Scenario) -> AdditivePredictor:
    try:
        return deserialize(read_model_document(path), scenario)
    except ModelMismatchError as exc:
        raise ModelMismatchError(f"model file {path}: {exc}") from exc

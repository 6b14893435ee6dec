"""Domain model for decision problems with outcome-dependent feedback.

A scenario fixes a finite feature space X with an input distribution, a
finite decision space, and an outcome model giving the probability that
the binary outcome is 1 for each (feature, decision) pair. Because the
decision itself shifts the outcome distribution, the risk of a decision
rule must be computed under the outcomes the rule induces. Everything
here is exhaustively enumerable, so expectations and risks are exact.

Conventions used throughout the package:

* decision and feature identifiers are strings; the order they are
  declared in is canonical and index 0..k-1 is fixed by it;
* outcomes are binary, 0 or 1;
* argmin ties are always broken toward the lowest canonical decision
  index, so training and evaluation are reproducible bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import ArgumentError, ConfigurationError, WeightInvariantError

MASS_TOLERANCE = 1e-9

BUILTIN_LOSSES = ("steer_to_one", "steer_to_zero", "squared_forecast")


@dataclass(frozen=True)
class DecisionSpace:
    """Ordered finite set of available decisions."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ConfigurationError("decision space must contain at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigurationError("decision labels must be distinct")

    @property
    def k(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered finite set of feature identifiers (one per individual type)."""

    points: tuple[str, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ConfigurationError("feature space must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ConfigurationError("feature identifiers must be distinct")


@dataclass(frozen=True)
class InputDistribution:
    """Probability mass over the feature space.

    Masses may be zero; they must be nonnegative and sum to 1 within
    MASS_TOLERANCE. The distribution never depends on the deployed
    decision rule.
    """

    probabilities: Mapping[str, float]

    def mass(self, x: str) -> float:
        return float(self.probabilities.get(x, 0.0))

    def validate(self, features: FeatureSpace) -> None:
        points = set(features.points)
        for x in self.probabilities:
            if x not in points:
                raise ConfigurationError(
                    f"input distribution assigns mass to unknown feature {x!r}"
                )
        masses = [float(v) for v in self.probabilities.values()]
        if not all(math.isfinite(m) and m >= 0 for m in masses):
            raise ConfigurationError(
                "input distribution has a negative or non-finite mass"
            )
        total = math.fsum(masses)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ConfigurationError(
                f"input distribution masses sum to {total!r}, expected 1"
            )

    def support(self) -> tuple[str, ...]:
        return tuple(x for x, m in self.probabilities.items() if m > 0)


@dataclass(frozen=True)
class NatureModel:
    """True probability of outcome 1 for every (feature, decision) pair."""

    table: Mapping[str, Mapping[str, float]]

    def prob(self, x: str, yhat: str) -> float:
        row = self.table.get(x)
        if row is None or yhat not in row:
            raise ConfigurationError(
                f"outcome model has no entry for feature {x!r}, decision {yhat!r}"
            )
        return float(row[yhat])

    def validate(self, features: FeatureSpace, decisions: DecisionSpace) -> None:
        for x in features.points:
            for yhat in decisions.labels:
                p = self.prob(x, yhat)  # raises if the entry is missing
                if not 0.0 <= p <= 1.0:
                    raise ConfigurationError(
                        f"outcome probability {p!r} at ({x!r}, {yhat!r}) "
                        "is outside [0, 1]"
                    )


@dataclass(frozen=True)
class Loss:
    """Bounded loss over (feature, decision, outcome).

    The table maps feature -> decision -> (value at y=0, value at y=1).
    Values must lie in [0, lmax]; this is checked by full enumeration
    when a scenario is built. A loss is input-oblivious when its values
    do not depend on the feature.
    """

    name: str
    lmax: float
    table: Mapping[str, Mapping[str, tuple[float, float]]]
    input_oblivious: bool = False

    def values(self, x: str, yhat: str, y: int) -> float:
        row = self.table.get(x)
        if row is None or yhat not in row:
            raise ConfigurationError(
                f"loss {self.name!r} has no entry for feature {x!r}, "
                f"decision {yhat!r}"
            )
        return float(row[yhat][y])

    def validate(self, features: FeatureSpace, decisions: DecisionSpace) -> None:
        if not (math.isfinite(self.lmax) and self.lmax > 0):
            raise ConfigurationError(
                f"loss {self.name!r} must have a finite lmax > 0, got {self.lmax!r}"
            )
        for x in features.points:
            for yhat in decisions.labels:
                for y in (0, 1):
                    v = self.values(x, yhat, y)
                    if not 0.0 <= v <= self.lmax:
                        raise ConfigurationError(
                            f"loss {self.name!r} value {v!r} at "
                            f"({x!r}, {yhat!r}, y={y}) is outside [0, {self.lmax}]"
                        )
        if self.input_oblivious and not _table_is_input_oblivious(
            self.table, features, decisions
        ):
            raise ConfigurationError(
                f"loss {self.name!r} is flagged input-oblivious but "
                "differs between features"
            )


@dataclass(frozen=True)
class Hypothesis:
    """Deterministic decision rule: a total map from features to decisions."""

    name: str
    mapping: Mapping[str, str]

    def decide(self, x: str) -> str:
        try:
            return self.mapping[x]
        except KeyError:
            raise ConfigurationError(
                f"rule {self.name!r} has no decision for feature {x!r}"
            ) from None

    def validate(self, features: FeatureSpace, decisions: DecisionSpace) -> None:
        for x in features.points:
            yhat = self.decide(x)
            if yhat not in decisions.labels:
                raise ConfigurationError(
                    f"rule {self.name!r} maps {x!r} to unknown decision {yhat!r}"
                )


@dataclass(frozen=True)
class WeightFunction:
    """Importance weight over features with a stated upper bound.

    Requires unit mean under the scenario's input distribution, so that
    reweighting yields a probability distribution again.
    """

    name: str
    mapping: Mapping[str, float]
    wmax: float

    def weight(self, x: str) -> float:
        if x not in self.mapping:
            raise ConfigurationError(
                f"weight function {self.name!r} has no value for feature {x!r}"
            )
        return float(self.mapping[x])

    def validate(self, features: FeatureSpace, dist: InputDistribution) -> None:
        if not (math.isfinite(self.wmax) and self.wmax > 0):
            raise WeightInvariantError(
                f"weight function {self.name!r} must have a finite wmax > 0, "
                f"got {self.wmax!r}"
            )
        for x in features.points:
            w = self.weight(x)
            if not 0.0 <= w <= self.wmax:
                raise WeightInvariantError(
                    f"weight function {self.name!r} value {w!r} at {x!r} "
                    f"is outside [0, {self.wmax}]"
                )
        mean = math.fsum(dist.mass(x) * self.weight(x) for x in features.points)
        if abs(mean - 1.0) > MASS_TOLERANCE:
            raise WeightInvariantError(
                f"weight function {self.name!r} has mean {mean!r} under the "
                "input distribution, expected 1"
            )


@dataclass(frozen=True)
class WeightClass:
    """Finite collection of importance weights; wmax is the class maximum."""

    weights: tuple[WeightFunction, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ConfigurationError("weight class must be nonempty when present")
        names = [w.name for w in self.weights]
        if len(set(names)) != len(names):
            raise ConfigurationError("weight function names must be distinct")

    @property
    def wmax(self) -> float:
        return max(w.wmax for w in self.weights)

    def by_name(self, name: str) -> WeightFunction:
        for w in self.weights:
            if w.name == name:
                return w
        raise ArgumentError(f"unknown weight function {name!r}")


class _ScenarioArrays:
    """Dense numpy views of a scenario, index-aligned to canonical order.

    Reductions use np.add.reduce (pairwise summation in numpy's core),
    never BLAS, so results do not depend on thread counts.
    """

    def __init__(self, scenario: "Scenario"):
        xs = scenario.features.points
        ys = scenario.decisions.labels
        self.x_index = {x: i for i, x in enumerate(xs)}
        self.y_index = {y: j for j, y in enumerate(ys)}
        self.dist = np.array(
            [scenario.input_distribution.mass(x) for x in xs], dtype=np.float64
        )
        self.nature = np.array(
            [[scenario.nature.prob(x, y) for y in ys] for x in xs], dtype=np.float64
        )
        self.loss_base = {}
        self.loss_delta = {}
        for loss in scenario.losses:
            at0 = np.array(
                [[loss.values(x, y, 0) for y in ys] for x in xs], dtype=np.float64
            )
            at1 = np.array(
                [[loss.values(x, y, 1) for y in ys] for x in xs], dtype=np.float64
            )
            self.loss_base[loss.name] = at0
            self.loss_delta[loss.name] = at1 - at0
        self.hyp_index = {
            h.name: np.array(
                [self.y_index[h.decide(x)] for x in xs], dtype=np.int64
            )
            for h in scenario.hypotheses
        }

    def rule_indices(self, rule: Hypothesis | Mapping[str, str]) -> np.ndarray:
        mapping = rule.mapping if isinstance(rule, Hypothesis) else rule
        return np.array(
            [self.y_index[mapping[x]] for x in self.x_index], dtype=np.int64
        )

    def loss_arrays_for(self, scenario: "Scenario", loss: Loss):
        """Base/delta arrays for a loss that may not belong to the scenario."""
        if loss.name in self.loss_base and loss in scenario.losses:
            return self.loss_base[loss.name], self.loss_delta[loss.name]
        xs = scenario.features.points
        ys = scenario.decisions.labels
        at0 = np.array([[loss.values(x, y, 0) for y in ys] for x in xs])
        at1 = np.array([[loss.values(x, y, 1) for y in ys] for x in xs])
        return at0, at1 - at0


@dataclass(frozen=True)
class Scenario:
    """A complete finite decision problem.

    Bundles the spaces, the input distribution, the outcome model, the
    loss collection, the comparison rules, and the tolerance epsilon.
    Construction validates every component by full enumeration, so any
    scenario object in hand is safe to compute with.
    """

    name: str
    features: FeatureSpace
    decisions: DecisionSpace
    input_distribution: InputDistribution
    nature: NatureModel
    losses: tuple[Loss, ...]
    hypotheses: tuple[Hypothesis, ...]
    epsilon: float
    weights: Optional[WeightClass] = None

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigurationError(
                f"epsilon must be a positive finite number, got {self.epsilon!r}"
            )
        if len(self.losses) == 0:
            raise ConfigurationError("scenario needs at least one loss")
        if len(self.hypotheses) == 0:
            raise ConfigurationError("scenario needs at least one hypothesis")
        self.input_distribution.validate(self.features)
        self.nature.validate(self.features, self.decisions)
        loss_names = [l.name for l in self.losses]
        if len(set(loss_names)) != len(loss_names):
            raise ConfigurationError("loss names must be distinct")
        for loss in self.losses:
            loss.validate(self.features, self.decisions)
        hyp_names = [h.name for h in self.hypotheses]
        if len(set(hyp_names)) != len(hyp_names):
            raise ConfigurationError("hypothesis names must be distinct")
        for h in self.hypotheses:
            h.validate(self.features, self.decisions)
        if self.weights is not None:
            for w in self.weights.weights:
                w.validate(self.features, self.input_distribution)
        object.__setattr__(self, "_arrays", _ScenarioArrays(self))

    @property
    def k(self) -> int:
        return self.decisions.k

    @property
    def lmax(self) -> float:
        return max(l.lmax for l in self.losses)

    @property
    def arrays(self) -> _ScenarioArrays:
        return self._arrays  # type: ignore[attr-defined]

    def loss_by_name(self, name: str) -> Loss:
        for l in self.losses:
            if l.name == name:
                return l
        raise ConfigurationError(f"scenario has no loss named {name!r}")

    def hypothesis_by_name(self, name: str) -> Hypothesis:
        for h in self.hypotheses:
            if h.name == name:
                return h
        raise ConfigurationError(f"scenario has no hypothesis named {name!r}")


def expected_loss_given(x: str, yhat: str, p: float, loss: Loss) -> float:
    """Exact expected loss when the outcome is Bernoulli(p).

    Closed form: loss(x, yhat, 0) + (loss(x, yhat, 1) - loss(x, yhat, 0)) * p.
    Linear in p, so it interpolates the two outcome values.
    """
    at0 = loss.values(x, yhat, 0)
    at1 = loss.values(x, yhat, 1)
    return at0 + (at1 - at0) * p


def _model_prob(model, x: str, yhat: str) -> float:
    if hasattr(model, "prob"):
        return model.prob(x, yhat)
    row = model.get(x) if hasattr(model, "get") else None
    if row is None or yhat not in row:
        raise ConfigurationError(
            f"outcome table has no entry for feature {x!r}, decision {yhat!r}"
        )
    return float(row[yhat])


def performative_risk_exact(rule, model, loss: Loss, dist: InputDistribution) -> float:
    """Exact risk of a decision rule under the outcomes it induces.

    Sums dist(x) * E[loss(x, rule(x), y)] with y ~ Bernoulli of the
    model's probability at (x, rule(x)). The rule must cover the support
    of dist; `model` is either an outcome model or any nested mapping
    feature -> decision -> probability (for example a predictor table).
    """
    decide = rule.decide if isinstance(rule, Hypothesis) else rule.__getitem__
    terms = []
    for x, mass in dist.probabilities.items():
        mass = float(mass)
        if mass == 0.0:
            continue
        try:
            yhat = decide(x)
        except KeyError:
            raise ConfigurationError(f"rule has no decision for feature {x!r}") from None
        p = _model_prob(model, x, yhat)
        terms.append(mass * expected_loss_given(x, yhat, p, loss))
    return math.fsum(terms)


def optimal_rule_from_model(model, loss: Loss, decisions: DecisionSpace) -> Hypothesis:
    """Pointwise loss-minimizing rule for a given outcome table.

    For each feature picks the decision minimizing the expected loss
    under the table's outcome probability; ties go to the lowest
    canonical decision index.
    """
    table = model.table if isinstance(model, NatureModel) else model
    mapping = {}
    for x in table:
        best = None
        best_value = math.inf
        for yhat in decisions.labels:
            value = expected_loss_given(x, yhat, _model_prob(model, x, yhat), loss)
            if value < best_value:
                best = yhat
                best_value = value
        mapping[x] = best
    return Hypothesis(name=f"argmin({loss.name})", mapping=mapping)


def io_loss(
    name: str,
    lmax: float,
    per_decision: Mapping[str, tuple[float, float]],
    features: FeatureSpace,
) -> Loss:
    """Input-oblivious loss from per-decision (value at y=0, value at y=1)."""
    row = {yhat: (float(v0), float(v1)) for yhat, (v0, v1) in per_decision.items()}
    table = {x: dict(row) for x in features.points}
    return Loss(name=name, lmax=float(lmax), table=table, input_oblivious=True)


def builtin_loss(
    kind: str, features: FeatureSpace, decisions: DecisionSpace, name: str | None = None
) -> Loss:
    """One of the named built-in losses over the given spaces.

    steer_to_one is 1-y (rewards outcome 1), steer_to_zero is y, and
    squared_forecast is (yhat - y)^2 for decision labels that parse as
    reals in [0, 1]. All three have lmax = 1 and ignore the feature.
    """
    if kind == "steer_to_one":
        per_decision = {yhat: (1.0, 0.0) for yhat in decisions.labels}
    elif kind == "steer_to_zero":
        per_decision = {yhat: (0.0, 1.0) for yhat in decisions.labels}
    elif kind == "squared_forecast":
        per_decision = {}
        for yhat in decisions.labels:
            try:
                v = float(yhat)
            except ValueError:
                raise ConfigurationError(
                    f"squared_forecast needs numeric decision labels, got {yhat!r}"
                ) from None
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(
                    f"squared_forecast needs decision labels in [0, 1], got {yhat!r}"
                )
            per_decision[yhat] = (v * v, (v - 1.0) * (v - 1.0))
    else:
        raise ConfigurationError(f"unknown builtin loss {kind!r}")
    return io_loss(name or kind, 1.0, per_decision, features)


def make_beta_scenario(beta: float, epsilon: float = 0.05) -> Scenario:
    """Two-feature, two-decision scenario with opposing steering losses.

    Features and decisions are both {-1, +1}; the outcome probability is
    1/2 + beta * x * yhat, so decision +1 raises the chance of outcome 1
    at x=+1 and lowers it at x=-1. The rules h_plus (copy x) and h_minus
    (negate x) are each optimal for one of the two steering losses.
    """
    if not 0.0 < beta < 0.5:
        raise ArgumentError(f"beta must lie strictly between 0 and 1/2, got {beta!r}")
    labels = ("-1", "+1")
    features = FeatureSpace(points=labels)
    decisions = DecisionSpace(labels=labels)
    dist = InputDistribution(probabilities={"-1": 0.5, "+1": 0.5})
    nature = NatureModel(
        table={
            x: {y: 0.5 + beta * float(x) * float(y) for y in labels} for x in labels
        }
    )
    losses = (
        builtin_loss("steer_to_one", features, decisions),
        builtin_loss("steer_to_zero", features, decisions),
    )
    hypotheses = (
        Hypothesis(name="h_plus", mapping={"-1": "-1", "+1": "+1"}),
        Hypothesis(name="h_minus", mapping={"-1": "+1", "+1": "-1"}),
    )
    return Scenario(
        name=f"beta-{beta}",
        features=features,
        decisions=decisions,
        input_distribution=dist,
        nature=nature,
        losses=losses,
        hypotheses=hypotheses,
        epsilon=float(epsilon),
    )


def _require(doc: Mapping, key: str, where: str):
    if key not in doc:
        raise ConfigurationError(f"{where} is missing required key {key!r}")
    return doc[key]


def scenario_from_dict(doc: Mapping) -> Scenario:
    """Build and validate a Scenario from its JSON document form."""
    if not isinstance(doc, Mapping):
        raise ConfigurationError("scenario document must be a JSON object")
    name = str(_require(doc, "name", "scenario"))
    features = FeatureSpace(
        points=tuple(str(x) for x in _require(doc, "features", "scenario"))
    )
    decisions = DecisionSpace(
        labels=tuple(str(y) for y in _require(doc, "decisions", "scenario"))
    )
    dist = InputDistribution(
        probabilities={
            str(x): float(m)
            for x, m in _require(doc, "input_distribution", "scenario").items()
        }
    )
    nature_doc = _require(doc, "nature", "scenario")
    nature = NatureModel(
        table={
            str(x): {str(y): float(p) for y, p in row.items()}
            for x, row in nature_doc.items()
        }
    )
    losses = []
    for entry in _require(doc, "losses", "scenario"):
        if "builtin" in entry:
            losses.append(
                builtin_loss(
                    str(entry["builtin"]), features, decisions, entry.get("name")
                )
            )
        else:
            loss_name = str(_require(entry, "name", "loss entry"))
            lmax = float(_require(entry, "lmax", f"loss {loss_name!r}"))
            raw = _require(entry, "table", f"loss {loss_name!r}")
            table = {}
            for x, row in raw.items():
                table[str(x)] = {
                    str(y): (float(pair[0]), float(pair[1])) for y, pair in row.items()
                }
            oblivious = _table_is_input_oblivious(table, features, decisions)
            losses.append(
                Loss(
                    name=loss_name,
                    lmax=lmax,
                    table=table,
                    input_oblivious=oblivious,
                )
            )
    hypotheses = []
    for entry in _require(doc, "hypotheses", "scenario"):
        hyp_name = str(_require(entry, "name", "hypothesis entry"))
        mapping = {
            str(x): str(y)
            for x, y in _require(entry, "map", f"hypothesis {hyp_name!r}").items()
        }
        hypotheses.append(Hypothesis(name=hyp_name, mapping=mapping))
    epsilon = float(_require(doc, "epsilon", "scenario"))
    weights = None
    if doc.get("weights") is not None:
        funcs = []
        for entry in doc["weights"]:
            w_name = str(_require(entry, "name", "weight entry"))
            mapping = {
                str(x): float(v)
                for x, v in _require(entry, "map", f"weight {w_name!r}").items()
            }
            funcs.append(
                WeightFunction(
                    name=w_name,
                    mapping=mapping,
                    wmax=float(_require(entry, "wmax", f"weight {w_name!r}")),
                )
            )
        weights = WeightClass(weights=tuple(funcs))
    return Scenario(
        name=name,
        features=features,
        decisions=decisions,
        input_distribution=dist,
        nature=nature,
        losses=tuple(losses),
        hypotheses=tuple(hypotheses),
        epsilon=epsilon,
        weights=weights,
    )


def _table_is_input_oblivious(table, features: FeatureSpace, decisions: DecisionSpace):
    try:
        first = table[features.points[0]]
        for x in features.points[1:]:
            for yhat in decisions.labels:
                if tuple(table[x][yhat]) != tuple(first[yhat]):
                    return False
    except KeyError:
        return False  # totality errors surface during validation instead
    return True


def load_scenario(path) -> Scenario:
    """Read a scenario JSON file and validate it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario file {path} is not valid JSON: {exc}")
    try:
        return scenario_from_dict(doc)
    except (AttributeError, TypeError, ValueError, KeyError, IndexError) as exc:
        raise ConfigurationError(f"scenario file {path} is malformed: {exc}") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Document form of a scenario (losses are written as full tables)."""
    doc = {
        "name": scenario.name,
        "features": list(scenario.features.points),
        "decisions": list(scenario.decisions.labels),
        "input_distribution": {
            x: scenario.input_distribution.mass(x) for x in scenario.features.points
        },
        "nature": {
            x: {y: scenario.nature.prob(x, y) for y in scenario.decisions.labels}
            for x in scenario.features.points
        },
        "losses": [
            {
                "name": loss.name,
                "lmax": loss.lmax,
                "table": {
                    x: {
                        y: list(loss.table[x][y])
                        for y in scenario.decisions.labels
                    }
                    for x in scenario.features.points
                },
            }
            for loss in scenario.losses
        ],
        "hypotheses": [
            {"name": h.name, "map": {x: h.decide(x) for x in scenario.features.points}}
            for h in scenario.hypotheses
        ],
        "epsilon": scenario.epsilon,
    }
    if scenario.weights is not None:
        doc["weights"] = [
            {
                "name": w.name,
                "map": {x: w.weight(x) for x in scenario.features.points},
                "wmax": w.wmax,
            }
            for w in scenario.weights.weights
        ]
    return doc

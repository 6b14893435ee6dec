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


def _read(table, xs, ys, lookup):
    """table[x] for x in xs, or [table[x][y] for y in ys] when ys is given.
    On a hole, lookup (the part's scalar accessor) raises the part's error
    for the first absent cell in canonical order."""
    try:
        rows = [table[x] for x in xs]
        return rows if ys is None else [[row[y] for y in ys] for row in rows]
    except KeyError:
        for x in xs:
            if ys is None:
                lookup(x)
            else:
                for y in ys:
                    lookup(x, y)
        raise


def _first_outside(values: np.ndarray, lo: float, hi: float):
    """First index outside [lo, hi] (NaN counts) in canonical order, or None."""
    bad = ~((values >= lo) & (values <= hi))
    return tuple(int(i) for i in np.argwhere(bad)[0]) if bad.any() else None


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

    def validate(self, features: FeatureSpace) -> np.ndarray:
        """The masses in canonical feature order, checked."""
        points = set(features.points)
        for x in self.probabilities:
            if x not in points:
                raise ConfigurationError(
                    f"input distribution assigns mass to unknown feature {x!r}"
                )
        get = self.probabilities.get
        masses = np.array([get(x, 0.0) for x in features.points], dtype=np.float64)
        if not np.all(np.isfinite(masses) & (masses >= 0)):
            raise ConfigurationError(
                "input distribution has a negative or non-finite mass"
            )
        total = math.fsum(masses.tolist())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ConfigurationError(
                f"input distribution masses sum to {total!r}, expected 1"
            )
        return masses


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

    def validate(self, features: FeatureSpace, decisions: DecisionSpace) -> np.ndarray:
        """The (|X|, k) probabilities in canonical order, checked."""
        cells = _read(self.table, features.points, decisions.labels, self.prob)
        probs = np.array(cells, dtype=np.float64)
        bad = _first_outside(probs, 0.0, 1.0)
        if bad is not None:
            raise ConfigurationError(
                f"outcome probability {float(probs[bad])!r} at "
                f"({features.points[bad[0]]!r}, {decisions.labels[bad[1]]!r}) "
                "is outside [0, 1]"
            )
        return probs


@dataclass(frozen=True)
class Loss:
    """Bounded loss over (feature, decision, outcome).

    The table maps feature -> decision -> (value at y=0, value at y=1).
    A scenario reads it once into an (|X|, k, 2) array and checks there
    that every value lies in [0, lmax].
    """

    name: str
    lmax: float
    table: Mapping[str, Mapping[str, tuple[float, float]]]

    @property
    def input_oblivious(self) -> bool:
        """Whether the values ignore the feature: all rows are equal."""
        rows = [{y: tuple(v) for y, v in row.items()} for row in self.table.values()]
        return all(row == rows[0] for row in rows)

    def values(self, x: str, yhat: str, y: int) -> float:
        row = self.table.get(x)
        if row is None or yhat not in row:
            raise ConfigurationError(
                f"loss {self.name!r} has no entry for feature {x!r}, "
                f"decision {yhat!r}"
            )
        return float(row[yhat][y])

    def to_array(self, features: FeatureSpace, decisions: DecisionSpace) -> np.ndarray:
        """The (|X|, k, 2) values; [i, j, y] is the value at outcome y."""
        lookup = lambda x, yhat: self.values(x, yhat, 0)
        cells = _read(self.table, features.points, decisions.labels, lookup)
        return np.array(cells, dtype=np.float64)

    def validate(self, features: FeatureSpace, decisions: DecisionSpace) -> np.ndarray:
        """to_array, checked against lmax."""
        if not (math.isfinite(self.lmax) and self.lmax > 0):
            raise ConfigurationError(
                f"loss {self.name!r} must have a finite lmax > 0, got {self.lmax!r}"
            )
        values = self.to_array(features, decisions)
        bad = _first_outside(values, 0.0, self.lmax)
        if bad is not None:
            i, j, y = bad
            raise ConfigurationError(
                f"loss {self.name!r} value {float(values[bad])!r} at "
                f"({features.points[i]!r}, {decisions.labels[j]!r}, y={y}) "
                f"is outside [0, {self.lmax}]"
            )
        return values


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

    def validate(self, features: FeatureSpace, decisions: DecisionSpace) -> np.ndarray:
        """The decision index of every feature in canonical order, checked."""
        index = {y: j for j, y in enumerate(decisions.labels)}
        labels = _read(self.mapping, features.points, None, self.decide)
        indices = np.array([index.get(y, -1) for y in labels], dtype=np.int64)
        bad = _first_outside(indices, 0, decisions.k - 1)
        if bad is not None:
            x = features.points[bad[0]]
            raise ConfigurationError(
                f"rule {self.name!r} maps {x!r} to unknown decision "
                f"{self.mapping[x]!r}"
            )
        return indices


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

    def validate(self, features: FeatureSpace, masses: np.ndarray) -> np.ndarray:
        """The weights in canonical feature order, checked; masses are the
        input distribution's."""
        if not (math.isfinite(self.wmax) and self.wmax > 0):
            raise WeightInvariantError(
                f"weight function {self.name!r} must have a finite wmax > 0, "
                f"got {self.wmax!r}"
            )
        cells = _read(self.mapping, features.points, None, self.weight)
        weights = np.array(cells, dtype=np.float64)
        bad = _first_outside(weights, 0.0, self.wmax)
        if bad is not None:
            raise WeightInvariantError(
                f"weight function {self.name!r} value {float(weights[bad])!r} at "
                f"{features.points[bad[0]]!r} is outside [0, {self.wmax}]"
            )
        mean = math.fsum((masses * weights).tolist())
        if abs(mean - 1.0) > MASS_TOLERANCE:
            raise WeightInvariantError(
                f"weight function {self.name!r} has mean {mean!r} under the "
                "input distribution, expected 1"
            )
        return weights


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


def _split(values: np.ndarray):
    """(value at y=0, value at y=1 minus value at y=0) of a loss array."""
    return values[:, :, 0], values[:, :, 1] - values[:, :, 0]


class _ScenarioArrays:
    """The checked arrays of a scenario, index-aligned to canonical order.

    dist (|X|,) and nature (|X|, k); by name, loss_values (|X|, k, 2)
    with its loss_base and loss_delta (|X|, k), hyp_index (|X|,) and
    weights (|X|,). rule_cells (|H|, |X|) holds, per hypothesis in
    canonical order, the flat index x*k + h(x) of each feature's chosen
    cell in a row-major (|X|, k) table. Reductions use np.add.reduce
    (pairwise summation in numpy's core), never BLAS, so results do not
    depend on thread counts.
    """

    def __init__(self, scenario, dist, nature, losses, rules, weights):
        self.features, self.decisions = scenario.features, scenario.decisions
        self.x_index = {x: i for i, x in enumerate(self.features.points)}
        self.y_index = {y: j for j, y in enumerate(self.decisions.labels)}
        self.dist, self.nature, self.loss_values = dist, nature, losses
        self.hyp_index, self.weights = rules, weights
        self._own_rules = {id(h): (h, rules[h.name]) for h in scenario.hypotheses}
        rows = np.arange(len(self.features.points)) * self.decisions.k
        self.rule_cells = np.stack(list(rules.values())) + rows
        self.loss_base, self.loss_delta = {}, {}
        for name, values in losses.items():
            self.loss_base[name], self.loss_delta[name] = _split(values)

    def rule_indices(self, rule: Hypothesis) -> np.ndarray:
        """The decision index per feature of rule. One of the scenario's
        own hypothesis objects reads its checked array; any other rule,
        such as an induced one, is validated here."""
        own, indices = self._own_rules.get(id(rule), (None, None))
        if own is rule:
            return indices
        return rule.validate(self.features, self.decisions)

    def loss_arrays_for(self, scenario: "Scenario", loss: Loss):
        """Base/delta arrays for a loss that may not belong to the scenario."""
        if loss.name in self.loss_base and loss in scenario.losses:
            return self.loss_base[loss.name], self.loss_delta[loss.name]
        return _split(loss.to_array(self.features, self.decisions))


@dataclass(frozen=True)
class Scenario:
    """A complete finite decision problem.

    Bundles the spaces, the input distribution, the outcome model, the
    loss collection, the comparison rules, and the tolerance epsilon.
    Construction reads every component's table into its array once and
    checks that array, so any scenario object in hand is safe to compute
    with; `arrays` holds the checked arrays.
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
        features, decisions = self.features, self.decisions
        dist = self.input_distribution.validate(features)
        nature = self.nature.validate(features, decisions)
        loss_names = [l.name for l in self.losses]
        if len(set(loss_names)) != len(loss_names):
            raise ConfigurationError("loss names must be distinct")
        losses = {l.name: l.validate(features, decisions) for l in self.losses}
        hyp_names = [h.name for h in self.hypotheses]
        if len(set(hyp_names)) != len(hyp_names):
            raise ConfigurationError("hypothesis names must be distinct")
        rules = {h.name: h.validate(features, decisions) for h in self.hypotheses}
        functions = () if self.weights is None else self.weights.weights
        weights = {w.name: w.validate(features, dist) for w in functions}
        arrays = _ScenarioArrays(self, dist, nature, losses, rules, weights)
        object.__setattr__(self, "_arrays", arrays)

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
    return Loss(name=name, lmax=float(lmax), table=table)


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
            losses.append(Loss(name=loss_name, lmax=lmax, table=table))
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
    """Document form of a scenario, read from its arrays (losses are
    written as full tables)."""
    xs, ys = scenario.features.points, scenario.decisions.labels
    arrays, labels = scenario.arrays, np.array(ys)

    def column(array):  # feature -> entry
        return dict(zip(xs, array.tolist()))

    def rows(array):  # feature -> decision -> entry
        return {x: dict(zip(ys, row)) for x, row in zip(xs, array.tolist())}

    doc = {
        "name": scenario.name,
        "features": list(xs),
        "decisions": list(ys),
        "input_distribution": column(arrays.dist),
        "nature": rows(arrays.nature),
        "losses": [
            {"name": l.name, "lmax": l.lmax, "table": rows(arrays.loss_values[l.name])}
            for l in scenario.losses
        ],
        "hypotheses": [
            {"name": h.name, "map": column(labels[arrays.hyp_index[h.name]])}
            for h in scenario.hypotheses
        ],
        "epsilon": scenario.epsilon,
    }
    if scenario.weights is not None:
        doc["weights"] = [
            {"name": w.name, "map": column(arrays.weights[w.name]), "wmax": w.wmax}
            for w in scenario.weights.weights
        ]
    return doc

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

import copy
import gc
import json
import math
from json.encoder import encode_basestring, encode_basestring_ascii
import numbers
import reprlib
from collections.abc import Mapping
from itertools import chain, product
from operator import itemgetter
from typing import Optional

import numpy as np

from ._record import Record
from .errors import ArgumentError, ConfigurationError, WeightInvariantError

MASS_TOLERANCE = 1e-9

BUILTIN_LOSSES = ("steer_to_one", "steer_to_zero", "squared_forecast")

# How Nature's side of an audit is computed: by full enumeration, from
# trial data, or through the cost-sensitive reduction. Defined here so
# the command-line parser can offer them without loading the audits.
EXACT = "exact"
EMPIRICAL = "empirical"
CSC = "csc"
MODES = (EXACT, EMPIRICAL, CSC)


class DecisionSpace(Record):
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


class FeatureSpace(Record):
    """Ordered finite set of feature identifiers (one per individual type)."""

    points: tuple[str, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ConfigurationError("feature space must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ConfigurationError("feature identifiers must be distinct")


def _read(table, xs, ys, what: str, lookup):
    """[table[x] for x in xs], or, when ys is given, table[x][y] for every
    (x, y) flat in canonical order, x-major. A table whose keys are xs in
    canonical order is read through its values, any other by key. On a
    hole, lookup (the part's scalar accessor) raises the part's error for
    the first absent cell in canonical order. A key that is no feature,
    or in a row no decision, raises ConfigurationError naming the first:
    with every cell present, a count over the table and its rows finds
    one."""
    try:
        ordered = tuple(table) == tuple(xs)
        rows = list(table.values() if ordered else map(table.__getitem__, xs))
        cells = rows
        if ys is not None:
            # itemgetter of one key returns the bare cell, not a 1-tuple
            row_cells = itemgetter(*ys) if len(ys) > 1 else lambda row: (row[ys[0]],)
            cells = list(chain.from_iterable(map(row_cells, rows)))
    except KeyError:
        for x in xs:
            if ys is None:
                lookup(x)
            else:
                for y in ys:
                    lookup(x, y)
        raise
    if len(table) != len(xs):
        known = set(xs)
        x = next(x for x in table if x not in known)
        raise ConfigurationError(f"{what} has an entry for unknown feature {x!r}")
    if ys is not None and sum(map(len, rows)) != len(rows) * len(ys):
        known = set(ys)
        x, y = next((x, y) for x, row in zip(xs, rows) for y in row if y not in known)
        raise ConfigurationError(
            f"{what} has an entry for unknown decision {y!r} at feature {x!r}"
        )
    return cells


def _viewed(table, shape: tuple, kind: str, xs, ys=None):
    """The array behind table when it is a _TableView keyed by xs in
    canonical order, holding an array of the given shape and dtype kind
    whose rows are labelled by ys when ys is given; else None, and the
    table is read cell by cell. Such a view reads back as that array, so a
    part checks the array itself; one keyed by xs itself is taken at once."""
    if (
        isinstance(table, _TableView)
        and table.array.shape == shape
        and table.array.dtype.kind == kind
        and (ys is None or table.labels == ys)
        and (table.points is xs or table.points == tuple(xs))
    ):
        return table.array
    return None


def _array(cells, shape: tuple, what: str, xs, ys=None) -> np.ndarray:
    """cells, one per feature or per (feature, decision) pair flat in
    canonical order, as a float64 array of shape (|X|,), (|X|, k) or
    (|X|, k, 2), where a loss cell holds its two values, read flat and
    reshaped. Nothing is coerced: a cell of the wrong kind or shape, such
    as text, a boolean, a list or object where a number belongs, or a loss
    cell without exactly two values, raises ConfigurationError naming the
    first such cell; null reads as NaN, which the range checks reject."""
    pairs = len(shape) == 3
    # Loss cells are chained into their values only when each is a list
    # or tuple of two: chaining would split a text or object cell into
    # its characters or keys, and pass a long cell next to a short one.
    if not pairs or (
        set(map(type, cells)) <= {list, tuple} and set(map(len, cells)) == {2}
    ):
        values = list(chain.from_iterable(cells)) if pairs else cells
        # one pass over the types: numpy would parse text and take booleans
        if set(map(type, values)) <= {float, int, type(None)}:
            return np.array(values, dtype=np.float64).reshape(shape)
    converted = []
    for (x, y), cell in zip(product(xs, ys or (None,)), cells):
        try:
            value = np.array(cell, dtype=np.float64)
        except (TypeError, ValueError):
            value = None
        if value is None or value.shape != shape[2:] or not all(
                v is None or isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in (cell if pairs else (cell,))):
            at = repr(x) if y is None else f"({x!r}, {y!r})"
            raise ConfigurationError(f"{what} has a malformed cell at {at}: {cell!r}")
        converted.append(value)
    return np.array(converted).reshape(shape)  # cells of another sequence type


def _float_table(table, what: str, lookup, xs, ys=None, pairs=False) -> np.ndarray:
    """table as a float64 array of shape (|X|,), or (|X|, k) when ys is
    given, (|X|, k, 2) with pairs: a view's array (_viewed), else its
    cells read (_read) and converted (_array). Unchecked."""
    shape = (len(xs),) if ys is None else (len(xs), len(ys)) + ((2,) if pairs else ())
    values = _viewed(table, shape, "f", xs, ys)
    if values is None:
        values = _array(_read(table, xs, ys, what, lookup), shape, what, xs, ys)
    return values


def _first_outside(values: np.ndarray, lo: float, hi: float):
    """First index outside [lo, hi] (NaN counts) in canonical order, or None."""
    bad = ~((values >= lo) & (values <= hi))
    return tuple(int(i) for i in np.argwhere(bad)[0]) if bad.any() else None


class InputDistribution(Record):
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
        xs = features.points
        masses = _viewed(self.probabilities, (len(xs),), "f", xs)
        if masses is None:
            points = set(xs)
            for x in self.probabilities:
                if x not in points:
                    raise ConfigurationError(
                        f"input distribution assigns mass to unknown feature {x!r}"
                    )
            cells = [self.probabilities.get(x, 0.0) for x in xs]
            masses = _array(cells, (len(xs),), "input distribution", xs)
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


class NatureModel(Record):
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
        probs = _float_table(
            self.table, "outcome model", self.prob, features.points, decisions.labels
        )
        bad = _first_outside(probs, 0.0, 1.0)
        if bad is not None:
            raise ConfigurationError(
                f"outcome probability {float(probs[bad])!r} at "
                f"({features.points[bad[0]]!r}, {decisions.labels[bad[1]]!r}) "
                "is outside [0, 1]"
            )
        return probs


class Loss(Record):
    """Bounded loss over (feature, decision, outcome).

    The table maps feature -> decision -> (value at y=0, value at y=1).
    A scenario reads it once into an (|X|, k, 2) array and checks there
    that every value lies in [0, lmax]. Two losses are equal when their
    fields are; a scenario's losses have views as tables, whose cells read
    back as (value at y=0, value at y=1) tuples of floats.
    """

    name: str
    lmax: float
    table: Mapping[str, Mapping[str, tuple[float, float]]]

    def values(self, x: str, yhat: str, y: int) -> float:
        row = self.table.get(x)
        if row is None or yhat not in row:
            raise ConfigurationError(
                f"loss {self.name!r} has no entry for feature {x!r}, "
                f"decision {yhat!r}"
            )
        return float(row[yhat][y])

    def read_table(self, features: FeatureSpace, decisions: DecisionSpace) -> np.ndarray:
        """The (|X|, k, 2) values, [i, j, y] the value at outcome y, as
        the table holds them: unchecked."""
        return _float_table(
            self.table, f"loss {self.name!r}", lambda x, yhat: self.values(x, yhat, 0),
            features.points, decisions.labels, pairs=True,
        )

    def validate(self, features: FeatureSpace, decisions: DecisionSpace) -> np.ndarray:
        """The (|X|, k, 2) values, [i, j, y] the value at outcome y,
        checked against lmax."""
        if not (math.isfinite(self.lmax) and self.lmax > 0):
            raise ConfigurationError(
                f"loss {self.name!r} must have a finite lmax > 0, got {self.lmax!r}"
            )
        values = self.read_table(features, decisions)
        bad = _first_outside(values, 0.0, self.lmax)
        if bad is not None:
            i, j, y = bad
            raise ConfigurationError(
                f"loss {self.name!r} value {float(values[bad])!r} at "
                f"({features.points[i]!r}, {decisions.labels[j]!r}, y={y}) "
                f"is outside [0, {self.lmax}]"
            )
        return values


class Hypothesis(Record):
    """Deterministic decision rule: a total map from features to decisions.

    Decisions are named by their string labels; any other value, such as
    a JSON number, names no decision. Rules compare by their fields.
    """

    name: str
    mapping: Mapping[str, str]

    def decide(self, x: str) -> str:
        try:
            return self.mapping[x]
        except KeyError:
            raise ConfigurationError(
                f"rule {self.name!r} has no decision for feature {x!r}"
            ) from None

    def read_table(self, features: FeatureSpace, decisions: DecisionSpace) -> np.ndarray:
        """The decision index of every feature in canonical order, -1 for
        a label that names no decision or is no string: unchecked."""
        xs, ys = features.points, decisions.labels
        indices = _viewed(self.mapping, (len(xs),), "i", xs, ys)
        if indices is None:
            index = {y: j for j, y in enumerate(ys)}
            labels = _read(self.mapping, xs, None, f"rule {self.name!r}", self.decide)
            try:
                indices = np.fromiter(map(index.__getitem__, labels), np.int64, len(xs))
            except (KeyError, TypeError):  # an unknown or an unhashable label
                named = [index.get(y, -1) if isinstance(y, str) else -1 for y in labels]
                indices = np.array(named, dtype=np.int64)
        return indices

    def validate(self, features: FeatureSpace, decisions: DecisionSpace) -> np.ndarray:
        """The decision index of every feature in canonical order, checked."""
        indices = self.read_table(features, decisions)
        bad = _first_outside(indices, 0, decisions.k - 1)
        if bad is not None:
            x = features.points[bad[0]]
            raise ConfigurationError(
                f"rule {self.name!r} maps {x!r} to unknown decision "
                f"{self.mapping[x]!r}"
            )
        return indices


class WeightFunction(Record):
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

    def read_table(self, features: FeatureSpace) -> np.ndarray:
        """The weights in canonical feature order, as the map holds them:
        unchecked."""
        return _float_table(
            self.mapping, f"weight function {self.name!r}", self.weight, features.points
        )

    def validate(self, features: FeatureSpace, masses: np.ndarray) -> np.ndarray:
        """The weights in canonical feature order, checked; masses are the
        input distribution's."""
        if not (math.isfinite(self.wmax) and self.wmax > 0):
            raise WeightInvariantError(
                f"weight function {self.name!r} must have a finite wmax > 0, "
                f"got {self.wmax!r}"
            )
        weights = self.read_table(features)
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


class WeightClass(Record):
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


class _TableView(Mapping):
    """A part's table as a read-only view of its checked array, keyed by
    points through their index x_index. Row x reads as a float for a mass
    or a weight, a str label for a rule (an integer array of decision
    indices), and for the outcome model or a loss a dict from each label
    to a float or to a (value at y=0, value at y=1) tuple."""

    def __init__(self, array: np.ndarray, points: tuple, x_index: dict, labels: tuple):
        self.array, self.points, self.x_index, self.labels = array, points, x_index, labels

    def __getitem__(self, x):
        row = self.array[self.x_index[x]]
        if self.array.ndim == 1:
            return self.labels[row] if self.array.dtype.kind == "i" else float(row)
        cells = row.tolist()
        return dict(zip(self.labels, map(tuple, cells) if row.ndim == 2 else cells))

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"_TableView(shape={self.array.shape})"


class _ScenarioArrays:
    """The checked arrays of a scenario, index-aligned to canonical order.

    dist (|X|,) and nature (|X|, k); by name, loss_values (|X|, k, 2)
    with its loss_base and loss_delta (|X|, k) and its weighted gap
    loss_gap = dist[:, None] * loss_delta, hyp_index (|X|,) and weights
    (|X|,). offsets (|X|,) holds x*k, the flat index of feature x's first
    cell in a row-major (|X|, k) table, and rule_cells (|H|, |X|), per
    hypothesis in canonical order, the flat index x*k + h(x) of each
    feature's chosen cell. Reductions use np.add.reduce
    (pairwise summation in numpy's core), never BLAS, so results do not
    depend on thread counts.
    """

    def __init__(self, features, decisions, dist, nature, rules, weights):
        self.features, self.decisions = features, decisions
        self.x_index = {x: i for i, x in enumerate(features.points)}
        self.y_index = {y: j for j, y in enumerate(decisions.labels)}
        self.dist, self.nature = dist, nature
        self.hyp_index, self.weights = rules, weights
        self.offsets = np.arange(len(features.points)) * decisions.k
        self.rule_cells = np.stack(list(rules.values())) + self.offsets

    def view(self, array: np.ndarray) -> _TableView:
        """array, indexed by feature first, as a part's table."""
        return _TableView(array, self.features.points, self.x_index, self.decisions.labels)

    def _set_losses(self, owners: tuple, values: dict) -> None:
        self.loss_values, self._own_losses = values, {l.name: l for l in owners}
        self.loss_base, self.loss_delta, self.loss_gap = {}, {}, {}
        weight = self.dist[:, np.newaxis]
        for name, v in values.items():  # the value at y=0, and y=1 minus it
            self.loss_base[name] = v[:, :, 0]
            self.loss_delta[name] = v[:, :, 1] - v[:, :, 0]
            self.loss_gap[name] = weight * self.loss_delta[name]

    def rule_indices(self, rule: Hypothesis) -> np.ndarray:
        """The decision index per feature of rule. A rule whose mapping
        is a view keyed through this scenario's features, such as one of
        its hypotheses or a rule induced over it, reads the view's array;
        any other rule is validated here."""
        view = rule.mapping
        if isinstance(view, _TableView) and view.x_index is self.x_index:
            if view.array.dtype.kind == "i":  # decision indices, not numbers
                return view.array
        return rule.validate(self.features, self.decisions)

    def loss_arrays(self, loss: Loss):
        """(loss_base, loss_delta) of one of the scenario's own losses."""
        if self._own_losses.get(loss.name) is not loss:
            raise ArgumentError(
                f"loss {loss.name!r} is not one of the scenario's losses"
            )
        return self.loss_base[loss.name], self.loss_delta[loss.name]

    def optimal_decisions(self, name: str, matrix: np.ndarray) -> np.ndarray:
        """The decision index per feature minimizing loss name's expected
        value under the (|X|, k) outcome probabilities matrix, ties going
        to the lowest index."""
        return np.argmin(self.loss_base[name] + self.loss_delta[name] * matrix, axis=1)


class Scenario(Record):
    """A complete finite decision problem.

    Bundles the spaces, the input distribution, the outcome model, the
    loss collection, the comparison rules, and the tolerance epsilon.
    Construction reads every component's table into its array once and
    checks that array, so any scenario object in hand is safe to compute
    with; `arrays` holds the checked arrays. They are then the only copy:
    the parts are rebuilt with tables that are read-only views of them,
    and no part or table given is kept. A scenario's own Loss objects are
    the ones in `losses`; a loss from anywhere else is refused where one
    of its own is required. A part whose table is a view keyed by the
    same features and decisions in canonical order, as after
    dataclasses.replace or from load_scenario, is checked on the view's
    array without reading a cell. Two scenarios are equal when their
    fields are: the names, epsilon, every lmax and wmax, and the parts'
    tables, which read the checked arrays.
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
        if len({l.name for l in self.losses}) != len(self.losses):
            raise ConfigurationError("loss names must be distinct")
        losses = {l.name: l.validate(features, decisions) for l in self.losses}
        if len({h.name for h in self.hypotheses}) != len(self.hypotheses):
            raise ConfigurationError("hypothesis names must be distinct")
        rules = {h.name: h.validate(features, decisions) for h in self.hypotheses}
        functions = () if self.weights is None else self.weights.weights
        weights = {w.name: w.validate(features, dist) for w in functions}
        arrays = _ScenarioArrays(features, decisions, dist, nature, rules, weights)
        view = arrays.view
        parts = {
            "input_distribution": InputDistribution(view(dist)),
            "nature": NatureModel(view(nature)),
            "losses": tuple(
                Loss(l.name, l.lmax, view(losses[l.name])) for l in self.losses
            ),
            "hypotheses": tuple(
                Hypothesis(h.name, view(rules[h.name])) for h in self.hypotheses
            ),
        }
        if functions:
            parts["weights"] = WeightClass(tuple(
                WeightFunction(w.name, view(weights[w.name]), w.wmax) for w in functions
            ))
        for field, part in parts.items():
            object.__setattr__(self, field, part)
        arrays._set_losses(self.losses, losses)
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


def augment_scenario(scenario: Scenario) -> Scenario:
    """The same scenario with its losses replaced by every loss rescaled
    pointwise by every weight function, loss-major.

    The augmented loss named "loss@weight" has values w(x) * loss(x, yhat, y)
    and bound loss.lmax * wmax (class-level wmax). Each array is the
    product of two checked arrays, so its values lie in [0, lmax * wmax]
    and nothing is read from the tables or checked again. Two pairs that
    would make one name are refused before any array is built.
    """
    if scenario.weights is None:
        raise ConfigurationError(
            "scenario has no weight class, so losses cannot be augmented"
        )
    pairs = {}
    for l in scenario.losses:
        for w in scenario.weights.weights:
            name = f"{l.name}@{w.name}"
            if name in pairs:
                first = pairs[name]
                raise ConfigurationError(
                    f"augmented loss name {name!r} is made twice: by loss "
                    f"{first[0].name!r} with weight {first[1].name!r} and by "
                    f"loss {l.name!r} with weight {w.name!r}"
                )
            pairs[name] = (l, w)
    arrays, wmax = copy.copy(scenario.arrays), scenario.weights.wmax
    values = {
        name: arrays.weights[w.name][:, np.newaxis, np.newaxis] * arrays.loss_values[l.name]
        for name, (l, w) in pairs.items()
    }
    losses = tuple(
        Loss(name, l.lmax * wmax, arrays.view(values[name]))
        for name, (l, _) in pairs.items()
    )
    arrays._set_losses(losses, values)
    derived = copy.copy(scenario)
    object.__setattr__(derived, "losses", losses)
    object.__setattr__(derived, "_arrays", arrays)
    return derived


def expected_loss_given(x: str, yhat: str, p: float, loss: Loss) -> float:
    """Exact expected loss when the outcome is Bernoulli(p).

    Closed form: loss(x, yhat, 0) + (loss(x, yhat, 1) - loss(x, yhat, 0)) * p.
    Linear in p, so it interpolates the two outcome values.
    """
    at0, at1 = loss.values(x, yhat, 0), loss.values(x, yhat, 1)
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
        best, best_value = None, math.inf
        for yhat in decisions.labels:
            value = expected_loss_given(x, yhat, _model_prob(model, x, yhat), loss)
            if value < best_value:
                best, best_value = yhat, value
        mapping[x] = best
    return Hypothesis(name=f"argmin({loss.name})", mapping=mapping)


def io_loss(
    name: str,
    lmax: float,
    per_decision: Mapping[str, tuple[float, float]],
    features: FeatureSpace,
) -> Loss:
    """Input-oblivious loss from per-decision (value at y=0, value at y=1).

    The table is a read-only view of the (|X|, k, 2) array that repeats
    that row at every feature, with the decisions in per_decision's
    order; it equals (==) the table of one dict row per feature.
    """
    row = [(float(v0), float(v1)) for v0, v1 in per_decision.values()]
    points = features.points
    values = np.tile(np.array(row, dtype=np.float64).reshape(-1, 2), (len(points), 1, 1))
    x_index = {x: i for i, x in enumerate(points)}
    return Loss(name, float(lmax), _TableView(values, points, x_index, tuple(per_decision)))


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
        raise ConfigurationError(
            f"unknown builtin loss {kind!r}; expected one of {', '.join(BUILTIN_LOSSES)}"
        )
    return io_loss(name or kind, 1.0, per_decision, features)


_JSON_TYPES = {
    "string": str, "number": numbers.Real, "array": (list, tuple), "object": Mapping,
}


def json_value(value, kind: str, what: str, error=ConfigurationError):
    """value, if it has the JSON type kind: a "string", a "number" (real,
    not bool), an "array" (a list or tuple) or an "object" (a mapping);
    else error names what. Nothing is coerced."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise error(f"{what} must be a JSON {kind}, got {reprlib.repr(value)}")
    return value


def _require(doc: Mapping, key: str, where: str, kind: Optional[str] = None):
    if key not in doc:
        raise ConfigurationError(f"{where} is missing required key {key!r}")
    return doc[key] if kind is None else json_value(doc[key], kind, f"{where} key {key!r}")


def _items(doc: Mapping, key: str, kind: str):
    """The items of the JSON array doc[key], each checked to have the JSON
    type kind as it is taken."""
    items, what = _require(doc, key, "scenario", "array"), f"scenario key {key!r} item"
    return (json_value(item, kind, what) for item in items)


def _spaces(doc: Mapping):
    """(features, decisions, feature index) that doc's labels form, checked."""
    features = FeatureSpace(points=tuple(_items(doc, "features", "string")))
    decisions = DecisionSpace(labels=tuple(_items(doc, "decisions", "string")))
    return features, decisions, {x: i for i, x in enumerate(features.points)}


def scenario_from_dict(doc: Mapping) -> Scenario:
    """Build and validate a Scenario from its JSON document form.

    Names, labels and numbers must have their JSON types (json_value).
    The tables are passed to the parts as the document holds them; each
    part's validate reads its table into a checked array once, and the
    scenario keeps only those arrays.
    """
    return _from_dict(doc, None)


def _from_dict(doc: Mapping, spaces) -> Scenario:
    """scenario_from_dict(doc), given doc's spaces (_spaces) or None."""
    if not isinstance(doc, Mapping):
        raise ConfigurationError("scenario document must be a JSON object")
    name = _require(doc, "name", "scenario", "string")
    features, decisions, _ = spaces or _spaces(doc)
    losses = []
    for entry in _items(doc, "losses", "object"):
        if "builtin" in entry:
            kind = _require(entry, "builtin", "loss entry", "string")
            if "name" in entry:
                _require(entry, "name", f"builtin loss {kind!r}", "string")
            losses.append(builtin_loss(kind, features, decisions, entry.get("name")))
        else:
            loss_name = _require(entry, "name", "loss entry", "string")
            where = f"loss {loss_name!r}"
            lmax = float(_require(entry, "lmax", where, "number"))
            table = _require(entry, "table", where)
            losses.append(Loss(name=loss_name, lmax=lmax, table=table))
    hypotheses = []
    for entry in _items(doc, "hypotheses", "object"):
        hyp_name = _require(entry, "name", "hypothesis entry", "string")
        mapping = _require(entry, "map", f"hypothesis {hyp_name!r}")
        hypotheses.append(Hypothesis(name=hyp_name, mapping=mapping))
    weights = None
    if doc.get("weights") is not None:
        funcs = []
        for entry in _items(doc, "weights", "object"):
            w_name = _require(entry, "name", "weight entry", "string")
            where = f"weight {w_name!r}"
            mapping = _require(entry, "map", where)
            wmax = float(_require(entry, "wmax", where, "number"))
            funcs.append(WeightFunction(name=w_name, mapping=mapping, wmax=wmax))
        weights = WeightClass(weights=tuple(funcs))
    return Scenario(
        name=name,
        features=features,
        decisions=decisions,
        input_distribution=InputDistribution(
            probabilities=_require(doc, "input_distribution", "scenario")
        ),
        nature=NatureModel(table=_require(doc, "nature", "scenario")),
        losses=tuple(losses),
        hypotheses=tuple(hypotheses),
        epsilon=float(_require(doc, "epsilon", "scenario", "number")),
        weights=weights,
    )


# What reading a scenario's parts may raise besides ConfigurationError;
# OverflowError: an integer too large for a float.
_MALFORMED = (AttributeError, TypeError, ValueError, KeyError, IndexError, OverflowError)

# Per array of entries in a scenario document: the key of an entry's
# table, and its part's reader of the table into the array validate checks.
_TABLE_READERS = {
    "losses": ("table", lambda t, *spaces: Loss("", 1.0, t).read_table(*spaces)),
    "hypotheses": ("map", lambda t, *spaces: Hypothesis("", t).read_table(*spaces)),
    "weights": ("map", lambda t, features, _: WeightFunction("", t, 1.0).read_table(features)),
}

_decode = json.JSONDecoder().raw_decode  # json.loads's parser, at an offset
_skip = json.decoder.WHITESPACE.match  # JSON's whitespace, from an offset
_KEY_TEXTS = (encode_basestring_ascii, encode_basestring)  # as json.dumps writes keys


def _expect(text: str, i: int, token: str) -> int:
    """The offset past the whitespace at text[i], token, and whitespace."""
    i = _skip(text, i).end()
    if not text.startswith(token, i):
        raise ValueError(f"expected {token!r} at {i}")
    return _skip(text, i + len(token)).end()


def _members(text: str, i: int, value) -> tuple[dict, int]:
    """(The JSON object at text[i], the offset past it), value(obj, key, j)
    parsing each member's value at text[j] into (value, offset past it).
    Raises ValueError where text[i] holds no object or a key repeats."""
    obj, i = {}, _expect(text, i, "{")
    while not text.startswith("}", i):
        if obj:
            i = _expect(text, i, ",")
        if not text.startswith('"', i):
            raise ValueError(f"expected a key at {i}")
        key, i = _decode(text, i)
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key], i = value(obj, key, _expect(text, i, ":"))
        i = _skip(text, i).end()
    return obj, i + 1


def _repeated_row(text: str, i: int, spaces):
    """(The array of the loss table at text[i], the offset past it) when its
    text is one row under every feature key in canonical order, keys written
    as in _rule_map and members as the first; else None. The row is read
    (Loss.read_table) once and repeated: a JSON value decodes from its own
    characters only. The second member is compared before the whole text
    is built, so a table of distinct rows costs one row decode."""
    features, decisions, _ = spaces
    xs, encode = features.points, _KEY_TEXTS[not text.isascii()]
    try:
        first = _expect(text, i, "{")
        at = first + len(encode(xs[0]))
        row, end = _decode(text, _expect(text, at, ":"))
        one = Loss("", 1.0, {xs[0]: row}).read_table(FeatureSpace(xs[:1]), decisions)
        member, start = text[at:end], end
        if len(xs) > 1:
            start = _expect(text, end, ",")
            _expect(text, start, encode(xs[1]) + member)
        end = _expect(text, first, text[at:start].join(map(encode, xs)) + member)
        return np.repeat(one, len(xs), axis=0), _expect(text, end, "}")
    except (ConfigurationError, RecursionError, *_MALFORMED):
        return None


def _rule_map(text: str, i: int, spaces, templates: dict):
    """(The decision indices of the rule map at text[i], the offset past it)
    when its text is its keys' template with a label's text, all of one
    width, in each slot; else None. A template writes the feature keys in
    canonical order as json.dumps does, escaped to ASCII if text is ASCII,
    members separated as the first; templates holds them by separators. One
    lookup of the value texts gives the indices; the whole text is compared."""
    features, decisions, _ = spaces
    xs, encode = features.points, _KEY_TEXTS[not text.isascii()]
    # ASCII bytes or UTF-32 code units, so that offsets are the text's
    codec, unit, kind = ("ascii", "u1", "S") if text.isascii() else ("utf-32-le", "<u4", "<U")
    labels = sorted((encode(y), j) for j, y in enumerate(decisions.labels))
    width, units = len(labels[0][0]), lambda s: np.frombuffer(s.encode(codec), unit)
    try:
        first = _expect(text, i, "{")
        at = first + len(encode(xs[0]))
        start = _expect(text, at, ":")
        comma = text[start + width:_expect(text, start + width, ",")] if len(xs) > 1 else ""
        layout = (text[at:start], comma)
        if layout not in templates and {len(label) for label, _ in labels} == {width}:
            codes = units(comma.join([encode(x) + layout[0] + "\0" * width for x in xs]))
            slots = np.flatnonzero(codes == 0).reshape(len(xs), width)  # the value slots
            keys = np.flatnonzero(codes)  # the keys and separators
            texts = units("".join(label for label, _ in labels)).view(f"{kind}{width}")
            order = np.array([j for _, j in labels], dtype=np.int64)
            templates[layout] = len(codes), keys, codes[keys], slots, texts, order
        size, keys, key_codes, slots, texts, order = templates[layout]
        found = units(text[first:first + size])
        values = found[slots].view(texts.dtype)[:, 0]
        at = np.searchsorted(texts, values).clip(max=len(texts) - 1)
        if np.array_equal(found[keys], key_codes) and np.array_equal(texts[at], values):
            return order[at], _expect(text, first + size, "}")
    except (KeyError, IndexError, ValueError):  # unequal label widths, short text, no object
        return None


def _walk_entries(text: str, i: int, key: str, spaces) -> tuple[list, int]:
    """The JSON array of doc[key]'s entries at text[i], and the offset past
    it. With spaces (_spaces) known, each entry is parsed by member and its
    table read once, as it is parsed, into an array that a view of it then
    replaces: as one repeated row (_repeated_row), against a template
    (_rule_map), or decoded and read by its part's reader (_TABLE_READERS).
    An entry that is no object, a table that does not read, or a map naming
    an unknown label stays as parsed, for scenario_from_dict to refuse in
    order."""
    (table_key, read), entries, i = _TABLE_READERS[key], [], _expect(text, i, "[")
    templates = {}
    def member(entry, name, at):  # the table's view, or the value decoded
        if name != table_key:
            return _decode(text, at)
        found = (_repeated_row(text, at, spaces) if key == "losses" else
                 _rule_map(text, at, spaces, templates) if key == "hypotheses" else None)
        if found is None:
            table, end = _decode(text, at)
            try:
                array = read(table, *spaces[:2])
            except (ConfigurationError, *_MALFORMED):
                return table, end
            # a rule's refusal of an unknown label (index -1) quotes it from the map
            if array.dtype.kind == "i" and array.min(initial=0) < 0:
                return table, end
            found = array, end
        array, end = found
        return _TableView(array, spaces[0].points, spaces[2], spaces[1].labels), end
    while not text.startswith("]", i):
        if entries:
            i = _expect(text, i, ",")
        by_member = spaces and text.startswith("{", i)
        entry, i = _members(text, i, member) if by_member else _decode(text, i)
        entries.append(entry)
        i = _skip(text, i).end()
    return entries, i + 1


def _walk(text: str):
    """(The JSON object text holds, its spaces (_spaces) or None), parsed by
    member (_members) and the arrays of _TABLE_READERS by entry. Raises
    ValueError, RecursionError or ConfigurationError where text is not such
    an object, its labels form no spaces, a key repeats, or data trails it."""
    spaces = None
    def member(doc, key, i):
        nonlocal spaces
        if spaces is None and "features" in doc and "decisions" in doc:
            spaces = _spaces(doc)
        if key in _TABLE_READERS and text.startswith("[", i):
            return _walk_entries(text, i, key, spaces)
        return _decode(text, i)
    doc, i = _members(text, 0, member)
    if _skip(text, i).end() != len(text):
        raise ValueError("extra data")
    return doc, spaces


def _parse(text: str):
    """_walk(text), or (json.loads(text), None) where the walk fails: it
    raises its error for the text or returns the whole document."""
    try:
        return _walk(text)
    except (ValueError, RecursionError, ConfigurationError):
        return json.loads(text), None


def load_scenario(path) -> Scenario:
    """Read a scenario JSON file and validate it.

    The whole parsed document is never held: the file's text is parsed
    one top-level member, or one member of a losses, hypotheses or weights
    entry, at a time (_walk), and each table is read once, as it is parsed,
    into its unchecked array (_walk_entries). The labels are checked once.
    Errors, and their order, are scenario_from_dict(json.loads(text))'s.

    The cyclic garbage collector is paused while the file is parsed and
    built, and left as it was found: the parsed document holds no
    cycles, yet on a 4000-feature scenario its containers triggered
    over two hundred collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc, spaces = _parse(fh.read())
        return _from_dict(doc, spaces)
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ConfigurationError(f"scenario file {path} is not valid JSON: {exc}")
    except ConfigurationError as exc:  # keeps WeightInvariantError's type
        raise type(exc)(f"scenario file {path}: {exc}") from exc
    except _MALFORMED as exc:
        raise ConfigurationError(f"scenario file {path} is malformed: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


"""Verification of omniprediction across importance-weighted input shifts.

A weight class lists bounded nonnegative reweightings of the input
distribution with unit mean, each defining a shifted distribution. A
predictor trained to indistinguishability against the weight-augmented
loss collection {w(x) * loss : loss, w} keeps its optimality guarantee
on every shifted distribution and on every mixture of them, without
retraining and without changing its loss-optimal rules: scaling the
pointwise objective by a positive weight never moves the argmin.

The checks here are exact. Mixture verification draws the mixing
coefficients from a seeded generator, so reports are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    MASS_TOLERANCE,
    InputDistribution,
    Loss,
    Scenario,
    WeightClass,
    WeightFunction,
)
from .errors import ArgumentError, ConfigurationError, WeightInvariantError
from .predictor import (
    AdditivePredictor,
    deserialize,
    induced_rule,
    prediction_matrix,
    read_model_document,
)

__all__ = [
    "WeightFunction",
    "WeightClass",
    "MixtureSpec",
    "augment_losses",
    "augment_scenario",
    "shift_distribution",
    "mixture_distribution",
    "rule_terms",
    "optimality",
    "verify_universal_adaptability",
    "induced_rule_shift_invariance_check",
    "AdaptReport",
    "DistributionCheck",
    "model_scenario",
    "load_model_with_scenario",
]


@dataclass(frozen=True)
class MixtureSpec:
    """Convex combination of the weight class's shifted distributions."""

    components: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ArgumentError("mixture needs at least one component")
        try:
            pairs = [(str(name), float(lam)) for name, lam in self.components]
        except (TypeError, ValueError):
            raise ArgumentError(
                "mixture components must be (weight name, coefficient) pairs"
            ) from None
        if not all(math.isfinite(lam) and lam >= 0 for _, lam in pairs):
            raise ArgumentError("mixture coefficients must be finite and nonnegative")
        total = math.fsum(lam for _, lam in pairs)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ArgumentError(
                f"mixture coefficients sum to {total!r}, expected 1"
            )


def augment_losses(losses: tuple[Loss, ...], weights: WeightClass) -> tuple[Loss, ...]:
    """Every loss rescaled pointwise by every weight function.

    The augmented loss named "loss@weight" has values w(x) * loss(x, yhat, y)
    and bound loss.lmax * wmax (class-level wmax).
    """
    augmented = []
    for loss in losses:
        for w in weights.weights:
            table = {
                x: {
                    yhat: (w.weight(x) * pair[0], w.weight(x) * pair[1])
                    for yhat, pair in row.items()
                }
                for x, row in loss.table.items()
            }
            augmented.append(
                Loss(
                    name=f"{loss.name}@{w.name}",
                    lmax=loss.lmax * weights.wmax,
                    table=table,
                )
            )
    return tuple(augmented)


def augment_scenario(scenario: Scenario) -> Scenario:
    """The same scenario with its losses replaced by the augmented ones."""
    if scenario.weights is None:
        raise ConfigurationError(
            "scenario has no weight class, so losses cannot be augmented"
        )
    return replace(scenario, losses=augment_losses(scenario.losses, scenario.weights))


def shift_distribution(dist: InputDistribution, w: WeightFunction) -> InputDistribution:
    """Input distribution reweighted pointwise by w; verifies unit mass."""
    masses = {x: w.weight(x) * dist.mass(x) for x in dist.probabilities}
    total = math.fsum(masses.values())
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise WeightInvariantError(
            f"weight {w.name!r} reweights the distribution to total mass "
            f"{total!r}, expected 1"
        )
    return InputDistribution(probabilities=masses)


def mixture_distribution(
    dist: InputDistribution, weights: WeightClass, spec: MixtureSpec
) -> InputDistribution:
    """Pointwise convex combination of the mixture's shifted distributions."""
    shifted = {
        name: shift_distribution(dist, weights.by_name(name))
        for name, _ in spec.components
    }
    return _mix(dist, shifted, spec)


def _mix(dist: InputDistribution, shifted, spec: MixtureSpec) -> InputDistribution:
    """spec's mix of shifted (weight name -> distribution), one fsum per feature."""
    masses = {
        x: math.fsum(lam * shifted[name].mass(x) for name, lam in spec.components)
        for x in dist.probabilities
    }
    return InputDistribution(probabilities=masses)


def model_scenario(scenario: Scenario, adapt: bool) -> Scenario:
    """The scenario a model's terms resolve in.

    A model trained with adapt=True names augmented losses like
    "loss@weight", which exist only in augment_scenario(scenario).
    """
    return augment_scenario(scenario) if adapt else scenario


def load_model_with_scenario(path, scenario: Scenario):
    """Read a model file; returns (predictor, the scenario it resolves in)."""
    doc = read_model_document(path)
    fp = doc.get("fingerprint") if isinstance(doc, dict) else None
    target = model_scenario(scenario, isinstance(fp, dict) and bool(fp.get("adapt")))
    return deserialize(doc, target), target


def _model_matrix(pred, scenario: Scenario):
    """The prediction matrix of pred, a model or a matrix, over scenario."""
    adapt = isinstance(pred, AdditivePredictor) and pred.fingerprint.adapt
    return prediction_matrix(pred, model_scenario(scenario, adapt))


def rule_terms(matrix, scenario: Scenario):
    """The hypotheses, then the loss-optimal rule of matrix per loss.

    Returns (rule names, terms); terms[j][r, i] is rule r's expected
    loss j at the i-th feature under Nature, before its mass weighs it.
    """
    arrays = scenario.arrays
    rules = scenario.hypotheses + tuple(
        induced_rule(matrix, loss, scenario) for loss in scenario.losses
    )
    index = np.stack([arrays.rule_indices(rule) for rule in rules])
    xs = np.arange(index.shape[1])
    terms = [
        (arrays.loss_base[name] + arrays.loss_delta[name] * arrays.nature)[xs, index]
        for name in (loss.name for loss in scenario.losses)
    ]
    return tuple(rule.name for rule in rules), terms


def optimality(terms, scenario: Scenario, dist: InputDistribution, eps: float):
    """Exact risks of the rule_terms rules on dist, and their 2*eps verdict.

    Returns (risks, best, slack, passed), indexed by loss j. risks[j][r]
    is rule r's risk, bit-identical to core's scalar reference: the same
    per-feature terms, summed by the correctly rounded math.fsum. best[j]
    is the least hypothesis risk; slack[j] is the loss-optimal rule's
    risk minus best[j], which passes within 2*eps plus a 1e-12 grace for
    rounding.
    """
    mass = np.array([dist.mass(x) for x in scenario.features.points])
    keep = mass != 0.0
    risks = [[math.fsum(r) for r in (mass[keep] * t[:, keep]).tolist()] for t in terms]
    h = len(scenario.hypotheses)
    best = [min(row[:h]) for row in risks]
    slack = [row[h + j] - b for j, (row, b) in enumerate(zip(risks, best))]
    return risks, best, slack, [s <= 2.0 * eps + 1e-12 for s in slack]


@dataclass(frozen=True)
class DistributionCheck:
    """Optimality slack of the predictor's rules on one distribution."""

    name: str
    worst_slack: float
    passed: bool
    per_loss: tuple[tuple[str, float, float], ...]  # (loss, rule risk, best rival risk)


@dataclass(frozen=True)
class AdaptReport:
    eps: float
    checks: tuple[DistributionCheck, ...]
    passed: bool
    rule_invariance: Optional["InvarianceReport"] = None

    def to_json_dict(self) -> dict:
        doc = {
            "eps": self.eps,
            "distributions": [
                {
                    "name": c.name,
                    "worst_slack": c.worst_slack,
                    "pass": c.passed,
                    "per_loss": [
                        {"loss": name, "risk": risk, "min_rival_risk": rival}
                        for name, risk, rival in c.per_loss
                    ],
                }
                for c in self.checks
            ],
            "pass": self.passed,
        }
        if self.rule_invariance is not None:
            doc["rule_invariance"] = {
                "pass": self.rule_invariance.passed,
                "mismatches": [
                    {"loss": l, "weight": w, "feature": x}
                    for l, w, x in self.rule_invariance.mismatches
                ],
            }
        return doc


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    mismatches: tuple[tuple[str, str, str], ...]  # (loss, weight, feature)


def verify_universal_adaptability(
    pred,
    scenario: Scenario,
    eps: float,
    n_mixtures: int = 10,
    seed: int = 0,
) -> AdaptReport:
    """Check 2*eps optimality of the predictor's rules on every shift.

    Each weight function's shifted distribution is checked, plus
    n_mixtures random mixtures drawn from the seed. The loss-optimal
    rules are computed once from the predictor and reused for every
    distribution, since positive reweighting cannot change them. A
    distribution passes when, for every loss, the rule's risk is within
    2*eps of the best hypothesis risk.
    """
    if scenario.weights is None:
        raise ConfigurationError("universal adaptability needs a weight class")
    if n_mixtures < 0:
        raise ArgumentError("n_mixtures must be nonnegative")
    if seed < 0:
        raise ArgumentError(f"seed must be nonnegative, got {seed}")
    _, terms = rule_terms(_model_matrix(pred, scenario), scenario)
    weights = scenario.weights
    dist = scenario.input_distribution
    shifted = {w.name: shift_distribution(dist, w) for w in weights.weights}
    distributions = [(f"weight:{name}", d) for name, d in shifted.items()]
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(n_mixtures):
        raw = rng.random(len(weights.weights))
        total = float(np.add.reduce(raw))
        if total == 0.0:
            raw = np.ones_like(raw)
            total = float(len(raw))
        spec = MixtureSpec(
            components=tuple(
                (w.name, float(v / total)) for w, v in zip(weights.weights, raw)
            )
        )
        distributions.append((f"mixture:{seed}:{i}", _mix(dist, shifted, spec)))

    h = len(scenario.hypotheses)
    checks = []
    for name, dist in distributions:
        risks, best, slack, passed = optimality(terms, scenario, dist, eps)
        own = [row[h + j] for j, row in enumerate(risks)]
        per_loss = tuple(zip((l.name for l in scenario.losses), own, best))
        checks.append(DistributionCheck(name, max(slack), all(passed), per_loss))
    return AdaptReport(
        eps=eps,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
    )


def induced_rule_shift_invariance_check(pred, scenario: Scenario) -> InvarianceReport:
    """Verify loss-optimal rules ignore positive reweighting pointwise.

    For every loss and weight, the rule induced by the reweighted loss
    must equal the rule induced by the plain loss at every feature with
    positive weight. Zero-weight features are excluded: there the
    reweighted objective is identically zero and the argmin is fixed by
    tie-breaking alone.

    Both rules are argmins over the scenario's loss and weight arrays.
    The reweighted outcome values are w(x) * v0 and w(x) * v1, as
    augment_losses writes them, and its gap is their difference.
    """
    if scenario.weights is None:
        raise ConfigurationError("rule invariance needs a weight class")
    matrix = _model_matrix(pred, scenario)
    arrays = scenario.arrays
    points = scenario.features.points
    mismatches = []
    for loss in scenario.losses:
        values = arrays.loss_values[loss.name]
        v0, v1 = values[:, :, 0], values[:, :, 1]
        plain = np.argmin(v0 + (v1 - v0) * matrix, axis=1)
        for w in scenario.weights.weights:
            weight = arrays.weights[w.name]
            a0, a1 = weight[:, np.newaxis] * v0, weight[:, np.newaxis] * v1
            shifted = np.argmin(a0 + (a1 - a0) * matrix, axis=1)
            for i in np.flatnonzero((weight > 0) & (plain != shifted)):
                mismatches.append((loss.name, w.name, points[i]))
    return InvarianceReport(passed=len(mismatches) == 0, mismatches=tuple(mismatches))

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
from typing import Optional

import numpy as np

from ._record import Record
from .core import MASS_TOLERANCE, Scenario, augment_scenario
from .errors import ArgumentError, ConfigurationError, ModelMismatchError
from .predictor import (
    AdditivePredictor,
    deserialize,
    induced_rule,
    prediction_matrix,
    read_fingerprint,
    read_model_document,
)


class MixtureSpec(Record):
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
        try:
            total = math.fsum(lam for _, lam in pairs)
        except OverflowError:  # finite coefficients whose sum is past float range
            total = math.inf
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ArgumentError(
                f"mixture coefficients sum to {total!r}, expected 1"
            )


def _weights(scenario: Scenario, name: str) -> np.ndarray:
    weights = scenario.arrays.weights
    if name not in weights:
        raise ArgumentError(f"unknown weight function {name!r}")
    return weights[name]


def shift_distribution(scenario: Scenario, name: str) -> np.ndarray:
    """Masses of the input distribution reweighted by the named weight
    function, in canonical feature order. They sum to 1 within
    MASS_TOLERANCE: the weight's unit mean is checked when the scenario
    is built."""
    return scenario.arrays.dist * _weights(scenario, name)


def mixture_distribution(scenario: Scenario, spec: MixtureSpec) -> np.ndarray:
    """Masses of the mixture's convex combination of shifted
    distributions, in canonical feature order: one math.fsum per feature
    over the components."""
    dist = scenario.arrays.dist
    terms = np.array(
        [float(lam) * (dist * _weights(scenario, w)) for w, lam in spec.components]
    )
    return np.array([math.fsum(column) for column in terms.T.tolist()])


def load_model_with_scenario(path, scenario: Scenario):
    """Read a model file; returns (predictor, the scenario it resolves in).

    The fingerprint is checked against the scenario before an adapt
    model's losses are augmented, and every refusal names the file."""
    doc = read_model_document(path)
    try:
        adapt = read_fingerprint(doc, scenario).adapt
        target = augment_scenario(scenario) if adapt else scenario
        return deserialize(doc, target), target
    except (ModelMismatchError, ConfigurationError) as exc:
        raise type(exc)(f"model file {path}: {exc}") from exc


def _model_matrix(pred, scenario: Scenario):
    """The prediction matrix of pred, a model or a matrix, over scenario."""
    if isinstance(pred, AdditivePredictor) and pred.fingerprint.adapt:
        scenario = augment_scenario(scenario)  # it names "loss@weight" losses
    return prediction_matrix(pred, scenario)


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


def _fsum_risks(rows: np.ndarray, mass: np.ndarray) -> list:
    """Per row of per-feature terms, math.fsum of mass * row over the
    features of nonzero mass: the correctly rounded exact risk."""
    keep = mass != 0.0
    return [math.fsum(r) for r in (mass[keep] * rows[:, keep]).tolist()]


def _within(slack: float, eps: float) -> bool:
    """The 2*eps verdict on a slack, with a 1e-12 grace for rounding."""
    return slack <= 2.0 * eps + 1e-12


def optimality(terms, scenario: Scenario, mass: np.ndarray, eps: float):
    """Exact risks of the rule_terms rules under the masses mass, in
    canonical feature order, and their 2*eps verdict.

    Returns (risks, best, slack, passed), indexed by loss j. risks[j][r]
    is rule r's risk, bit-identical to core's scalar reference: the same
    per-feature terms, summed by the correctly rounded math.fsum. best[j]
    is the least hypothesis risk; slack[j] is the loss-optimal rule's
    risk minus best[j], which passes within 2*eps plus a 1e-12 grace for
    rounding. Every risk is summed exactly; verify_universal_adaptability
    gives the same best and slack from fewer exact sums.
    """
    risks = [_fsum_risks(t, mass) for t in terms]
    h = len(scenario.hypotheses)
    best = [min(row[:h]) for row in risks]
    slack = [row[h + j] - b for j, (row, b) in enumerate(zip(risks, best))]
    return risks, best, slack, [_within(s, eps) for s in slack]


def _least_risk_candidates(terms, masses: np.ndarray, h: int):
    """Per loss j, a (D, h) mask of the hypotheses that may hold the least
    exact risk on each of the D distributions, rows of masses.

    A floating-point dot product of n terms differs from the exact sum of
    its rounded products by at most (n + 2) * 2**-53 * sum|mass * term|,
    whatever the summation order or BLAS thread count. The bound used
    here is twice that, plus n subnormal units for underflow, so rounding
    in the bound itself cannot drop a hypothesis. A hypothesis is kept
    when its interval reaches the least upper end on that distribution;
    every hypothesis of least exact risk is among those kept.
    """
    n = masses.shape[1]
    scale = np.abs(masses)
    tol = (2 * n + 4) * 2.0 ** -53
    kept = []
    for t in terms:
        hyp = t[:h]
        approx = masses @ hyp.T
        margin = (scale @ np.abs(hyp).T) * tol + n * 2.0 ** -1074
        upper = np.min(approx + margin, axis=1, keepdims=True)
        kept.append(approx - margin <= upper)
    return kept


class DistributionCheck(Record):
    """Optimality slack of the predictor's rules on one distribution."""

    name: str
    worst_slack: float
    passed: bool
    per_loss: tuple[tuple[str, float, float], ...]  # (loss, rule risk, best rival risk)


class AdaptReport(Record):
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


class InvarianceReport(Record):
    passed: bool
    mismatches: tuple[tuple[str, str, str], ...]  # (loss, weight, feature)


# the most 8-byte cells verify_universal_adaptability may hold for its
# distributions, 128 MiB: each one holds |X| masses and a report row of
# about 1.1 KiB per loss plus 1.5 KiB (measured with tracemalloc),
# counted as REPORT_CELLS per loss plus REPORT_CELLS
CELL_BUDGET = 1 << 24
REPORT_CELLS = 256


def _distributions(scenario: Scenario, n_mixtures: int, seed: int):
    """(name, masses) of every weight's shift, then of n_mixtures mixtures
    whose coefficients the seed draws."""
    weights = scenario.weights.weights
    distributions = [
        (f"weight:{w.name}", shift_distribution(scenario, w.name)) for w in weights
    ]
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(n_mixtures):
        raw = rng.random(len(weights))
        total = float(np.add.reduce(raw))
        if total == 0.0:
            raw = np.ones_like(raw)
            total = float(len(raw))
        spec = MixtureSpec(
            components=tuple((w.name, float(v / total)) for w, v in zip(weights, raw))
        )
        distributions.append(
            (f"mixture:{seed}:{i}", mixture_distribution(scenario, spec))
        )
    return distributions


def verify_universal_adaptability(
    pred,
    scenario: Scenario,
    eps: float,
    n_mixtures: int = 10,
    seed: int = 0,
) -> AdaptReport:
    """Check 2*eps optimality of the predictor's rules on every shift.

    Each weight function's shifted distribution is checked, plus
    n_mixtures random mixtures drawn from the seed; a count whose
    distributions would pass CELL_BUDGET is refused first. The loss-optimal
    rules are computed once from the predictor and reused for every
    distribution, since positive reweighting cannot change them. A
    distribution passes when, for every loss, the rule's risk is within
    2*eps of the best hypothesis risk.

    The report holds only two risks per (distribution, loss): the
    loss-optimal rule's and the least hypothesis risk. One matrix
    product per loss gives every hypothesis's approximate risk on every
    distribution with an error bound (_least_risk_candidates); the exact
    math.fsum then runs on the own rule and on the hypotheses that may
    hold the least risk only. Every reported value is an fsum value, and
    the report equals, bit for bit, what optimality gives per
    distribution, whatever the BLAS thread count.
    """
    if scenario.weights is None:
        raise ConfigurationError("universal adaptability needs a weight class")
    if n_mixtures < 0:
        raise ArgumentError("n_mixtures must be nonnegative")
    if seed < 0:
        raise ArgumentError(f"seed must be nonnegative, got {seed}")
    n_x, n_l = len(scenario.features.points), len(scenario.losses)
    per = n_x + REPORT_CELLS * (n_l + 1)
    fit = max(0, CELL_BUDGET // per - len(scenario.weights.weights))
    if n_mixtures > fit:
        raise ConfigurationError(
            f"{n_mixtures} mixtures over {n_x} features and {n_l} losses need "
            f"more than {CELL_BUDGET} cells; at most {fit} mixtures fit"
        )
    _, terms = rule_terms(_model_matrix(pred, scenario), scenario)
    distributions = _distributions(scenario, n_mixtures, seed)

    h = len(scenario.hypotheses)
    masses = np.stack([mass for _, mass in distributions])
    candidates = _least_risk_candidates(terms, masses, h)
    losses = tuple(l.name for l in scenario.losses)
    checks = []
    for d, (name, mass) in enumerate(distributions):
        own, best = [], []
        for j, t in enumerate(terms):
            # the loss-optimal rule first, then the candidates in canonical
            # order, so min sees the exact risks as optimality's does
            rows = np.concatenate(([h + j], np.flatnonzero(candidates[j][d])))
            risks = _fsum_risks(t[rows], mass)
            own.append(risks[0])
            best.append(min(risks[1:]))
        slack = [r - b for r, b in zip(own, best)]
        passed = all(_within(s, eps) for s in slack)
        checks.append(
            DistributionCheck(name, max(slack), passed, tuple(zip(losses, own, best)))
        )
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
    augment_scenario writes them, and its gap is their difference.
    """
    if scenario.weights is None:
        raise ConfigurationError("rule invariance needs a weight class")
    matrix = _model_matrix(pred, scenario)
    arrays = scenario.arrays
    points = scenario.features.points
    mismatches = []
    for loss in scenario.losses:
        plain = arrays.optimal_decisions(loss.name, matrix)
        v0 = arrays.loss_base[loss.name]
        v1 = arrays.loss_values[loss.name][:, :, 1]
        for w in scenario.weights.weights:
            weight = arrays.weights[w.name]
            a0, a1 = weight[:, np.newaxis] * v0, weight[:, np.newaxis] * v1
            shifted = np.argmin(a0 + (a1 - a0) * matrix, axis=1)
            for i in np.flatnonzero((weight > 0) & (plain != shifted)):
                mismatches.append((loss.name, w.name, points[i]))
    return InvarianceReport(passed=len(mismatches) == 0, mismatches=tuple(mismatches))

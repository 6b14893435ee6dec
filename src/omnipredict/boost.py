"""Audit-and-update training of additive outcome predictors.

Training starts from the uninformed all-1/2 predictor and repeats one
step: audit all (hypothesis, loss) pairs, then the predictor's own
loss-optimal rules; if some check shows a signed gap err of magnitude
at least epsilon between model-side and Nature-side expected loss,
append one clipped additive update against that target and continue;
otherwise stop. The stored step is +epsilon * sign(err) / lmax^2, which
the update rule subtracts along the loss-gap direction. That choice
makes the squared distance between the prediction matrix and the true
outcome table (weighted by the input distribution) fall by at least
epsilon^2 / lmax^2 per update, which is what proves termination: the
distance starts at most k/4, so at most ceil(k * lmax^2 / epsilon^2)
updates can ever be applied.

The mode picks the run's two audit functions once, before the first
step, so the loop calls them without asking which mode it is in. The
exact and empirical rule audits compute errs one hypothesis at a time
and stop at the first violation. Exact mode enumerates the scenario;
there an update that lowers the potential by less than epsilon^2 /
lmax^2, or one past the proven bound, is an internal inconsistency and
raises. Empirical mode estimates Nature's side from randomized-trial
data, through the same gathers over other tables: one fixed prefix of
the dataset serves every rule audit (those estimates do not depend on
the predictor), while each decision audit consumes a fresh slice,
because its rules are chosen by the trained predictor itself; running
out of slices is a configuration error. The cost-sensitive mode
replaces the rule audit with two learner calls per loss on instances
built from the same fixed prefix.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace
from typing import Optional

import numpy as np

from ._record import Record
from .audit import (
    CSC,
    EXACT,
    MODES,
    AuditTarget,
    audit_poi_csc,
    doi_entries,
    first_violation,
    poi_entries,
)
from .core import Scenario
from .errors import ArgumentError, BoundExceededError, ConfigurationError
from .predictor import (
    EXTERNAL,
    INDUCED,
    AdditivePredictor,
    UpdateTerm,
    apply_term,
    base_predictor,
    prediction_matrix,
)
from .rct import RctDataset


class BoostConfig(Record):
    """Training knobs; empirical and csc modes need data and slice sizes.

    poi_n is the length of the fixed labeled prefix reused by every
    rule audit; doi_n is the fresh labeled slice consumed by each
    decision audit.
    """

    epsilon: float
    mode: str = EXACT
    data: Optional[RctDataset] = None
    poi_n: Optional[int] = None
    doi_n: Optional[int] = None
    adapt: bool = False


class TraceRecord(Record):
    t: int
    stage: str  # "poi" | "doi"
    target: AuditTarget
    err: float
    eta: float
    potential: Optional[float]


class BoostTrace(Record):
    records: tuple[TraceRecord, ...]

    @property
    def updates(self) -> int:
        return len(self.records)


class BoostResult(Record):
    predictor: AdditivePredictor
    trace: BoostTrace
    termination: str  # "converged" | "bound_exceeded"


# Rounding allowance on the per-update potential drop eps^2 / lmax^2.
POTENTIAL_GRACE = 1e-12


def iteration_bound(k: int, lmax: float, eps: float) -> int:
    """Largest number of updates training can ever apply.

    ArgumentError refuses an argument that is not positive and finite;
    ConfigurationError a bound past float range, which no run could reach.
    """
    if not (k >= 1 and 0 < lmax < math.inf and 0 < eps < math.inf):
        raise ArgumentError("iteration bound needs positive finite arguments")
    try:
        bound = k * lmax * lmax / (eps * eps)
    except (OverflowError, ZeroDivisionError):  # an int past float range, eps^2 == 0
        bound = math.inf
    if not math.isfinite(bound):
        raise ConfigurationError(
            f"the proven update bound ceil(k*lmax^2/eps^2) for k={k}, "
            f"lmax={lmax!r}, eps={eps!r} is beyond float range"
        )
    return math.ceil(bound)


def potential(pred, scenario: Scenario) -> float:
    """Distribution-weighted squared distance to the true outcome table."""
    matrix = prediction_matrix(pred, scenario)
    arrays = scenario.arrays
    sq = np.add.reduce((matrix - arrays.nature) ** 2, axis=1)
    return float(np.add.reduce(arrays.dist * sq))


def _audits(config: BoostConfig, scenario: Scenario, eps: float):
    """The run's rule audit f(matrix) and decision audit f(matrix, t),
    each returning the first Violation or None; estimated modes check
    their slice sizes here."""
    if config.mode == EXACT:
        return (
            lambda matrix: first_violation(poi_entries(matrix, scenario), eps),
            lambda matrix, t: first_violation(doi_entries(matrix, scenario), eps),
        )
    data, poi_n, doi_n = config.data, config.poi_n, config.doi_n
    if data is None:
        raise ConfigurationError(f"{config.mode} mode needs a labeled dataset")
    if poi_n is None or doi_n is None:
        raise ConfigurationError(f"{config.mode} mode needs poi_n and doi_n slice sizes")
    if poi_n < 1 or doi_n < 1:
        raise ConfigurationError("poi_n and doi_n must be at least 1")
    if poi_n + doi_n > data.n:
        raise ConfigurationError(
            f"poi_n={poi_n} plus doi_n={doi_n} exceeds the "
            f"dataset size {data.n}, so training could never converge"
        )
    fixed = data.slice(0, poi_n)
    if config.mode == CSC:
        rule_audit = lambda matrix: audit_poi_csc(matrix, fixed, scenario, eps)[0]
    else:
        rule_audit = lambda matrix: first_violation(
            poi_entries(matrix, scenario, fixed, data), eps
        )
    starts = itertools.count(poi_n, doi_n)

    def decision_audit(matrix, t: int):
        start = next(starts)
        stop = start + doi_n
        if stop > data.n:
            raise ConfigurationError(
                f"training data exhausted at iteration {t}: needed samples "
                f"[{start}, {stop}) of {data.n}"
            )
        fresh = data.slice(start, stop)
        return first_violation(doi_entries(matrix, scenario, fresh, data), eps)

    return rule_audit, decision_audit


def poi_boost(scenario: Scenario, config: BoostConfig) -> BoostResult:
    """Train an additive predictor until both audit families are clean.

    Returns the predictor, a per-update trace, and the termination kind.
    Exact mode raises BoundExceededError (with the partial trace
    attached) if the proven update bound is ever exceeded, or if an
    update lowers the potential by less than epsilon^2 / lmax^2 (less
    POTENTIAL_GRACE for rounding); estimated modes report
    termination="bound_exceeded" instead, since noisy audits can
    legitimately fail to settle.
    """
    if not (math.isfinite(config.epsilon) and config.epsilon > 0):
        raise ArgumentError(
            f"epsilon must be a positive finite number, got {config.epsilon!r}"
        )
    if config.mode not in MODES:
        raise ArgumentError(f"unknown training mode {config.mode!r}")
    eps = float(config.epsilon)
    lmax = scenario.lmax
    bound = iteration_bound(scenario.k, lmax, eps)
    rule_audit, decision_audit = _audits(config, scenario, eps)
    exact = config.mode == EXACT

    step = eps / (lmax * lmax)
    matrix = np.full((len(scenario.features.points), scenario.k), 0.5)
    # the termination proof needs each exact update to lower the
    # potential by at least eps^2 / lmax^2
    pot = potential(matrix, scenario) if exact else None
    min_drop = eps * eps / (lmax * lmax) - POTENTIAL_GRACE
    terms: list[UpdateTerm] = []
    records: list[TraceRecord] = []
    termination = "converged"

    for t in itertools.count(1):
        violation = rule_audit(matrix) or decision_audit(matrix, t)
        if violation is None:
            break
        if t > bound:
            if exact:
                raise BoundExceededError(
                    f"exact-mode training exceeded its proven bound of {bound} "
                    f"updates; this should be impossible",
                    trace=BoostTrace(records=tuple(records)),
                )
            termination = "bound_exceeded"
            break

        target = violation.target
        eta = math.copysign(step, violation.err)
        # a rule target steps along its hypothesis, a decision target
        # along its loss's own optimal rule
        rule = target.kind == "poi"
        term = UpdateTerm(
            eta=eta,
            loss_name=target.loss,
            target_kind=EXTERNAL if rule else INDUCED,
            target_name=target.hypothesis if rule else target.loss,
        )
        matrix = apply_term(matrix, term, scenario)
        terms.append(term)
        prev, pot = pot, potential(matrix, scenario) if exact else None
        records.append(TraceRecord(t=t, stage=target.kind, target=target,
                                   err=violation.err, eta=eta, potential=pot))
        if exact and prev - pot < min_drop:
            raise BoundExceededError(
                f"exact-mode update {t} lowered the potential by {prev - pot!r}, "
                f"less than the proven {min_drop!r}; this should be impossible",
                trace=BoostTrace(records=tuple(records)),
            )

    return BoostResult(
        predictor=replace(base_predictor(scenario, eps, config.adapt), terms=tuple(terms)),
        trace=BoostTrace(records=tuple(records)),
        termination=termination,
    )


def write_trace(trace: BoostTrace, path) -> None:
    """One JSON object per applied update, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in trace.records:
            doc = {"t": r.t, "stage": r.stage, "target": r.target.to_json(),
                   "err": r.err, "eta": r.eta, "potential": r.potential}
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")

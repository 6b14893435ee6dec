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

Audits run in one of three modes. Exact mode enumerates the scenario;
there an update that lowers the potential by less than epsilon^2 /
lmax^2, or one past the proven bound, is an internal inconsistency and
raises. Its rule audit computes errs one hypothesis at a time and stops
at the first violation. Empirical mode estimates Nature's side from
randomized-trial data: one fixed prefix of the dataset serves every rule audit (those
estimates do not depend on the predictor), while each decision audit
consumes a fresh slice, because its rules are chosen by the trained
predictor itself; running out of slices is a configuration error. The
cost-sensitive mode replaces the rule audit with two learner calls per
loss on instances built from the same fixed prefix.
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
    EMPIRICAL,
    EXACT,
    MODES,
    AuditTarget,
    audit_poi_csc,
    doi_entries_empirical,
    doi_entries_exact,
    first_violation,
    ips_rule_risks,
    poi_entries_empirical,
    poi_entries_exact,
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


class _EmpiricalData:
    """Slice bookkeeping for empirical and cost-sensitive training."""

    def __init__(self, config: BoostConfig, scenario: Scenario):
        if config.data is None:
            raise ConfigurationError(f"{config.mode} mode needs a labeled dataset")
        if config.poi_n is None or config.doi_n is None:
            raise ConfigurationError(
                f"{config.mode} mode needs poi_n and doi_n slice sizes"
            )
        if config.poi_n < 1 or config.doi_n < 1:
            raise ConfigurationError("poi_n and doi_n must be at least 1")
        if config.poi_n + config.doi_n > config.data.n:
            raise ConfigurationError(
                f"poi_n={config.poi_n} plus doi_n={config.doi_n} exceeds the "
                f"dataset size {config.data.n}, so training could never converge"
            )
        self.data = config.data
        self.doi_n = config.doi_n
        self.fixed = self.data.slice(0, config.poi_n)
        self.cursor = config.poi_n
        # Rule-audit Nature-side estimates never depend on the predictor,
        # so they are computed once from the fixed prefix.
        self.nature_side = tuple(ips_rule_risks(self.fixed, scenario))

    def fresh_slice(self, t: int) -> RctDataset:
        start, stop = self.cursor, self.cursor + self.doi_n
        if stop > self.data.n:
            raise ConfigurationError(
                f"training data exhausted at iteration {t}: needed samples "
                f"[{start}, {stop}) of {self.data.n}"
            )
        self.cursor = stop
        return self.data.slice(start, stop)


def poi_boost(scenario: Scenario, config: BoostConfig) -> BoostResult:
    """Train an additive predictor until both audit families are clean.

    Returns the predictor, a per-update trace, and the termination kind.
    Exact mode raises BoundExceededError (with the partial trace
    attached) if the proven update bound is ever exceeded, or if an
    update lowers the potential by less than epsilon^2 / lmax^2 (less
    POTENTIAL_GRACE for rounding); estimated
    modes report termination="bound_exceeded" instead, since noisy
    audits can legitimately fail to settle.
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
    emp = None
    if config.mode in (EMPIRICAL, CSC):
        emp = _EmpiricalData(config, scenario)

    step = eps / (lmax * lmax)
    n_x = len(scenario.features.points)
    matrix = np.full((n_x, scenario.k), 0.5, dtype=np.float64)
    # the termination proof needs each exact update to lower the
    # potential by at least eps^2 / lmax^2
    pot = potential(matrix, scenario) if config.mode == EXACT else None
    min_drop = eps * eps / (lmax * lmax) - POTENTIAL_GRACE
    terms: list[UpdateTerm] = []
    records: list[TraceRecord] = []
    termination = "converged"

    for t in itertools.count(1):
        stage = "poi"
        if config.mode == EXACT:
            entries = poi_entries_exact(matrix, scenario)
            violation = first_violation(entries, eps)
        elif config.mode == EMPIRICAL:
            entries = poi_entries_empirical(
                matrix, emp.data, scenario, emp.nature_side
            )
            violation = first_violation(entries, eps)
        else:
            violation, _ = audit_poi_csc(matrix, emp.fixed, scenario, eps)
        if violation is None:
            stage = "doi"
            if config.mode == EXACT:
                entries = doi_entries_exact(matrix, scenario)
            else:
                fresh = emp.fresh_slice(t)
                entries = doi_entries_empirical(matrix, fresh, emp.data, scenario)
            violation = first_violation(entries, eps)

        if violation is None:
            termination = "converged"
            break
        if t > bound:
            trace = BoostTrace(records=tuple(records))
            if config.mode == EXACT:
                raise BoundExceededError(
                    f"exact-mode training exceeded its proven bound of {bound} "
                    f"updates; this should be impossible",
                    trace=trace,
                )
            termination = "bound_exceeded"
            break

        eta = math.copysign(step, violation.err)
        if violation.target.kind == "poi":
            term = UpdateTerm(
                eta=eta,
                loss_name=violation.target.loss,
                target_kind=EXTERNAL,
                target_name=violation.target.hypothesis,
            )
        else:
            term = UpdateTerm(
                eta=eta,
                loss_name=violation.target.loss,
                target_kind=INDUCED,
                target_name=violation.target.loss,
            )
        matrix = apply_term(matrix, term, scenario)
        terms.append(term)
        prev = pot
        if config.mode == EXACT:
            pot = potential(matrix, scenario)
        records.append(
            TraceRecord(
                t=t,
                stage=stage,
                target=violation.target,
                err=violation.err,
                eta=eta,
                potential=pot,
            )
        )
        if pot is not None and prev - pot < min_drop:
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
            fh.write(
                json.dumps(
                    {
                        "t": r.t,
                        "stage": r.stage,
                        "target": r.target.to_json(),
                        "err": r.err,
                        "eta": r.eta,
                        "potential": r.potential,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )

"""Indistinguishability audits for outcome predictors.

All audits compare expected losses computed two ways: once with
outcomes drawn from the true outcome model (Nature's side) and once
with outcomes drawn from the predictor's modeled probabilities (the
model side). A predictor is indistinguishable for a family of checks
when every signed difference err = model-side minus Nature-side stays
below the tolerance in magnitude.

Four audit families are provided:

* rule audits over every (hypothesis, loss) pair;
* decision audits over the predictor's own loss-optimal rules;
* multiaccuracy: per (hypothesis, decision) agreement of the modeled
  outcome probability with the true one on the region the hypothesis
  selects that decision (reported as true minus modeled);
* decision calibration: the same agreement under the loss-optimal rules
  of every input-oblivious loss on a weight grid.

Each family runs in exact mode (full enumeration over the scenario) and
the rule/decision audits additionally run in empirical mode (Nature's
side from randomized-trial data by inverse propensity scoring, model
side from unlabeled features) and via a reduction to cost-sensitive
classification that needs only two learner calls per loss.

Enumeration order is canonical everywhere (hypothesis-major then
loss-minor; decisions in index order), and the reported violation is
always the canonically first one, so identical inputs give identical
results regardless of internal parallelism.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Hypothesis, Loss, Scenario
from .errors import ArgumentError, LearnerContractError
from .predictor import induced_rule, prediction_matrix
from .rct import RctDataset, encode, ips_risk_estimate, model_risk_estimate

EXACT = "exact"
EMPIRICAL = "empirical"
CSC = "csc"


@dataclass(frozen=True)
class AuditTarget:
    """One checked quantity; exactly the fields for its kind are set."""

    kind: str  # "poi" | "doi" | "ma" | "dc"
    hypothesis: Optional[str] = None
    loss: Optional[str] = None
    decision: Optional[str] = None
    weights: Optional[tuple[float, ...]] = None

    def describe(self) -> str:
        if self.kind == "poi":
            return f"poi(h={self.hypothesis}, loss={self.loss})"
        if self.kind == "doi":
            return f"doi(loss={self.loss})"
        if self.kind == "ma":
            return f"ma(h={self.hypothesis}, yhat={self.decision})"
        return f"dc(w={list(self.weights)}, yhat={self.decision})"

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.hypothesis is not None:
            doc["hypothesis"] = self.hypothesis
        if self.loss is not None:
            doc["loss"] = self.loss
        if self.decision is not None:
            doc["decision"] = self.decision
        if self.weights is not None:
            doc["weights"] = list(self.weights)
        return doc


@dataclass(frozen=True)
class Violation:
    """A target whose err magnitude reached the tolerance."""

    target: AuditTarget
    err: float

    @property
    def magnitude(self) -> float:
        return abs(self.err)


@dataclass(frozen=True)
class AuditReport:
    """Every checked target with its err, plus the pass verdict.

    passed is true exactly when all magnitudes are strictly below eps;
    violation is the canonically first target at or above it.
    """

    mode: str
    eps: float
    entries: tuple[tuple[AuditTarget, float], ...]
    passed: bool
    violation: Optional[Violation] = None

    def to_json_dict(self) -> dict:
        doc = {
            "mode": self.mode,
            "eps": self.eps,
            "targets": [
                {"target": t.to_json(), "err": e} for t, e in self.entries
            ],
            "pass": self.passed,
        }
        doc["violation"] = (
            None
            if self.violation is None
            else {"target": self.violation.target.to_json(), "err": self.violation.err}
        )
        return doc


def _run_row_chunks(fill: Callable[[slice], None], n_rows: int, threads: int) -> None:
    """Run fill over contiguous row slices, optionally on a thread pool.

    Each row's arithmetic is independent and identical in every
    chunking, so results are byte-identical for any thread count.
    """
    if threads <= 1 or n_rows <= 1:
        fill(slice(0, n_rows))
        return
    bounds = np.linspace(0, n_rows, num=min(threads, n_rows) + 1, dtype=int)
    slices = [
        slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b
    ]
    with ThreadPoolExecutor(max_workers=len(slices)) as pool:
        list(pool.map(fill, slices))


def poi_err_matrix(matrix_or_pred, scenario: Scenario, threads: int = 1) -> np.ndarray:
    """Exact err for every (hypothesis, loss) pair, canonical order.

    err[h, l] = sum_x dist(x) * gap_l(x, h(x)) * (modeled - true)
    probability at (x, h(x)), where gap_l is the loss's outcome spread
    loss(x, yhat, 1) - loss(x, yhat, 0). Equal to the model-side risk
    minus Nature-side risk of h under l.
    """
    matrix = prediction_matrix(matrix_or_pred, scenario)
    arrays = scenario.arrays
    n_x = len(scenario.features.points)
    cols = np.arange(n_x)
    stacked = np.stack([arrays.hyp_index[h.name] for h in scenario.hypotheses])
    errs = np.empty((len(scenario.hypotheses), len(scenario.losses)))
    mismatch = matrix - arrays.nature

    def fill(rows: slice) -> None:
        sel = stacked[rows]
        gap_sel = mismatch[cols, sel]
        for li, loss in enumerate(scenario.losses):
            delta = arrays.loss_delta[loss.name]
            errs[rows, li] = np.add.reduce(
                arrays.dist * delta[cols, sel] * gap_sel, axis=1
            )

    _run_row_chunks(fill, len(scenario.hypotheses), threads)
    return errs


def doi_errs(matrix_or_pred, scenario: Scenario, threads: int = 1) -> np.ndarray:
    """Exact err for each loss under the predictor's own optimal rule."""
    matrix = prediction_matrix(matrix_or_pred, scenario)
    arrays = scenario.arrays
    n_x = len(scenario.features.points)
    cols = np.arange(n_x)
    errs = np.empty(len(scenario.losses))
    mismatch = matrix - arrays.nature

    def fill(rows: slice) -> None:
        for li in range(rows.start, rows.stop):
            loss = scenario.losses[li]
            base = arrays.loss_base[loss.name]
            delta = arrays.loss_delta[loss.name]
            sel = np.argmin(base + delta * matrix, axis=1)
            errs[li] = np.add.reduce(
                arrays.dist * delta[cols, sel] * mismatch[cols, sel]
            )

    _run_row_chunks(fill, len(scenario.losses), threads)
    return errs


def _first_poi_violation(errs: np.ndarray, scenario: Scenario, eps: float):
    flags = np.abs(errs) >= eps
    if not flags.any():
        return None
    hi, li = np.argwhere(flags)[0]
    target = AuditTarget(
        kind="poi",
        hypothesis=scenario.hypotheses[hi].name,
        loss=scenario.losses[li].name,
    )
    return Violation(target=target, err=float(errs[hi, li]))


def _first_doi_violation(errs: np.ndarray, scenario: Scenario, eps: float):
    flags = np.abs(errs) >= eps
    if not flags.any():
        return None
    li = int(np.argwhere(flags)[0][0])
    target = AuditTarget(kind="doi", loss=scenario.losses[li].name)
    return Violation(target=target, err=float(errs[li]))


def _poi_entries(errs: np.ndarray, scenario: Scenario):
    return tuple(
        (
            AuditTarget(kind="poi", hypothesis=h.name, loss=l.name),
            float(errs[hi, li]),
        )
        for hi, h in enumerate(scenario.hypotheses)
        for li, l in enumerate(scenario.losses)
    )


def _doi_entries(errs: np.ndarray, scenario: Scenario):
    return tuple(
        (AuditTarget(kind="doi", loss=l.name), float(errs[li]))
        for li, l in enumerate(scenario.losses)
    )


def audit_poi_exact(pred, scenario: Scenario, eps: float, threads: int = 1):
    """Audit every (hypothesis, loss) pair exactly.

    Returns (violation, report): the canonically first target with
    |err| >= eps, or None, plus the full report.
    """
    errs = poi_err_matrix(pred, scenario, threads=threads)
    violation = _first_poi_violation(errs, scenario, eps)
    report = AuditReport(
        mode=EXACT,
        eps=eps,
        entries=_poi_entries(errs, scenario),
        passed=violation is None,
        violation=violation,
    )
    return violation, report


def audit_doi_exact(pred, scenario: Scenario, eps: float, threads: int = 1):
    """Audit each loss under the predictor's own loss-optimal rule."""
    errs = doi_errs(pred, scenario, threads=threads)
    violation = _first_doi_violation(errs, scenario, eps)
    report = AuditReport(
        mode=EXACT,
        eps=eps,
        entries=_doi_entries(errs, scenario),
        passed=violation is None,
        violation=violation,
    )
    return violation, report


def audit_poi_empirical(
    pred,
    labeled: RctDataset,
    unlabeled: Sequence[str],
    scenario: Scenario,
    eps: float,
):
    """Estimated rule audit: trial data on Nature's side, features only
    on the model side."""
    if labeled.n == 0 or len(unlabeled) == 0:
        raise ArgumentError("empirical audit needs nonempty labeled and unlabeled data")
    entries = []
    violation = None
    for h in scenario.hypotheses:
        for loss in scenario.losses:
            model = model_risk_estimate(unlabeled, pred, h, loss, scenario)
            nature = ips_risk_estimate(labeled, h, loss, scenario.k)
            err = model - nature
            target = AuditTarget(kind="poi", hypothesis=h.name, loss=loss.name)
            entries.append((target, err))
            if violation is None and abs(err) >= eps:
                violation = Violation(target=target, err=err)
    report = AuditReport(
        mode=EMPIRICAL,
        eps=eps,
        entries=tuple(entries),
        passed=violation is None,
        violation=violation,
    )
    return violation, report


def audit_doi_empirical(
    pred,
    labeled: RctDataset,
    unlabeled: Sequence[str],
    scenario: Scenario,
    eps: float,
):
    """Estimated decision audit under the predictor's own optimal rules.

    The rules themselves are computed analytically from the predictor;
    only Nature's side of each risk is estimated from the trial data.
    """
    if labeled.n == 0 or len(unlabeled) == 0:
        raise ArgumentError("empirical audit needs nonempty labeled and unlabeled data")
    entries = []
    violation = None
    for loss in scenario.losses:
        rule = induced_rule(pred, loss, scenario)
        model = model_risk_estimate(unlabeled, pred, rule, loss, scenario)
        nature = ips_risk_estimate(labeled, rule, loss, scenario.k)
        err = model - nature
        target = AuditTarget(kind="doi", loss=loss.name)
        entries.append((target, err))
        if violation is None and abs(err) >= eps:
            violation = Violation(target=target, err=err)
    report = AuditReport(
        mode=EMPIRICAL,
        eps=eps,
        entries=tuple(entries),
        passed=violation is None,
        violation=violation,
    )
    return violation, report


@dataclass(frozen=True, eq=False)
class CscInstance:
    """Cost-sensitive classification instance over the decision space.

    One cost row per sample, nonzero only at the logged decision's
    index; entries lie within [-1/(4k), 1/(4k)].
    """

    xs: tuple[str, ...]
    decision_labels: tuple[str, ...]
    costs: np.ndarray

    @property
    def n(self) -> int:
        return len(self.xs)

    def mean_cost(self, rule: Hypothesis) -> float:
        """Average cost this instance assigns to following the rule."""
        vocab, codes = encode(self.xs)
        chosen = np.fromiter(
            (self.decision_labels.index(rule.decide(x)) for x in vocab),
            dtype=np.intp,
            count=len(vocab),
        )
        cols = chosen[codes]
        return float(np.add.reduce(self.costs[np.arange(self.n), cols]) / self.n)


def _scenario_indices(column, index: dict) -> np.ndarray:
    """Per entry, the scenario index of a dataset column's identifier."""
    vocab, codes = encode(column)
    lookup = np.fromiter((index[v] for v in vocab), dtype=np.intp, count=len(vocab))
    return lookup[codes]


def build_csc_instance(
    labeled: RctDataset, pred, loss: Loss, sigma: int, scenario: Scenario
) -> CscInstance:
    """Reduce one loss's rule audit to cost-sensitive classification.

    Per sample the cost at the logged decision is sigma times (modeled
    expected loss minus realized loss), scaled by 1/(4 k lmax). A rule's
    mean cost is then sigma * err / (4 k^2 lmax) in expectation, so a
    large audit err in the direction selected by sigma shows up as a
    strongly negative mean cost.
    """
    if sigma not in (1, -1):
        raise ArgumentError(f"sigma must be +1 or -1, got {sigma!r}")
    if labeled.n == 0:
        raise ArgumentError("cannot build an instance from an empty dataset")
    matrix = prediction_matrix(pred, scenario)
    arrays = scenario.arrays
    base, delta = arrays.loss_arrays_for(scenario, loss)
    n = labeled.n
    xi = _scenario_indices(labeled.xs, arrays.x_index)
    ji = _scenario_indices(labeled.yhats, arrays.y_index)
    modeled = base[xi, ji] + delta[xi, ji] * matrix[xi, ji]
    realized = base[xi, ji] + delta[xi, ji] * labeled.outcomes
    scale = 4.0 * scenario.k * scenario.lmax
    costs = np.zeros((n, scenario.k), dtype=np.float64)
    costs[np.arange(n), ji] = sigma * (modeled - realized) / scale
    return CscInstance(
        xs=labeled.xs, decision_labels=scenario.decisions.labels, costs=costs
    )


def baseline_weak_learner(
    instance: CscInstance, hypotheses: Sequence[Hypothesis], rho: float
) -> Optional[Hypothesis]:
    """Exhaustive cost-sensitive learner over a finite hypothesis list.

    Returns the first hypothesis attaining the minimum empirical mean
    cost, provided that minimum is at most -rho/2; otherwise None.
    """
    if len(hypotheses) == 0:
        raise ArgumentError("weak learner needs a nonempty hypothesis list")
    best = None
    best_cost = None
    for h in hypotheses:
        cost = instance.mean_cost(h)
        if best_cost is None or cost < best_cost:
            best = h
            best_cost = cost
    if best_cost is not None and best_cost <= -rho / 2.0:
        return best
    return None


def audit_via_csc(
    pred,
    labeled: RctDataset,
    losses: Sequence[Loss],
    weak_learner: Callable[[CscInstance, float], Optional[Hypothesis]],
    eps: float,
    scenario: Scenario,
) -> Optional[Violation]:
    """Rule audit through a cost-sensitive learner: 2 calls per loss.

    For each loss and each sign the learner sees one instance; a
    returned hypothesis is verified against its mean-cost contract and
    wrapped as a violation with err recovered by rescaling the mean
    cost by 4 k^2 lmax times the sign. Returns the first hit or None
    after exactly 2 * len(losses) calls.
    """
    k = scenario.k
    lmax = scenario.lmax
    rho = eps / (4.0 * lmax * k)
    for loss in losses:
        # sigma=-1 surfaces model-over-Nature gaps first, mirroring the
        # sign of the canonical first violation in exact mode
        for sigma in (-1, 1):
            instance = build_csc_instance(labeled, pred, loss, sigma, scenario)
            found = weak_learner(instance, rho)
            if found is None:
                continue
            mean = instance.mean_cost(found)
            if mean > -rho / 2.0:
                raise LearnerContractError(
                    f"learner returned {found.name!r} with mean cost {mean!r}, "
                    f"above the contract bound {-rho / 2.0!r}"
                )
            err = 4.0 * k * k * lmax * sigma * mean
            target = AuditTarget(kind="poi", hypothesis=found.name, loss=loss.name)
            return Violation(target=target, err=err)
    return None


def multiaccuracy_errs(matrix_or_pred, scenario: Scenario) -> np.ndarray:
    """Per (hypothesis, decision) agreement value, true minus modeled.

    value[h, j] = sum_x dist(x) * 1{h(x) = yhat_j} * (true - modeled)
    probability of outcome 1 at (x, yhat_j).
    """
    matrix = prediction_matrix(matrix_or_pred, scenario)
    arrays = scenario.arrays
    gap = arrays.nature - matrix
    values = np.empty((len(scenario.hypotheses), scenario.k))
    for hi, h in enumerate(scenario.hypotheses):
        sel = arrays.hyp_index[h.name]
        for j in range(scenario.k):
            mask = (sel == j).astype(np.float64)
            values[hi, j] = np.add.reduce(arrays.dist * mask * gap[:, j])
    return values


def audit_multiaccuracy(pred, scenario: Scenario, eps: float) -> AuditReport:
    """Check modeled outcome probabilities against the true ones on every
    hypothesis-selected region; pass iff all magnitudes are below eps."""
    values = multiaccuracy_errs(pred, scenario)
    entries = []
    violation = None
    for hi, h in enumerate(scenario.hypotheses):
        for j, yhat in enumerate(scenario.decisions.labels):
            target = AuditTarget(kind="ma", hypothesis=h.name, decision=yhat)
            err = float(values[hi, j])
            entries.append((target, err))
            if violation is None and abs(err) >= eps:
                violation = Violation(target=target, err=err)
    return AuditReport(
        mode=EXACT,
        eps=eps,
        entries=tuple(entries),
        passed=violation is None,
        violation=violation,
    )


DEFAULT_GRID_STEPS = 9
_DEFAULT_K_LIMIT = 3
_DC_CHUNK = 4096


def audit_decision_calibration(
    pred,
    scenario: Scenario,
    eps: float,
    grid_steps: int = DEFAULT_GRID_STEPS,
    allow_large_k: bool = False,
) -> AuditReport:
    """Search input-oblivious losses on a weight grid for calibration gaps.

    Every candidate loss assigns each decision a pair of outcome weights
    from a uniform grid over [-1, 1]; its optimal rule under the
    predictor is computed pointwise, and the modeled-minus-true outcome
    probability is averaged over each decision's selected region. The
    report carries, per decision, the worst value over the whole grid
    and the weight vector achieving it. Cost grows as grid_steps^(2k),
    so k is capped at 3 unless explicitly overridden.
    """
    if grid_steps < 3:
        raise ArgumentError(f"grid_steps must be at least 3, got {grid_steps}")
    k = scenario.k
    if k > _DEFAULT_K_LIMIT and not allow_large_k:
        raise ArgumentError(
            f"decision calibration over k={k} decisions needs allow_large_k=True "
            f"(grid has {grid_steps ** (2 * k)} points)"
        )
    matrix = prediction_matrix(pred, scenario)
    arrays = scenario.arrays
    grid = np.linspace(-1.0, 1.0, grid_steps)
    total = grid_steps ** (2 * k)
    gap = matrix - arrays.nature  # modeled minus true
    weighted_gap = arrays.dist[:, np.newaxis] * gap

    best_abs = np.full(k, -1.0)
    best_val = np.zeros(k)
    best_combo = [None] * k

    digits = 2 * k
    for start in range(0, total, _DC_CHUNK):
        stop = min(start + _DC_CHUNK, total)
        idx = np.arange(start, stop)
        combo = np.empty((stop - start, digits))
        rem = idx.copy()
        for d in range(digits - 1, -1, -1):
            combo[:, d] = grid[rem % grid_steps]
            rem //= grid_steps
        w0 = combo[:, 0::2]  # weight on outcome 0, per decision
        w1 = combo[:, 1::2]
        scores = (
            w0[:, np.newaxis, :] * (1.0 - matrix[np.newaxis, :, :])
            + w1[:, np.newaxis, :] * matrix[np.newaxis, :, :]
        )
        chosen = np.argmin(scores, axis=2)  # (chunk, n_x)
        for j in range(k):
            mask = chosen == j
            vals = np.add.reduce(mask * weighted_gap[np.newaxis, :, j], axis=1)
            local = int(np.argmax(np.abs(vals)))
            if abs(vals[local]) > best_abs[j]:
                best_abs[j] = abs(vals[local])
                best_val[j] = vals[local]
                best_combo[j] = tuple(float(v) for v in combo[local])

    entries = []
    violation = None
    for j, yhat in enumerate(scenario.decisions.labels):
        target = AuditTarget(kind="dc", decision=yhat, weights=best_combo[j])
        err = float(best_val[j])
        entries.append((target, err))
        if violation is None and abs(err) >= eps:
            violation = Violation(target=target, err=err)
    return AuditReport(
        mode=EXACT,
        eps=eps,
        entries=tuple(entries),
        passed=violation is None,
        violation=violation,
    )

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
results regardless of internal parallelism. Every audit yields
(target, err) entries in that order, and first_violation and
audit_report turn them into its verdict; training reads the same
entries, lazily, only up to the first violation.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import Hypothesis, Loss, Scenario
from .errors import ArgumentError, LearnerContractError
from .predictor import induced_rule, prediction_matrix
from .rct import RctDataset, encode, ips_risk_estimate, model_risk_estimate

EXACT = "exact"
EMPIRICAL = "empirical"
CSC = "csc"
MODES = (EXACT, EMPIRICAL, CSC)


@dataclass(frozen=True)
class AuditTarget:
    """One checked quantity; exactly the fields for its kind are set."""

    kind: str  # "poi" | "doi" | "ma" | "dc"
    hypothesis: Optional[str] = None
    loss: Optional[str] = None
    decision: Optional[str] = None
    weights: Optional[tuple[float, ...]] = None

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


def first_violation(entries: Iterable, eps: float) -> Optional[Violation]:
    """The first (target, err) pair with |err| >= eps, or None. Reading
    stops there, so a lazy source computes no err after it."""
    for target, err in entries:
        if abs(err) >= eps:
            return Violation(target=target, err=err)
    return None


def audit_report(
    mode: str, eps: float, entries: Iterable, violation: Optional[Violation] = None
) -> AuditReport:
    """Report over every (target, err) pair; the violation, unless given,
    is the first one among them."""
    entries = tuple(entries)
    if violation is None:
        violation = first_violation(entries, eps)
    return AuditReport(
        mode=mode,
        eps=eps,
        entries=entries,
        passed=violation is None,
        violation=violation,
    )


def _verdict(mode: str, eps: float, entries: Iterable):
    report = audit_report(mode, eps, entries)
    return report.violation, report


def _rule_entries(scenario: Scenario, errs: Iterable[float]):
    """(hypothesis, loss) targets, hypothesis-major, zipped with errs."""
    targets = (
        AuditTarget(kind="poi", hypothesis=h.name, loss=loss.name)
        for h, loss in itertools.product(scenario.hypotheses, scenario.losses)
    )
    return zip(targets, errs)


def _decision_entries(scenario: Scenario, errs: Iterable[float]):
    targets = (AuditTarget(kind="doi", loss=loss.name) for loss in scenario.losses)
    return zip(targets, errs)


def poi_entries_exact(pred, scenario: Scenario, threads: int = 1):
    errs = poi_err_matrix(pred, scenario, threads=threads)
    return _rule_entries(scenario, errs.ravel().tolist())


def doi_entries_exact(pred, scenario: Scenario, threads: int = 1):
    return _decision_entries(scenario, doi_errs(pred, scenario, threads).tolist())


def ips_rule_risks(labeled: RctDataset, scenario: Scenario):
    """Lazy IPS estimates of Nature's risk per (hypothesis, loss) pair."""
    return (
        ips_risk_estimate(labeled, h, loss, scenario.k)
        for h, loss in itertools.product(scenario.hypotheses, scenario.losses)
    )


def poi_entries_empirical(
    pred, unlabeled: Sequence[str], scenario: Scenario, nature: Iterable[float]
):
    """Lazy estimated rule-audit entries; nature is in ips_rule_risks order."""
    matrix = prediction_matrix(pred, scenario)
    pairs = itertools.product(scenario.hypotheses, scenario.losses)
    errs = (
        model_risk_estimate(unlabeled, matrix, h, loss, scenario) - nature_risk
        for (h, loss), nature_risk in zip(pairs, nature)
    )
    return _rule_entries(scenario, errs)


def doi_entries_empirical(
    pred, labeled: RctDataset, unlabeled: Sequence[str], scenario: Scenario
):
    """Lazy estimated decision-audit entries.

    The rules themselves are computed analytically from the predictor;
    only Nature's side of each risk is estimated from the trial data.
    """
    matrix = prediction_matrix(pred, scenario)

    def err(loss: Loss) -> float:
        rule = induced_rule(matrix, loss, scenario)
        model = model_risk_estimate(unlabeled, matrix, rule, loss, scenario)
        return model - ips_risk_estimate(labeled, rule, loss, scenario.k)

    return _decision_entries(scenario, map(err, scenario.losses))


def audit_poi_exact(pred, scenario: Scenario, eps: float, threads: int = 1):
    """Audit every (hypothesis, loss) pair exactly.

    Returns (violation, report): the canonically first target with
    |err| >= eps, or None, plus the full report.
    """
    return _verdict(EXACT, eps, poi_entries_exact(pred, scenario, threads))


def audit_doi_exact(pred, scenario: Scenario, eps: float, threads: int = 1):
    """Audit each loss under the predictor's own loss-optimal rule."""
    return _verdict(EXACT, eps, doi_entries_exact(pred, scenario, threads))


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
    nature = ips_rule_risks(labeled, scenario)
    entries = poi_entries_empirical(pred, unlabeled, scenario, nature)
    return _verdict(EMPIRICAL, eps, entries)


def audit_doi_empirical(
    pred,
    labeled: RctDataset,
    unlabeled: Sequence[str],
    scenario: Scenario,
    eps: float,
):
    """Estimated decision audit under the predictor's own optimal rules."""
    if labeled.n == 0 or len(unlabeled) == 0:
        raise ArgumentError("empirical audit needs nonempty labeled and unlabeled data")
    entries = doi_entries_empirical(pred, labeled, unlabeled, scenario)
    return _verdict(EMPIRICAL, eps, entries)


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


def audit_poi_csc(pred, labeled: RctDataset, scenario: Scenario, eps: float):
    """audit_via_csc with baseline_weak_learner over the scenario's rules.

    The report lists no entries: the learner names only the hypothesis
    it finds, and that err may lie below eps when k = 1.
    """
    learner = lambda inst, rho: baseline_weak_learner(inst, scenario.hypotheses, rho)
    violation = audit_via_csc(pred, labeled, scenario.losses, learner, eps, scenario)
    return violation, audit_report(CSC, eps, (), violation)


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
    targets = (
        AuditTarget(kind="ma", hypothesis=h.name, decision=yhat)
        for h, yhat in itertools.product(scenario.hypotheses, scenario.decisions.labels)
    )
    return audit_report(EXACT, eps, zip(targets, values.ravel().tolist()))


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

    targets = (
        AuditTarget(kind="dc", decision=yhat, weights=best_combo[j])
        for j, yhat in enumerate(scenario.decisions.labels)
    )
    return audit_report(EXACT, eps, zip(targets, best_val.tolist()))

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
results. Every audit yields (target, err) entries in that order, and
first_violation and audit_report turn them into its verdict; training
reads the same entries, lazily, only up to the first violation.

Every rule and decision audit is one bilinear kernel: per loss, (|X|, k)
tables gathered at each rule's cells x*k + h(x) (for hypotheses, the
scenario's rule_cells) and summed per row with np.add.reduce
(rct.rule_sums). Exact mode and the estimated modes differ only in the
tables. The exact table is (dist * delta) * (modeled - true), with the
weighted gap dist * delta formed once per scenario (its loss_gap). An
estimated err is the model side's gather of feature counts times
expected losses, over the unlabeled count, minus k over the labeled
count times Nature's gather of count times loss value: each pair has
the bits of model_risk_estimate minus ips_risk_estimate, which are
deterministic but not the correctly rounded per-sample sums.
poi_err_matrix and the lazy rows training reads (poi_entries) share one
row function, so their errs agree bit for bit, and doi_errs gathers the
same tables at the predictor's own rules. Multiaccuracy gathers a
per-decision table at the same rule_cells, and a cost-sensitive
instance is the table of summed sample costs per (feature, logged
decision) cell, so no estimate reads a sample.
Decision calibration's grid scan is described at
audit_decision_calibration.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ._record import Record
from .core import CSC, EMPIRICAL, EXACT, MODES  # noqa: F401  (re-exported)
from .core import Hypothesis, Loss, Scenario
from .errors import ArgumentError, LearnerContractError
from .predictor import prediction_matrix
from .rct import RctDataset, ips_tables, model_tables, rule_cells, rule_sums


class AuditTarget(Record):
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


class Violation(Record):
    """A target whose err magnitude reached the tolerance."""

    target: AuditTarget
    err: float


class AuditReport(Record):
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


def _err_kernel(matrix: np.ndarray, scenario: Scenario, labeled=None, unlabeled=None):
    """err as a function of a gather, which sums each loss's flat
    (|X|, k) table at the cells it chooses.

    Exact err gathers (dist * delta) * (modeled - true), whose weighted gap
    dist * delta is the scenario's loss_gap, formed once. Given trial data,
    err is the model side over the unlabeled count minus k over the
    labeled count times Nature's side, each gathered from one table per
    loss (rct.model_tables, rct.ips_tables).
    """
    if labeled is None:
        arrays = scenario.arrays
        mismatch = matrix - arrays.nature
        products = [(arrays.loss_gap[l.name] * mismatch).ravel() for l in scenario.losses]
        return lambda gather: gather(products)
    nature = ips_tables(labeled, scenario, scenario.losses)
    model = model_tables(unlabeled, matrix, scenario, scenario.losses)
    n, scale = unlabeled.n, scenario.k / labeled.n
    return lambda gather: gather(model) / n - scale * gather(nature)


def _rule_err_rows(matrix_or_pred, scenario: Scenario, labeled=None, unlabeled=None):
    """The rule-audit kernel, as a function of a hypothesis slice.

    Forms each loss's tables once; the returned function gathers them at
    the cells the sliced hypotheses choose and reduces each row, giving
    the (rows, |L|) block of poi_err_matrix.
    """
    matrix = prediction_matrix(matrix_or_pred, scenario)
    err = _err_kernel(matrix, scenario, labeled, unlabeled)
    rule_cells = scenario.arrays.rule_cells

    def rows(sel: slice) -> np.ndarray:
        cells = rule_cells[sel]
        return err(lambda tables: np.stack([rule_sums(t, cells) for t in tables], axis=-1))

    return rows


def poi_err_matrix(matrix_or_pred, scenario: Scenario, labeled=None, unlabeled=None):
    """Err for every (hypothesis, loss) pair, canonical order.

    err[h, l] = sum_x dist(x) * gap_l(x, h(x)) * (modeled - true)
    probability at (x, h(x)), where gap_l is the loss's outcome spread
    loss(x, yhat, 1) - loss(x, yhat, 0). Equal to the model-side risk
    minus Nature-side risk of h under l. Given labeled trial data and
    unlabeled features, both risks are estimated instead, as
    model_risk_estimate minus ips_risk_estimate, bit for bit.
    """
    return _rule_err_rows(matrix_or_pred, scenario, labeled, unlabeled)(slice(None))


def doi_errs(matrix_or_pred, scenario: Scenario, labeled=None, unlabeled=None):
    """Err for each loss under the predictor's own optimal rule; exact, or
    estimated from trial data as poi_err_matrix is."""
    matrix = prediction_matrix(matrix_or_pred, scenario)
    arrays = scenario.arrays
    own = [arrays.offsets + arrays.optimal_decisions(l.name, matrix) for l in scenario.losses]
    err = _err_kernel(matrix, scenario, labeled, unlabeled)
    return err(lambda tables: np.array([rule_sums(t, c) for t, c in zip(tables, own)]))


def _check_eps(eps: float) -> None:
    """Reject a tolerance under which no err could fail: NaN, infinite,
    zero or negative."""
    if not (math.isfinite(eps) and eps > 0):
        raise ArgumentError(f"eps must be a positive finite number, got {eps!r}")


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


def poi_entries(pred, scenario: Scenario, labeled=None, unlabeled=None):
    """Rule-audit entries, exact or estimated as poi_err_matrix's,
    computed lazily one hypothesis row at a time, so a reader that stops
    at a violation computes no later row."""
    rows = _rule_err_rows(pred, scenario, labeled, unlabeled)
    errs = itertools.chain.from_iterable(
        rows(slice(h, h + 1)).ravel().tolist() for h in range(len(scenario.hypotheses))
    )
    return _rule_entries(scenario, errs)


def doi_entries(pred, scenario: Scenario, labeled=None, unlabeled=None):
    """Decision-audit entries, exact or estimated as doi_errs's. The rules
    themselves are computed analytically from the predictor."""
    errs = doi_errs(pred, scenario, labeled, unlabeled)
    return _decision_entries(scenario, errs.tolist())


def audit_poi_exact(pred, scenario: Scenario, eps: float):
    """Audit every (hypothesis, loss) pair exactly.

    Returns (violation, report): the canonically first target with
    |err| >= eps, or None, plus the full report.
    """
    _check_eps(eps)
    errs = poi_err_matrix(pred, scenario)
    return _verdict(EXACT, eps, _rule_entries(scenario, errs.ravel().tolist()))


def audit_doi_exact(pred, scenario: Scenario, eps: float):
    """Audit each loss under the predictor's own loss-optimal rule."""
    _check_eps(eps)
    return _verdict(EXACT, eps, doi_entries(pred, scenario))


def audit_poi_empirical(
    pred, labeled: RctDataset, unlabeled: RctDataset, scenario: Scenario, eps: float
):
    """Estimated rule audit: trial data on Nature's side, only the
    features of the unlabeled dataset on the model side."""
    _check_eps(eps)
    errs = poi_err_matrix(pred, scenario, labeled, unlabeled)
    return _verdict(EMPIRICAL, eps, _rule_entries(scenario, errs.ravel().tolist()))


def audit_doi_empirical(
    pred, labeled: RctDataset, unlabeled: RctDataset, scenario: Scenario, eps: float
):
    """Estimated decision audit under the predictor's own optimal rules."""
    _check_eps(eps)
    return _verdict(EMPIRICAL, eps, doi_entries(pred, scenario, labeled, unlabeled))


class CscInstance(Record, eq=False):
    """Cost-sensitive classification instance over the decision space,
    as |X| weighted examples.

    costs[x, j] is the summed cost of data's samples at feature x whose
    logged decision is j: zero at an unlogged cell, and at most its
    sample count times 1/(4k) in magnitude. A rule's mean cost gathers
    the |X| cells it chooses, whatever the number of samples.
    """

    data: RctDataset
    costs: np.ndarray
    scenario: Scenario

    def __post_init__(self):
        self.data.check_scenario(self.scenario)
        shape, c = (len(self.scenario.features.points), self.scenario.k), self.costs
        if not (isinstance(c, np.ndarray) and c.dtype.kind == "f" and c.shape == shape):
            raise ArgumentError(f"CSC costs must be a float array of shape {shape}")
        if not np.isfinite(c).all():
            raise ArgumentError("CSC costs must be finite")

    @property
    def n(self) -> int:
        return self.data.n

    def mean_costs(self, rules: Sequence[Hypothesis]) -> np.ndarray:
        """Average cost of following each rule, one gather for all."""
        return rule_sums(self.costs.ravel(), rule_cells(rules, self.scenario)) / self.n

    def mean_cost(self, rule: Hypothesis) -> float:
        """Average cost this instance assigns to following the rule."""
        return float(self.mean_costs((rule,))[0])


def build_csc_instance(
    labeled: RctDataset, pred, loss: Loss, sigma: int, scenario: Scenario
) -> CscInstance:
    """Reduce one loss's rule audit to cost-sensitive classification.

    Per sample the cost at the logged decision is sigma times (modeled
    expected loss minus realized loss), scaled by 1/(4 k lmax); a cell
    with N samples, C1 with outcome 1, sums to sigma * delta * (N * q -
    C1) / (4 k lmax). A rule's mean cost is then sigma * err / (4 k^2
    lmax) in expectation, so a large audit err in the direction selected
    by sigma shows up as a strongly negative mean cost.
    """
    if sigma not in (1, -1):
        raise ArgumentError(f"sigma must be +1 or -1, got {sigma!r}")
    if labeled.n == 0:
        raise ArgumentError("cannot build an instance from an empty dataset")
    labeled.check_scenario(scenario)
    matrix = prediction_matrix(pred, scenario)
    _, delta = scenario.arrays.loss_arrays(loss)
    counts = labeled.counts
    ones = counts[:, :, 1]
    scale = 4.0 * scenario.k * scenario.lmax
    costs = sigma * delta * ((counts[:, :, 0] + ones) * matrix - ones) / scale
    return CscInstance(data=labeled, costs=costs, scenario=scenario)


def baseline_weak_learner(
    instance: CscInstance, hypotheses: Sequence[Hypothesis], rho: float
) -> Optional[Hypothesis]:
    """Exhaustive cost-sensitive learner over a finite hypothesis list.

    Returns the first hypothesis attaining the minimum empirical mean
    cost, provided that minimum is at most -rho/2; otherwise None.
    """
    if len(hypotheses) == 0:
        raise ArgumentError("weak learner needs a nonempty hypothesis list")
    costs = instance.mean_costs(hypotheses)
    best = int(np.argmin(costs))  # the first of equal minima
    return hypotheses[best] if costs[best] <= -rho / 2.0 else None


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
    _check_eps(eps)
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
    _check_eps(eps)
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
    for j in range(scenario.k):
        # a rule's cell at another decision adds the masked product's signed zero
        table = np.outer(arrays.dist * 0.0 * gap[:, j], np.ones(scenario.k))
        table[:, j] = arrays.dist * gap[:, j]
        values[:, j] = rule_sums(table.ravel(), arrays.rule_cells)
    return values


def audit_multiaccuracy(pred, scenario: Scenario, eps: float) -> AuditReport:
    """Check modeled outcome probabilities against the true ones on every
    hypothesis-selected region; pass iff all magnitudes are below eps."""
    _check_eps(eps)
    values = multiaccuracy_errs(pred, scenario)
    targets = (
        AuditTarget(kind="ma", hypothesis=h.name, decision=yhat)
        for h, yhat in itertools.product(scenario.hypotheses, scenario.decisions.labels)
    )
    return audit_report(EXACT, eps, zip(targets, values.ravel().tolist()))


DEFAULT_GRID_STEPS = 9
_DEFAULT_K_LIMIT = 3
# Grid points times features handled at once by decision calibration;
# its working set is a few arrays of this many cells, whatever k and
# grid_steps are.
_DC_CELLS = 1 << 18


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
    and the first grid point (in grid order) achieving it.

    Each decision's score under each of the grid_steps^2 weight pairs is
    tabulated once. Grid points are then scanned in chunks of _DC_CELLS
    cells: a running minimum over the tabulated scores gives every
    point's rule, which still costs grid_steps^(2k) * |X| * k
    comparisons, so k is capped at 3 unless explicitly overridden. Many
    points induce the same partition of X, and the region sums are
    reduced once per distinct partition, over full rows, so every value
    is bit-identical to a per-point reduction. A memo keyed by each
    partition's row bytes keeps those sums across chunks; it is cleared
    once its keys and entries pass 8 * _DC_CELLS bytes, so a partition
    may be reduced again after a clear, never read stale. Each chunk's
    maximum is taken over its points in grid order, so the first point
    reaching the maximum is reported.
    """
    _check_eps(eps)
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
    n_x = matrix.shape[0]
    grid = np.linspace(-1.0, 1.0, grid_steps)
    n_pairs = grid_steps * grid_steps
    weighted_gap = arrays.dist[:, np.newaxis] * (matrix - arrays.nature)
    # scores[j][p, x]: decision j's expected loss at x under weight pair
    # p = a * grid_steps + b, weight grid[a] on outcome 0 and grid[b] on 1
    w0 = np.repeat(grid, grid_steps)[:, np.newaxis]
    w1 = np.tile(grid, grid_steps)[:, np.newaxis]
    scores = [w0 * (1.0 - matrix[:, j]) + w1 * matrix[:, j] for j in range(k)]
    # each partition row as one opaque item, so its bytes key the memo
    row_item = np.dtype((np.void, n_x))
    # memo[row bytes] indexes the partition's region sums in known. It
    # lives across chunks and is cleared once its keys, with about 100
    # bytes of object and dict overhead each, pass 8 * _DC_CELLS bytes,
    # so the scan's working set stays fixed.
    memo: dict = {}
    known = np.empty((0, k))

    # A grid point is a prefix (the pairs of decisions 0..k-2, base-n_pairs
    # digits, most significant first) followed by decision k-1's pair.
    # Chunks are runs of whole prefixes, or runs of one prefix's last
    # pairs when a single prefix exceeds the cell budget.
    n_prefixes = n_pairs ** (k - 1)
    prefix_step = max(1, _DC_CELLS // (n_pairs * n_x))
    last_step = min(n_pairs, max(1, _DC_CELLS // n_x))
    best_abs = np.full(k, -1.0)
    best_val = np.zeros(k)
    best_point = np.zeros(k, dtype=np.int64)
    for a in range(0, n_prefixes, prefix_step):
        prefixes = np.arange(a, min(a + prefix_step, n_prefixes))
        # each prefix's minimum score and rule over decisions 0..k-2
        least = np.full((len(prefixes), n_x), np.inf)
        rule = np.zeros((len(prefixes), n_x), dtype=np.int8)
        for j in range(k - 1):
            pair = prefixes // n_pairs ** (k - 2 - j) % n_pairs
            score = scores[j].take(pair, axis=0)
            rule[score < least] = j  # strict, so ties keep the lowest index
            np.minimum(least, score, out=least)
        for c in range(0, n_pairs, last_step):
            lower = scores[k - 1][np.newaxis, c : c + last_step] < least[:, np.newaxis]
            # k-1 is the largest index, so where decision k-1 scores lower
            # the maximum picks it, and elsewhere the prefix's rule
            chosen = lower.view(np.int8)
            chosen *= np.int8(k - 1)
            np.maximum(chosen, rule[:, np.newaxis], out=chosen)
            chosen = chosen.reshape(-1, n_x)
            if len(memo) * (n_x + 100) > 8 * _DC_CELLS:
                memo.clear()
                known = known[:0]
            rows = chosen.view(row_item).ravel().tolist()
            # the chunk's partitions not in the memo, in first-occurrence
            # order; each gets the next id
            fresh = [row for row in dict.fromkeys(rows) if row not in memo]
            if fresh:
                memo.update(zip(fresh, range(len(memo), len(memo) + len(fresh))))
                distinct = np.frombuffer(b"".join(fresh), np.int8).reshape(-1, n_x)
                sums = np.empty((len(fresh), k))
                for j in range(k):
                    sums[:, j] = np.add.reduce((distinct == j) * weighted_gap[:, j], axis=1)
                known = np.concatenate((known, sums))
            ids = np.fromiter(map(memo.__getitem__, rows), np.intp, len(rows))
            vals = known[ids]
            local = np.argmax(np.abs(vals), axis=0)
            # the chunk's points are consecutive in grid order
            start = a * n_pairs + c
            for j in range(k):
                val = vals[local[j], j]
                if abs(val) > best_abs[j]:
                    best_abs[j] = abs(val)
                    best_val[j] = val
                    best_point[j] = start + local[j]

    digits = (grid_steps,) * (2 * k)
    targets = (
        AuditTarget(
            kind="dc",
            decision=yhat,
            weights=tuple(float(grid[d]) for d in np.unravel_index(best_point[j], digits)),
        )
        for j, yhat in enumerate(scenario.decisions.labels)
    )
    return audit_report(EXACT, eps, zip(targets, best_val.tolist()))

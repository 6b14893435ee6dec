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

The exact rule audit is one bilinear kernel. Per call it forms, for
each loss, the (|X|, k) product (dist * delta) * (modeled - true),
|L|*|X|*k multiplies, then gathers it at each hypothesis's chosen cells
through the flat indices x*k + h(x) kept in the scenario's rule_cells,
and sums each hypothesis row with np.add.reduce. The full matrix that
audit_poi_exact reads (poi_err_matrix, split over threads) and the lazy
rows that training reads (poi_entries_exact) come from that one row
function, so their errs agree bit for bit. The exact decision audit
(doi_errs) gathers the same per-loss products at the cells of the
predictor's own loss-optimal rule.

Decision calibration tabulates each decision's score under each of the
grid_steps^2 weight pairs once, finds every grid point's rule by a
running minimum over those tables (grid_steps^(2k) * |X| * k
comparisons), and reduces the region sums once per distinct induced
partition in each chunk of grid points. Each chunk holds at most
_DC_CELLS grid-point-by-feature cells, so memory does not grow with k
or grid_steps.
"""

from __future__ import annotations

import itertools
import math
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


def _loss_products(matrix: np.ndarray, scenario: Scenario) -> list[np.ndarray]:
    """Per loss, the product (dist * delta) * (modeled - true) over the
    (|X|, k) table, flat, so cell (x, j) is at x * k + j."""
    arrays = scenario.arrays
    mismatch = matrix - arrays.nature
    weight = arrays.dist[:, np.newaxis]
    return [
        ((weight * arrays.loss_delta[loss.name]) * mismatch).ravel()
        for loss in scenario.losses
    ]


def _rule_err_rows(matrix_or_pred, scenario: Scenario) -> Callable[[slice], np.ndarray]:
    """The exact rule-audit kernel, as a function of a hypothesis slice.

    Forms each loss's product once; the returned function gathers it at
    the cells the sliced hypotheses choose and reduces each row, giving
    the (rows, |L|) block of poi_err_matrix.
    """
    arrays = scenario.arrays
    products = _loss_products(prediction_matrix(matrix_or_pred, scenario), scenario)

    def rows(sel: slice) -> np.ndarray:
        cells = arrays.rule_cells[sel]
        errs = np.empty((len(cells), len(products)))
        for li, product in enumerate(products):
            errs[:, li] = np.add.reduce(product.take(cells), axis=1)
        return errs

    return rows


def poi_err_matrix(matrix_or_pred, scenario: Scenario, threads: int = 1) -> np.ndarray:
    """Exact err for every (hypothesis, loss) pair, canonical order.

    err[h, l] = sum_x dist(x) * gap_l(x, h(x)) * (modeled - true)
    probability at (x, h(x)), where gap_l is the loss's outcome spread
    loss(x, yhat, 1) - loss(x, yhat, 0). Equal to the model-side risk
    minus Nature-side risk of h under l.
    """
    rows = _rule_err_rows(matrix_or_pred, scenario)
    errs = np.empty((len(scenario.hypotheses), len(scenario.losses)))

    def fill(sel: slice) -> None:
        errs[sel] = rows(sel)

    _run_row_chunks(fill, len(scenario.hypotheses), threads)
    return errs


def doi_errs(matrix_or_pred, scenario: Scenario, threads: int = 1) -> np.ndarray:
    """Exact err for each loss under the predictor's own optimal rule."""
    matrix = prediction_matrix(matrix_or_pred, scenario)
    arrays = scenario.arrays
    products = _loss_products(matrix, scenario)
    offsets = np.arange(len(scenario.features.points)) * scenario.k
    errs = np.empty(len(scenario.losses))

    def fill(rows: slice) -> None:
        for li in range(rows.start, rows.stop):
            loss = scenario.losses[li]
            base = arrays.loss_base[loss.name]
            delta = arrays.loss_delta[loss.name]
            sel = np.argmin(base + delta * matrix, axis=1)
            errs[li] = np.add.reduce(products[li].take(offsets + sel))

    _run_row_chunks(fill, len(scenario.losses), threads)
    return errs


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


def poi_entries_exact(pred, scenario: Scenario):
    """Exact rule-audit entries, computed lazily one hypothesis row at a
    time, so a reader that stops at a violation computes no later row."""
    rows = _rule_err_rows(pred, scenario)
    errs = itertools.chain.from_iterable(
        rows(slice(h, h + 1)).ravel().tolist() for h in range(len(scenario.hypotheses))
    )
    return _rule_entries(scenario, errs)


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
    _check_eps(eps)
    errs = poi_err_matrix(pred, scenario, threads=threads)
    return _verdict(EXACT, eps, _rule_entries(scenario, errs.ravel().tolist()))


def audit_doi_exact(pred, scenario: Scenario, eps: float, threads: int = 1):
    """Audit each loss under the predictor's own loss-optimal rule."""
    _check_eps(eps)
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
    _check_eps(eps)
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
    _check_eps(eps)
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
    for hi, h in enumerate(scenario.hypotheses):
        sel = arrays.hyp_index[h.name]
        for j in range(scenario.k):
            mask = (sel == j).astype(np.float64)
            values[hi, j] = np.add.reduce(arrays.dist * mask * gap[:, j])
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
    reduced once per distinct partition in each chunk, over full rows,
    so every value is bit-identical to a per-point reduction.
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
    # each partition row as one opaque item, so np.unique can sort rows
    row_item = np.dtype((np.void, n_x))

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
            chosen = np.where(lower, np.int8(k - 1), rule[:, np.newaxis]).reshape(-1, n_x)
            _, first, inverse = np.unique(
                chosen.view(row_item).ravel(), return_index=True, return_inverse=True
            )
            distinct = chosen[first]
            vals = np.empty((len(first), k))
            for j in range(k):
                vals[:, j] = np.add.reduce((distinct == j) * weighted_gap[:, j], axis=1)
            vals = vals[inverse.ravel()]
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

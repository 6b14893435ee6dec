"""Randomized-trial data generation and off-policy risk estimation.

Data is drawn as independent triples: a feature from the input
distribution, a decision assigned uniformly at random, and a binary
outcome from the true outcome model at that (feature, decision) pair.
Because the assignment is uniform with known propensity 1/k, the risk
of any deterministic rule can be estimated from one such dataset by
inverse propensity scoring: average the realized losses on the samples
where the logged decision agrees with the rule, rescaled by k.

Model-side risks never sample modeled outcomes: the expectation over a
binary outcome has a closed form, so that side reads only features.

A dataset holds one column: per sample, the flat index (x*k + yhat)*2 + y
of its (feature, decision, outcome) cell, where x and yhat are the
positions of its feature and logged decision in the canonical order of
the scenario's spaces and y its 0/1 outcome. read_jsonl and generate_rct
build one for the scenario they read or draw for, RctDataset.from_labels
encodes identifier columns, and a slice is a view of its parent's cells.
Every estimator takes the scenario, refuses a dataset encoded for other
spaces, and reads only the dataset's (|X|, k, 2) count tensor, the
number of samples in each cell, or its feature histogram, so no estimate
depends on the order of the records. Each side is one (|X|, k) table
per loss, gathered at each rule's cells and summed pairwise (rule_sums):
|X| cells per rule, whatever n is. Nature's side (ips_tables) holds
count times loss value per cell, the model side (model_tables) feature
counts times expected losses, and audit's cost-sensitive instances
summed sample costs. An estimate is thus the same float for the same
counts, but not always the correctly rounded per-sample sum.

Files are JSON lines. The line write_jsonl writes for a sample is fully
determined by its (feature, decision, outcome) cell, so the canonical
line of every cell is built once per file into a table of 2·|X|·k lines
(_sample_lines): O(|X|·k), the size of the count tensor. write_jsonl
joins entries of that table, _BLOCK_LINES samples per write. read_jsonl
maps each line to its cell through a memo seeded with the table; a line
the memo lacks is checked alone, once per file, and then memoized, so
each distinct line is decoded at most once and a file written by
write_jsonl decodes none. The first bad line raises, named by its number.

Randomness comes from a PCG64 bit generator consumed only through raw
uniform doubles (inverse-CDF sampling). That keeps generated files
byte-identical for a given seed across library versions; the scheme is
recorded in dataset metadata as the generator tag.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from functools import cached_property
from itertools import islice
from typing import Mapping, Optional, Sequence

import numpy as np

from ._record import Record
from .core import DecisionSpace, FeatureSpace, Hypothesis, Loss, Scenario
from .errors import ArgumentError, DataFormatError
from .predictor import prediction_matrix

GENERATOR_TAG = "pcg64-icdf-1"

# Lines read, or samples written, per block of a JSONL file.
_BLOCK_LINES = 4096


class RctMeta(Record):
    scenario: str
    seed: Optional[int]
    n: int
    gen: str


def _encode(labels: Sequence, index: Mapping[str, int], what: str) -> np.ndarray:
    """Per entry, index[entry]; ArgumentError names the first entry that
    index lacks, as an unknown `what`."""
    try:
        return np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))
    except (KeyError, TypeError):  # TypeError: an unhashable entry
        bad = next(v for v in labels if not isinstance(v, str) or v not in index)
        raise ArgumentError(f"unknown {what} {bad!r}") from None


class RctDataset(Record, eq=False):
    """Randomized-trial samples encoded for a scenario's spaces, with
    provenance metadata.

    Per sample, cells holds the flat index (x*k + yhat)*2 + y of its
    cell: x is the position of its feature in features.points, yhat that
    of its logged decision in decisions.labels, and y its outcome, 0 or 1.
    np.divmod by 2 and then by k recovers the three. read_jsonl and
    generate_rct build datasets directly; from_labels encodes identifier
    columns.
    """

    features: FeatureSpace
    decisions: DecisionSpace
    cells: np.ndarray
    meta: RctMeta

    def __post_init__(self):
        cells, n = self.cells, self.meta.n
        if not (isinstance(cells, np.ndarray) and cells.ndim == 1
                and cells.dtype.kind == "i" and len(cells) == n):
            raise ArgumentError(f"dataset cells must be a 1-D integer array of n={n}")
        # numpy gathers wrap negative indices, so a cell out of range
        # would read another cell rather than fail
        bound = 2 * len(self.features.points) * self.decisions.k
        if n and not (0 <= cells.min() and cells.max() < bound):
            raise ArgumentError(f"dataset cells must lie in [0, {bound})")

    @classmethod
    def from_labels(
        cls, scenario: Scenario, xs: Sequence, yhats: Sequence, ys, meta: RctMeta
    ) -> "RctDataset":
        """The samples (xs[i], yhats[i], ys[i]) encoded for the scenario.

        ArgumentError names the first outcome that is not the integer 0
        or 1, or else the first feature or decision the scenario lacks.
        """
        if not len(xs) == len(yhats) == len(ys):
            raise ArgumentError("xs, yhats and ys must have one entry per sample")
        for y in ys:
            # bool is an int subclass and 1.0 == 1, so test the exact type
            if type(y) is not int or y not in (0, 1):
                raise ArgumentError(f"outcome must be the integer 0 or 1, got {y!r}")
        arrays = scenario.arrays
        x = _encode(xs, arrays.x_index, "feature")
        yhat = _encode(yhats, arrays.y_index, "decision")
        cells = (x * scenario.k + yhat) * 2 + np.array(ys, dtype=np.intp)
        return cls(scenario.features, scenario.decisions, cells, meta)

    def __eq__(self, other):
        if not isinstance(other, RctDataset):
            return NotImplemented
        return (
            (self.meta, self.features, self.decisions)
            == (other.meta, other.features, other.decisions)
            and np.array_equal(self.cells, other.cells)
        )

    def __len__(self) -> int:
        return self.meta.n

    @property
    def n(self) -> int:
        return self.meta.n

    @cached_property
    def counts(self) -> np.ndarray:
        """(|X|, k, 2) int64 tensor: the number of samples at each
        (feature, decision, outcome) cell."""
        k = self.decisions.k
        tensor = np.bincount(self.cells, minlength=len(self.features.points) * k * 2)
        return tensor.reshape(-1, k, 2)

    @cached_property
    def histogram(self) -> np.ndarray:
        """(|X|,) int64: the number of samples at each feature."""
        return self.counts.sum(axis=(1, 2))

    def check_scenario(self, scenario: Scenario) -> None:
        """Refuse a scenario whose spaces are not the ones this dataset's
        indices refer to."""
        if (self.features, self.decisions) != (scenario.features, scenario.decisions):
            raise ArgumentError(
                f"dataset for scenario {self.meta.scenario!r} is indexed by other "
                f"features or decisions than scenario {scenario.name!r}"
            )

    def slice(self, start: int, stop: int) -> "RctDataset":
        """Contiguous sub-dataset whose cells are a view of this one's;
        provenance is kept, n is adjusted."""
        cells = self.cells[start:stop]
        return replace(self, cells=cells, meta=replace(self.meta, n=len(cells)))


def generate_rct(scenario: Scenario, n: int, seed: int) -> RctDataset:
    """Draw n independent (feature, uniform decision, outcome) triples.

    Deterministic for a given seed: three blocks of raw uniforms are
    drawn in a fixed order (features, decisions, outcomes) and mapped
    through inverse CDFs.
    """
    if n < 1:
        raise ArgumentError(f"need n >= 1 samples, got {n}")
    if seed < 0:
        raise ArgumentError(f"seed must be nonnegative, got {seed}")
    arrays = scenario.arrays
    k = scenario.k
    n_x = len(scenario.features.points)
    rng = np.random.Generator(np.random.PCG64(seed))
    cum = np.cumsum(arrays.dist)
    cum[-1] = 1.0  # guard the float tail so every draw lands in range
    x = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), n_x - 1)
    pairs = x * k + np.minimum((rng.random(n) * k).astype(np.intp), k - 1)
    cells = pairs * 2 + (rng.random(n) < arrays.nature.ravel()[pairs])
    meta = RctMeta(scenario=scenario.name, seed=int(seed), n=n, gen=GENERATOR_TAG)
    return RctDataset(scenario.features, scenario.decisions, cells, meta)


def rule_cells(rules: Sequence[Hypothesis], scenario: Scenario) -> np.ndarray:
    """(len(rules), |X|) flat indices x*k + rule(x) into a row-major
    (|X|, k) table, as the scenario's rule_cells holds its hypotheses'."""
    arrays = scenario.arrays
    return np.stack([arrays.rule_indices(r) for r in rules]) + arrays.offsets


def rule_sums(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Per row of cells, the sum of the flat table there: one take and one
    pairwise np.add.reduce per row, never BLAS, so a row's sum has the
    same bits however many rows are gathered at once."""
    return np.add.reduce(table.take(cells), axis=-1)


def ips_tables(data: RctDataset, scenario: Scenario, losses: Sequence[Loss]) -> list:
    """Per loss, the flat (|X|*k) table C_0*l_0 + C_1*l_1: the realized
    losses of data's samples summed per (feature, logged decision) cell,
    where C_y counts the cell's samples with outcome y and l_y is the
    loss there. k/n times its sum at a rule's cells is the rule's
    ips_risk_estimate."""
    if data.n == 0:
        raise ArgumentError("cannot estimate risk from an empty dataset")
    data.check_scenario(scenario)
    arrays = scenario.arrays
    tables = []
    for loss in losses:
        arrays.loss_arrays(loss)  # rejects a loss from outside the scenario
        tables.append((data.counts * arrays.loss_values[loss.name]).sum(axis=2).ravel())
    return tables


def ips_risk_estimate(
    data: RctDataset, h: Hypothesis, loss: Loss, scenario: Scenario
) -> float:
    """Inverse-propensity-scored risk of rule h from randomized-trial data.

    Returns (k/n) * sum of loss(x_i, yhat_i, y_i) over samples whose
    logged decision equals h(x_i), with k the scenario's. Unbiased for
    the rule's true risk because the uniform assignment gives every
    decision propensity 1/k. h and loss belong to the scenario, whose
    spaces the dataset must be encoded for. The sum is ips_tables'
    per-cell totals summed pairwise at h's |X| cells: deterministic and
    independent of the order of the samples, and within the rounding of
    |X| + 3 operations of the exact value, but not always the correctly
    rounded per-sample sum.
    """
    table = ips_tables(data, scenario, (loss,))[0]
    return float(scenario.k / data.n * rule_sums(table, rule_cells((h,), scenario))[0])


def model_tables(data: RctDataset, pred, scenario: Scenario, losses: Sequence[Loss]) -> list:
    """Per loss, the flat (|X|*k) table of feature counts times the
    expected loss base + delta * q under the predictor's outcome
    probability q at each cell. Its sum at a rule's cells over n is the
    rule's model_risk_estimate; no outcomes are read."""
    if data.n == 0:
        raise ArgumentError("cannot estimate model risk from empty features")
    data.check_scenario(scenario)
    matrix = prediction_matrix(pred, scenario)
    weight = data.histogram[:, np.newaxis]
    pairs = map(scenario.arrays.loss_arrays, losses)
    return [(weight * (b + d * matrix)).ravel() for b, d in pairs]


def model_risk_estimate(
    data: RctDataset, pred, rule: Hypothesis, loss: Loss, scenario: Scenario
) -> float:
    """Average modeled risk of a rule over the dataset's features.

    Each term is the closed-form expected loss at (x, rule(x)) under the
    predictor's outcome probability there; no outcomes are read.
    """
    table = model_tables(data, pred, scenario, (loss,))[0]
    return float(rule_sums(table, rule_cells((rule,), scenario))[0] / data.n)


def required_sample_size(
    lmax: float, k: int, n_h: int, n_l: int, eps: float, delta: float
) -> int:
    """Samples sufficient for all (rule, loss) risk estimates at once.

    ceil(2 * lmax^2 * k^2 * log(2 * n_h * n_l / delta) / eps^2) ensures
    every one of the n_h * n_l inverse-propensity estimates lands within
    eps of its true risk with probability at least 1 - delta.
    """
    if not all(0 < v < math.inf for v in (lmax, k, n_h, n_l, eps)):
        raise ArgumentError("all size arguments must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ArgumentError(f"delta must lie in (0, 1), got {delta!r}")
    try:
        bound = 2.0 * lmax * lmax * k * k * math.log(2.0 * n_h * n_l / delta) / (eps * eps)
    except (OverflowError, ZeroDivisionError):  # an int past float range, eps^2 == 0
        bound = math.inf
    if not math.isfinite(bound):
        raise ArgumentError(
            f"required sample size for lmax={lmax!r}, eps={eps!r} is beyond float range"
        )
    return math.ceil(bound)


def _sample_lines(features: FeatureSpace, decisions: DecisionSpace) -> list[str]:
    """The canonical line of every (feature, decision, outcome) cell, at
    the cell's flat index: {"x":X,"yhat":Y,"y":0 or 1} and a newline,
    with X and Y quoted by json.dumps."""
    heads = ['{"x":' + json.dumps(x) + ',"yhat":' for x in features.points]
    middles = [json.dumps(yh) + ',"y":' for yh in decisions.labels]
    return [h + m + tail for h in heads for m in middles for tail in ("0}\n", "1}\n")]


def write_jsonl(data: RctDataset, path) -> None:
    """Write the dataset: one metadata line, then each sample's canonical
    line (_sample_lines); each block of lines is written as one join."""
    with open(path, "w", encoding="utf-8") as fh:
        meta = {
            "meta": {
                "scenario": data.meta.scenario,
                "seed": data.meta.seed,
                "n": data.meta.n,
                "gen": data.meta.gen,
            }
        }
        fh.write(json.dumps(meta, separators=(",", ":")) + "\n")
        lines = _sample_lines(data.features, data.decisions)
        cells = data.cells.tolist()
        for start in range(0, len(cells), _BLOCK_LINES):
            block = cells[start : start + _BLOCK_LINES]
            fh.write("".join(map(lines.__getitem__, block)))


def _is_count(value) -> bool:
    # bool is an int subclass and 2.0 == 2, so test the exact type
    return type(value) is int and value >= 0


def _read_meta(path, line: str, scenario: Scenario) -> Optional[RctMeta]:
    """The metadata of a file's first line, or None if it is no header.

    n must be a non-negative JSON integer, seed one too or null, and
    scenario and gen strings; nothing is coerced.
    """
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # too long an integer, too deep
        raise DataFormatError(f"{path}:1: invalid JSON: {exc}")
    if not (isinstance(obj, dict) and "meta" in obj):
        return None
    m = obj["meta"]
    try:
        meta = RctMeta(
            scenario=m["scenario"], seed=m.get("seed"), n=m["n"], gen=m["gen"]
        )
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}:1: bad metadata: {exc}")
    count = "a non-negative integer"
    for field, ok, want in (
        ("scenario", isinstance(meta.scenario, str), "a string"),
        ("seed", meta.seed is None or _is_count(meta.seed), count + " or null"),
        ("n", _is_count(meta.n), count),
        ("gen", isinstance(meta.gen, str), "a string"),
    ):
        if not ok:
            raise DataFormatError(
                f"{path}:1: bad metadata: {field} must be {want}, "
                f"got {getattr(meta, field)!r}"
            )
    if meta.scenario != scenario.name:
        raise DataFormatError(
            f"{path}:1: dataset was drawn for scenario "
            f"{meta.scenario!r}, not {scenario.name!r}"
        )
    return meta


def _sample_cell(path, lineno: int, raw: str, scenario: Scenario) -> int:
    """The flat cell index of one sample line, or -1 for a blank line; a
    bad line raises DataFormatError naming it."""
    line = raw.strip()
    if not line:
        return -1
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path}:{lineno}: invalid JSON: {exc}")
    if not isinstance(obj, dict):
        raise DataFormatError(f"{path}:{lineno}: sample must be an object")
    try:
        x, yh, y = obj["x"], obj["yhat"], obj["y"]
    except KeyError as exc:
        raise DataFormatError(f"{path}:{lineno}: missing key {exc}")
    x_index, y_index = scenario.arrays.x_index, scenario.arrays.y_index
    if not isinstance(x, str) or x not in x_index:
        raise DataFormatError(f"{path}:{lineno}: unknown feature {x!r}")
    if not isinstance(yh, str) or yh not in y_index:
        raise DataFormatError(f"{path}:{lineno}: unknown decision {yh!r}")
    # bool is an int subclass and 1.0 == 1, so test the exact type
    if type(y) is not int or y not in (0, 1):
        raise DataFormatError(
            f"{path}:{lineno}: outcome must be the integer 0 or 1, got {y!r}"
        )
    return (x_index[x] * scenario.k + y_index[yh]) * 2 + y


def read_jsonl(path, scenario: Scenario) -> RctDataset:
    """Read a dataset file, validating identifiers against the scenario.

    Malformed lines, unknown identifiers, outcomes other than the
    integers 0 and 1, and a malformed metadata line or one naming another
    scenario raise DataFormatError naming the 1-indexed line. The
    metadata line is optional; when present, its n must equal the number
    of samples, so a truncated file is rejected. An empty file yields an
    empty dataset, which the estimators reject.
    """
    table = _sample_lines(scenario.features, scenario.decisions)
    memo = dict(zip(table, range(len(table))))
    parts = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset file {path}: {exc}")
    try:
        with fh:
            first = fh.readline()
            meta = _read_meta(path, first, scenario)
            start = 1 if meta is None else 2
            block = [first] if first and meta is None else []
            block += islice(fh, _BLOCK_LINES - len(block))
            while block:
                if not memo.keys() >= set(block):
                    # in file order, so the first bad line is the one named
                    for lineno, line in enumerate(block, start=start):
                        if line not in memo:
                            memo[line] = _sample_cell(path, lineno, line, scenario)
                cells = np.fromiter(map(memo.__getitem__, block), np.intp, len(block))
                parts.append(cells)
                start += len(block)
                block = list(islice(fh, _BLOCK_LINES))
    except UnicodeDecodeError as exc:
        # a block is read before its lines are checked, so a bad byte can
        # surface before an earlier bad line; the file is refused either way
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None
    cells = np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
    cells = cells[cells >= 0]  # blank lines
    if meta is None:
        meta = RctMeta(scenario=scenario.name, seed=None, n=len(cells), gen="")
    elif meta.n != len(cells):
        raise DataFormatError(
            f"{path}: metadata declares n={meta.n} but the file holds "
            f"{len(cells)} samples"
        )
    return RctDataset(scenario.features, scenario.decisions, cells, meta)

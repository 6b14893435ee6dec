"""Randomized-trial data generation and off-policy risk estimation.

Data is drawn as independent triples: a feature from the input
distribution, a decision assigned uniformly at random, and a binary
outcome from the true outcome model at that (feature, decision) pair.
Because the assignment is uniform with known propensity 1/k, the risk
of any deterministic rule can be estimated from one such dataset by
inverse propensity scoring: average the realized losses on the samples
where the logged decision agrees with the rule, rescaled by k.

Model-side risks never sample modeled outcomes. The inner expectation
over a binary outcome has a closed form, so only unlabeled features are
needed for that side.

Randomness comes from a PCG64 bit generator consumed only through raw
uniform doubles (inverse-CDF sampling). That keeps generated files
byte-identical for a given seed across library versions; the scheme is
recorded in dataset metadata as the generator tag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import Hypothesis, Loss, Scenario
from .errors import ArgumentError, DataFormatError
from .predictor import prediction_matrix

GENERATOR_TAG = "pcg64-icdf-1"


class Column(tuple):
    """Immutable column of identifiers that carries its integer codes.

    codes is (vocabulary, indices): the distinct values in order of first
    appearance, and per entry the position of its value in the
    vocabulary. The estimators look rules and losses up once per
    vocabulary entry and gather over the indices, not once per sample.
    """

    @cached_property
    def codes(self) -> tuple[tuple[str, ...], np.ndarray]:
        index: dict[str, int] = {}
        indices = np.fromiter(
            (index.setdefault(v, len(index)) for v in self),
            dtype=np.intp,
            count=len(self),
        )
        return tuple(index), indices

    def slice(self, start: int, stop: int) -> "Column":
        """Contiguous part whose codes are views of this column's codes."""
        part = Column(self[start:stop])
        vocabulary, indices = self.codes
        part.__dict__["codes"] = (vocabulary, indices[start:stop])
        return part


def encode(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Codes of a sequence of identifiers; a Column computes them once."""
    column = values if isinstance(values, Column) else Column(values)
    return column.codes


@dataclass(frozen=True)
class RctMeta:
    scenario: str
    seed: Optional[int]
    n: int
    gen: str


@dataclass(frozen=True)
class RctDataset:
    """Column-oriented randomized-trial dataset with provenance metadata."""

    xs: tuple[str, ...]
    yhats: tuple[str, ...]
    ys: tuple[int, ...]
    meta: RctMeta

    def __post_init__(self):
        if not (len(self.xs) == len(self.yhats) == len(self.ys) == self.meta.n):
            raise ArgumentError("dataset columns and meta.n disagree on length")
        for name in ("xs", "yhats"):
            if not isinstance(getattr(self, name), Column):
                object.__setattr__(self, name, Column(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.meta.n

    @cached_property
    def outcomes(self) -> np.ndarray:
        """The outcome column as a 0/1 int8 array."""
        return np.array(self.ys, dtype=np.int8)

    def slice(self, start: int, stop: int) -> "RctDataset":
        """Contiguous sub-dataset; provenance is kept, n is adjusted.

        The slice's codes and outcomes are views of this dataset's.
        """
        xs = self.xs.slice(start, stop)
        meta = RctMeta(
            scenario=self.meta.scenario,
            seed=self.meta.seed,
            n=len(xs),
            gen=self.meta.gen,
        )
        part = RctDataset(
            xs=xs,
            yhats=self.yhats.slice(start, stop),
            ys=self.ys[start:stop],
            meta=meta,
        )
        part.__dict__["outcomes"] = self.outcomes[start:stop]
        return part


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
    x_idx = np.searchsorted(cum, rng.random(n), side="right")
    x_idx = np.minimum(x_idx, n_x - 1)
    yhat_idx = np.minimum((rng.random(n) * k).astype(np.int64), k - 1)
    y = (rng.random(n) < arrays.nature[x_idx, yhat_idx]).astype(np.int64)
    features = scenario.features.points
    labels = scenario.decisions.labels
    return RctDataset(
        xs=Column(features[i] for i in x_idx),
        yhats=Column(labels[j] for j in yhat_idx),
        ys=tuple(int(v) for v in y),
        meta=RctMeta(scenario=scenario.name, seed=int(seed), n=n, gen=GENERATOR_TAG),
    )


def ips_risk_estimate(data: RctDataset, h: Hypothesis, loss: Loss, k: int) -> float:
    """Inverse-propensity-scored risk of rule h from randomized-trial data.

    Returns (k/n) * sum of loss(x_i, yhat_i, y_i) over samples whose
    logged decision equals h(x_i). Unbiased for the rule's true risk
    because the uniform assignment gives every decision propensity 1/k.
    """
    if data.n == 0:
        raise ArgumentError("cannot estimate risk from an empty dataset")
    x_vocab, x_codes = data.xs.codes
    yhat_vocab, yhat_codes = data.yhats.codes
    logged = {yh: j for j, yh in enumerate(yhat_vocab)}
    chosen = [h.decide(x) for x in x_vocab]
    # per feature: the logged-decision code of h(x), or -1 if never logged
    chosen_code = np.array([logged.get(yh, -1) for yh in chosen], dtype=np.intp)
    # realized loss at (x, h(x)) for outcome 0 and 1; a row whose h(x) no
    # sample logged is never read, so its loss entry is not looked up
    realized = np.array(
        [
            (loss.values(x, yh, 0), loss.values(x, yh, 1))
            if yh in logged
            else (0.0, 0.0)
            for x, yh in zip(x_vocab, chosen)
        ],
        dtype=np.float64,
    )
    match = chosen_code[x_codes] == yhat_codes
    total = realized[x_codes[match], data.outcomes[match]]
    # fsum is correctly rounded, so the order of the terms does not matter
    return (k / data.n) * math.fsum(total.tolist())


def model_risk_estimate(
    xs: Sequence[str], pred, rule: Hypothesis, loss: Loss, scenario: Scenario
) -> float:
    """Average modeled risk of a rule over unlabeled features.

    Each term is the closed-form expected loss at (x, rule(x)) under the
    predictor's outcome probability there; no outcomes are sampled.
    """
    if len(xs) == 0:
        raise ArgumentError("cannot estimate model risk from empty features")
    matrix = prediction_matrix(pred, scenario)
    arrays = scenario.arrays
    base, delta = arrays.loss_arrays(loss)
    vocab, codes = encode(xs)
    x_idx = np.fromiter(
        (arrays.x_index[x] for x in vocab), dtype=np.intp, count=len(vocab)
    )
    chosen = arrays.rule_indices(rule)[x_idx]
    per_x = base[x_idx, chosen] + delta[x_idx, chosen] * matrix[x_idx, chosen]
    return float(np.add.reduce(per_x[codes]) / len(xs))


def required_sample_size(
    lmax: float, k: int, n_h: int, n_l: int, eps: float, delta: float
) -> int:
    """Samples sufficient for all (rule, loss) risk estimates at once.

    ceil(2 * lmax^2 * k^2 * log(2 * n_h * n_l / delta) / eps^2) ensures
    every one of the n_h * n_l inverse-propensity estimates lands within
    eps of its true risk with probability at least 1 - delta.
    """
    if min(lmax, k, n_h, n_l, eps) <= 0:
        raise ArgumentError("all size arguments must be positive")
    if not 0.0 < delta < 1.0:
        raise ArgumentError(f"delta must lie in (0, 1), got {delta!r}")
    bound = 2.0 * lmax * lmax * k * k * math.log(2.0 * n_h * n_l / delta) / (eps * eps)
    return math.ceil(bound)


def write_jsonl(data: RctDataset, path) -> None:
    """Write the dataset: one metadata line, then one object per sample."""
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
        for x, yh, y in zip(data.xs, data.yhats, data.ys):
            fh.write(
                json.dumps({"x": x, "yhat": yh, "y": y}, separators=(",", ":")) + "\n"
            )


def read_jsonl(path, scenario: Scenario) -> RctDataset:
    """Read a dataset file, validating identifiers against the scenario.

    Malformed lines, unknown identifiers, outcomes other than the
    integers 0 and 1, and a metadata line naming another scenario raise
    DataFormatError naming the 1-indexed line. The metadata line is
    optional; when present, its n must equal the number of samples, so
    a truncated file is rejected. An empty file yields an empty dataset,
    which the estimators reject.
    """
    xs: list[str] = []
    yhats: list[str] = []
    ys: list[int] = []
    meta = None
    features = set(scenario.features.points)
    labels = set(scenario.decisions.labels)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset file {path}: {exc}")
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON: {exc}")
            if lineno == 1 and isinstance(obj, dict) and "meta" in obj:
                m = obj["meta"]
                try:
                    meta = RctMeta(
                        scenario=str(m["scenario"]),
                        seed=None if m.get("seed") is None else int(m["seed"]),
                        n=int(m["n"]),
                        gen=str(m["gen"]),
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise DataFormatError(f"{path}:1: bad metadata: {exc}")
                if meta.scenario != scenario.name:
                    raise DataFormatError(
                        f"{path}:1: dataset was drawn for scenario "
                        f"{meta.scenario!r}, not {scenario.name!r}"
                    )
                continue
            if not isinstance(obj, dict):
                raise DataFormatError(f"{path}:{lineno}: sample must be an object")
            try:
                x, yh, y = str(obj["x"]), str(obj["yhat"]), obj["y"]
            except KeyError as exc:
                raise DataFormatError(f"{path}:{lineno}: missing key {exc}")
            if x not in features:
                raise DataFormatError(f"{path}:{lineno}: unknown feature {x!r}")
            if yh not in labels:
                raise DataFormatError(f"{path}:{lineno}: unknown decision {yh!r}")
            # bool is an int subclass and 1.0 == 1, so test the exact type
            if type(y) is not int or y not in (0, 1):
                raise DataFormatError(
                    f"{path}:{lineno}: outcome must be the integer 0 or 1, "
                    f"got {y!r}"
                )
            xs.append(x)
            yhats.append(yh)
            ys.append(y)
    if meta is None:
        meta = RctMeta(scenario=scenario.name, seed=None, n=len(xs), gen="")
    elif meta.n != len(xs):
        raise DataFormatError(
            f"{path}: metadata declares n={meta.n} but the file holds "
            f"{len(xs)} samples"
        )
    return RctDataset(xs=Column(xs), yhats=Column(yhats), ys=tuple(ys), meta=meta)

"""Seeded scenario generator for the adversarial benchmark family.

Random scenarios average their audit errors away, so training stops
after zero updates. This family keeps real gaps for the trainer to close:

* input masses are U + 0.1, normalized;
* Nature's probability at every (feature, decision) cell is
  0.5 + 0.45 * sign(N(0, 1)) * U, far from the uninformed 1/2;
* the losses are steer_to_one, steer_to_zero, then random
  input-oblivious losses;
* the hypotheses are the Nature-optimal rule of each loss, padded with
  uniformly random rules;
* optional weight functions are positive random values rescaled to unit
  mean under the input distribution.

The same (sizes, seed) always gives the same document. The random
losses come from a fixed stream, not from the seed: each is only 2k
numbers, and they alone set how many updates training needs (the
update count spread by a third across seeds when the seed drew them,
and by a few percent with the feature-level draws alone). The seed draws
everything indexed by feature: masses, Nature, the padding rules and
the weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


LOSS_STREAM = 2210_01745


@dataclass(frozen=True)
class Sizes:
    n_x: int
    k: int
    n_losses: int
    n_hypotheses: int
    epsilon: float
    n_weights: int = 0


def generate(name: str, sizes: Sizes, seed: int) -> dict:
    """Scenario document in the package's JSON form."""
    if sizes.n_losses < 2 or sizes.n_hypotheses < sizes.n_losses:
        raise ValueError("need at least 2 losses and one hypothesis per loss")
    rng = np.random.Generator(np.random.PCG64(seed))
    n_x, k = sizes.n_x, sizes.k
    xs = [f"x{i}" for i in range(n_x)]
    ys = [f"d{j}" for j in range(k)]

    raw = rng.random(n_x) + 0.1
    masses = raw / raw.sum()
    nature = np.round(
        0.5 + 0.45 * np.sign(rng.standard_normal((n_x, k))) * rng.random((n_x, k)), 6
    )

    # Per-decision (value at y=0, value at y=1); the first two are the
    # builtin steering losses, the rest are random and input-oblivious.
    loss_rng = np.random.Generator(np.random.PCG64(LOSS_STREAM))
    per_decision = [np.tile([1.0, 0.0], (k, 1)), np.tile([0.0, 1.0], (k, 1))]
    per_decision += [
        np.round(loss_rng.random((k, 2)), 4) for _ in range(sizes.n_losses - 2)
    ]
    losses = [{"builtin": "steer_to_one"}, {"builtin": "steer_to_zero"}]
    for i, values in enumerate(per_decision[2:]):
        row = {y: [float(values[j, 0]), float(values[j, 1])] for j, y in enumerate(ys)}
        losses.append(
            {"name": f"rand{i}", "lmax": 1.0, "table": {x: row for x in xs}}
        )

    rules = []
    for values in per_decision:
        expected = values[:, 0] + (values[:, 1] - values[:, 0]) * nature
        rules.append(np.argmin(expected, axis=1))
    for _ in range(sizes.n_hypotheses - sizes.n_losses):
        rules.append(rng.integers(0, k, size=n_x))
    hypotheses = [
        {
            "name": (f"opt{i}" if i < sizes.n_losses else f"rnd{i}"),
            "map": {x: ys[int(j)] for x, j in zip(xs, rule)},
        }
        for i, rule in enumerate(rules)
    ]

    doc = {
        "name": name,
        "features": xs,
        "decisions": ys,
        "input_distribution": {x: float(m) for x, m in zip(xs, masses)},
        "nature": {
            x: {y: float(nature[i, j]) for j, y in enumerate(ys)}
            for i, x in enumerate(xs)
        },
        "losses": losses,
        "hypotheses": hypotheses,
        "epsilon": float(sizes.epsilon),
    }
    if sizes.n_weights:
        weights = []
        for i in range(sizes.n_weights):
            w = rng.random(n_x) + 0.1
            w = w / float(np.dot(masses, w))
            weights.append(
                {
                    "name": f"w{i}",
                    "map": {x: float(v) for x, v in zip(xs, w)},
                    "wmax": float(w.max()),
                }
            )
        doc["weights"] = weights
    return doc


def write(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

"""Shared generators for randomized test scenarios.

All generators take an explicit numpy Generator so individual tests pin
their own seeds. Declared loss bounds are 1.0 throughout; tables are
drawn inside [0, 1] so the declared bound is honest.
"""

import numpy as np
import pytest

import omnipredict as om

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_scenario(rng, max_x=8, max_k=4, n_losses=(1, 3), n_hyps=(2, 4),
                    eps_lo=0.08, eps_hi=0.3, name="rand"):
    """Random finite scenario with unit loss bounds.

    Feature masses are bounded away from zero so every point matters to
    the audits; decision counts start at 2 because a single decision
    makes every rule identical.
    """
    n_x = int(rng.integers(2, max_x + 1))
    k = int(rng.integers(2, max_k + 1))
    features = om.FeatureSpace(points=tuple(f"x{i}" for i in range(n_x)))
    decisions = om.DecisionSpace(labels=tuple(f"d{j}" for j in range(k)))
    raw = rng.random(n_x) + 0.1
    masses = raw / raw.sum()
    dist = om.InputDistribution(
        probabilities={x: float(m) for x, m in zip(features.points, masses)}
    )
    nature = om.NatureModel(
        table={
            x: {y: float(rng.random()) for y in decisions.labels}
            for x in features.points
        }
    )
    losses = tuple(
        om.Loss(
            name=f"l{li}",
            lmax=1.0,
            table={
                x: {
                    y: (float(rng.random()), float(rng.random()))
                    for y in decisions.labels
                }
                for x in features.points
            },
            input_oblivious=False,
        )
        for li in range(int(rng.integers(n_losses[0], n_losses[1] + 1)))
    )
    hyps = tuple(
        om.Hypothesis(
            name=f"h{hi}",
            mapping={x: decisions.labels[int(rng.integers(0, k))] for x in features.points},
        )
        for hi in range(int(rng.integers(n_hyps[0], n_hyps[1] + 1)))
    )
    eps = float(rng.uniform(eps_lo, eps_hi))
    return om.Scenario(
        name=name,
        features=features,
        decisions=decisions,
        input_distribution=dist,
        nature=nature,
        losses=losses,
        hypotheses=hyps,
        epsilon=eps,
    )


def random_matrix(rng, scenario):
    n_x = len(scenario.features.points)
    return rng.random((n_x, scenario.k))


def dyadic_scenario_and_data(rng, name="dyadic"):
    """Scenario plus a dataset whose empirical law equals the population law.

    Everything is a dyadic rational (masses i/4, probabilities and loss
    values i/16) and each (feature, decision) cell holds exactly
    16 * mass * 4 samples with the exact expected count of positive
    outcomes, so cost-sensitive sample means reproduce population
    quantities with no rounding at all.
    """
    n_x = int(rng.integers(2, 5))
    parts = np.ones(n_x, dtype=int)
    for _ in range(4 - n_x):
        parts[int(rng.integers(0, n_x))] += 1
    features = om.FeatureSpace(points=tuple(f"x{i}" for i in range(n_x)))
    decisions = om.DecisionSpace(labels=("d0", "d1"))
    dist = om.InputDistribution(
        probabilities={x: int(a) / 4.0 for x, a in zip(features.points, parts)}
    )
    nature = om.NatureModel(
        table={
            x: {y: int(rng.integers(0, 17)) / 16.0 for y in decisions.labels}
            for x in features.points
        }
    )
    losses = tuple(
        om.Loss(
            name=f"l{li}",
            lmax=1.0,
            table={
                x: {
                    y: (
                        int(rng.integers(0, 17)) / 16.0,
                        int(rng.integers(0, 17)) / 16.0,
                    )
                    for y in decisions.labels
                }
                for x in features.points
            },
            input_oblivious=False,
        )
        for li in range(int(rng.integers(1, 3)))
    )
    hyps = tuple(
        om.Hypothesis(
            name=f"h{hi}",
            mapping={x: decisions.labels[int(rng.integers(0, 2))] for x in features.points},
        )
        for hi in range(int(rng.integers(2, 5)))
    )
    eps = int(rng.integers(2, 7)) / 16.0
    scenario = om.Scenario(
        name=name,
        features=features,
        decisions=decisions,
        input_distribution=dist,
        nature=nature,
        losses=losses,
        hypotheses=hyps,
        epsilon=eps,
    )
    xs, yhats, ys = [], [], []
    for x, a in zip(features.points, parts):
        cell = 16 * int(a)
        for y in decisions.labels:
            ones = round(cell * nature.table[x][y])  # exact: cell * (i/16) is integral
            for i in range(cell):
                xs.append(x)
                yhats.append(y)
                ys.append(1 if i < ones else 0)
    meta = om.RctMeta(scenario=name, seed=None, n=len(xs), gen=om.GENERATOR_TAG)
    data = om.RctDataset(xs=tuple(xs), yhats=tuple(yhats), ys=tuple(ys), meta=meta)
    matrix = np.array(
        [[int(v) / 16.0 for v in rng.integers(0, 17, size=2)] for _ in range(n_x)]
    )
    return scenario, data, matrix


def partial_trial_data(rng, scenario, n):
    """Seeded random trial rows that leave out one feature and one decision.

    Features and decisions are drawn uniformly from all but one randomly
    chosen feature and one randomly chosen decision, so the kernels meet
    features missing from the data and a decision no sample logged.
    Returns the dataset and the decision left out.
    """
    pts = scenario.features.points
    labels = scenario.decisions.labels
    skip_x = int(rng.integers(0, len(pts)))
    skip_y = int(rng.integers(0, len(labels)))
    present = [x for i, x in enumerate(pts) if i != skip_x]
    logged = [y for j, y in enumerate(labels) if j != skip_y]
    xs = tuple(present[int(i)] for i in rng.integers(0, len(present), size=n))
    yhats = tuple(logged[int(j)] for j in rng.integers(0, len(logged), size=n))
    ys = tuple(int(v) for v in rng.integers(0, 2, size=n))
    meta = om.RctMeta(scenario=scenario.name, seed=None, n=n, gen="partial")
    data = om.RctDataset(xs=xs, yhats=yhats, ys=ys, meta=meta)
    return data, labels[skip_y]


def near_nature_matrix(rng, scenario, gap=0.019):
    """Prediction matrix within `gap` of the true outcome model everywhere."""
    pts = scenario.features.points
    labels = scenario.decisions.labels
    q = np.array([[scenario.nature.table[x][y] for y in labels] for x in pts])
    shift = rng.uniform(-gap, gap, size=q.shape)
    return np.clip(q + shift, 0.0, 1.0)


def io_loss_scenario(rng, n_losses, name="io-rand"):
    """Random scenario whose losses are all input-oblivious, k = 2."""
    n_x = int(rng.integers(2, 9))
    features = om.FeatureSpace(points=tuple(f"x{i}" for i in range(n_x)))
    decisions = om.DecisionSpace(labels=("d0", "d1"))
    raw = rng.random(n_x) + 0.1
    masses = raw / raw.sum()
    dist = om.InputDistribution(
        probabilities={x: float(m) for x, m in zip(features.points, masses)}
    )
    nature = om.NatureModel(
        table={
            x: {y: float(rng.random()) for y in decisions.labels}
            for x in features.points
        }
    )
    losses = tuple(
        om.io_loss(
            f"io{i}",
            1.0,
            {y: (float(rng.random()), float(rng.random())) for y in decisions.labels},
            features,
        )
        for i in range(n_losses)
    )
    hyps = tuple(
        om.Hypothesis(
            name=f"h{hi}",
            mapping={x: decisions.labels[int(rng.integers(0, 2))] for x in features.points},
        )
        for hi in range(int(rng.integers(2, 5)))
    )
    return om.Scenario(
        name=name,
        features=features,
        decisions=decisions,
        input_distribution=dist,
        nature=nature,
        losses=losses,
        hypotheses=hyps,
        epsilon=0.04,
    )


def all_rules(scenario):
    """Every deterministic decision rule on the scenario's feature space."""
    import itertools

    pts = scenario.features.points
    labels = scenario.decisions.labels
    for combo in itertools.product(labels, repeat=len(pts)):
        yield om.Hypothesis(
            name="r:" + ",".join(combo), mapping=dict(zip(pts, combo))
        )


@pytest.fixture(scope="session")
def beta_scenario():
    return om.make_beta_scenario(0.25)


@pytest.fixture(scope="session")
def beta_nature_matrix(beta_scenario):
    pts = beta_scenario.features.points
    labels = beta_scenario.decisions.labels
    return np.array(
        [[beta_scenario.nature.table[x][y] for y in labels] for x in pts]
    )

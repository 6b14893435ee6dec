"""Byte parity of every command's output between two source trees.

    python tests/output_parity.py TREE_A TREE_B

runs one fixed command set twice, once with each tree's package
(TREE/src on PYTHONPATH, a fresh interpreter per command, no bytecode
written), and compares every stdout, stderr, exit code and written file.
It prints each difference and exits 1 if there is one, else 0; with the
same tree twice it checks that every command is byte-deterministic.

The inputs are shared by both runs: this checkout's scenarios/*.json,
the benchmark's three seed-1 workload scenarios, built through
perfbench/gen.py (read only), and copies of beta025.json made faulty in
four ways. On each scenario the set runs scenario-show, exact train,
audit and eval; rct-gen, empirical and CSC train and audit on all but
exact-large; train --adapt, adapt-verify and eval --shift and --mixture
where there are weights; and a few refusals. Needs numpy.
"""

import copy
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Each benchmark workload's sizes in perfbench/run.py and the scenario
# seed of a --seed 1 run (trial-data's is fixed at 0).
WORKLOADS = {
    "exact-large": (dict(n_x=4000, k=4, n_losses=8, n_hypotheses=64, epsilon=0.02), 1),
    "trial-data": (dict(n_x=200, k=4, n_losses=4, n_hypotheses=16, epsilon=0.05), 0),
    "adapt-serve": (dict(n_x=500, k=3, n_losses=4, n_hypotheses=32, epsilon=0.05,
                         n_weights=4), 1),
}

COMMAND_TIMEOUT_S = 300


def faulty(doc: dict) -> dict:
    """Copies of doc, by name, each with one fault its load refuses."""
    x, y = doc["features"][0], doc["decisions"][0]
    docs = {name: copy.deepcopy(doc) for name in
            ("unknown-label", "number-label", "missing-cell", "nature-range")}
    docs["unknown-label"]["hypotheses"][0]["map"][x] = "no-such-label"
    docs["number-label"]["hypotheses"][0]["map"][x] = 1
    del docs["missing-cell"]["nature"][x][y]
    docs["nature-range"]["nature"][x][y] = 1.5
    return docs


def write_inputs(directory: Path) -> dict:
    """Writes every input scenario to directory; returns name -> document
    of those that load."""
    scenarios = {}
    for path in sorted(REPO.glob("scenarios/*.json")):
        (directory / path.name).write_bytes(path.read_bytes())
        scenarios[path.stem] = json.loads(path.read_text())
    gen = runpy.run_path(str(REPO / "perfbench" / "gen.py"))
    for name, (sizes, seed) in WORKLOADS.items():
        scenarios[name] = gen["generate"](f"{name}-{seed}", gen["Sizes"](**sizes), seed)
        gen["write"](scenarios[name], directory / f"{name}.json")
    for name, doc in faulty(scenarios["beta025"]).items():
        (directory / f"{name}.json").write_text(json.dumps(doc, indent=2))
    return scenarios


def commands(scenarios: dict) -> list:
    """The argv of every command, in order; inputs are read from ../inputs."""
    argvs = []
    for name, doc in scenarios.items():
        config = ["--config", f"../inputs/{name}.json"]
        eps, model = doc["epsilon"], f"{name}.exact.json"
        argvs += [
            ["scenario-show", *config],
            ["train", *config, "--epsilon", repr(eps), "--out", model],
            ["audit", *config, "--model", model],
            ["audit", *config, "--model", model, "--epsilon", repr(eps / 2)],
            ["eval", *config, "--model", model, "--out", f"{name}.exact.csv"],
        ]
        if name != "exact-large":
            data = f"{name}.rct.jsonl"
            argvs.append(["rct-gen", *config, "--n", "3000", "--seed", "1", "--out", data])
            for mode in ("empirical", "csc"):
                argvs += [
                    ["train", *config, "--mode", mode, "--epsilon", repr(2 * eps),
                     "--data", data, "--doi-n", "200", "--out", f"{name}.{mode}.json"],
                    ["audit", *config, "--mode", mode, "--model", model, "--data", data,
                     "--epsilon", repr(2 * eps)],
                ]
        if doc.get("weights"):
            first, last = doc["weights"][0]["name"], doc["weights"][-1]["name"]
            adapt = f"{name}.adapt.json"
            argvs += [
                ["train", *config, "--epsilon", repr(eps), "--adapt", "--out", adapt],
                ["adapt-verify", *config, "--model", model],
                ["adapt-verify", *config, "--model", adapt, "--mixtures", "20", "--seed", "3"],
                ["eval", *config, "--model", adapt, "--shift", first,
                 "--out", f"{name}.shift.csv"],
                ["eval", *config, "--model", model, "--mixture", f"{first}:0.25,{last}:0.75",
                 "--out", f"{name}.mixture.csv"],
            ]
    for name in [*faulty(scenarios["beta025"]), "missing-file"]:
        argvs.append(["scenario-show", "--config", f"../inputs/{name}.json"])
    argvs.append(["audit", "--config", "../inputs/beta025.json", "--model", "missing.json"])
    return argvs


def run(tree: Path, directory: Path, argvs: list) -> tuple[list, dict]:
    """(exit code, stdout, stderr) of each command run in directory with
    tree's package, and the files the commands left there, by name."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    results = []
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "omnipredict", *argv], cwd=directory,
                              env=env, capture_output=True, timeout=COMMAND_TIMEOUT_S)
        results.append((done.returncode, done.stdout, done.stderr))
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return results, files


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/output_parity.py TREE_A TREE_B", file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in argv]
    for tree in trees:
        if not (tree / "src" / "omnipredict" / "cli.py").is_file():
            print(f"error: no package source at {tree / 'src' / 'omnipredict'}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "inputs").mkdir()
        argvs = commands(write_inputs(root / "inputs"))
        runs = []
        for side, tree in zip("ab", trees):
            (root / side).mkdir()
            runs.append(run(tree, root / side, argvs))
    (results_a, files_a), (results_b, files_b) = runs
    differences = []
    for argv, a, b in zip(argvs, results_a, results_b):
        for what, got_a, got_b in zip(("exit code", "stdout", "stderr"), a, b):
            if got_a != got_b:
                differences.append(f"{what} of `{' '.join(argv)}`")
    for name in sorted(files_a.keys() | files_b.keys()):
        if files_a.get(name) != files_b.get(name):
            differences.append(f"file {name}")
    for line in differences:
        print(f"differs: {line}")
    codes = sorted({code for code, _, _ in results_a})
    print(f"{len(argvs)} commands (exit codes {codes}) and {len(files_a)} files: "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

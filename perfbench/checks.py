"""Output checks for benchmark commands.

Every function returns a list of problems; an empty list means the
output is correct. A command whose checks return any problem counts as
a failed operation. A verdict is not a problem: an estimated-mode audit
that exits 3 and prints "pass": false has done its job.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

EXIT_OK = 0
EXIT_FAIL = 3

POTENTIAL_GRACE = 1e-12
_CONVERGED = re.compile(r"^converged after (\d+) updates; model written to ", re.M)


def iteration_bound(k: int, lmax: float, eps: float) -> int:
    """The proven bound ceil(k * lmax^2 / eps^2) on exact updates."""
    return math.ceil(k * lmax * lmax / (eps * eps))


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def check_process(code: int, stderr: str, expected=(EXIT_OK,)) -> list[str]:
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if code not in expected:
        tail = stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {code}, expected {list(expected)}: {tail[0]}")
    return problems


def check_files(paths) -> list[str]:
    return [f"missing artifact {Path(p).name}" for p in paths if not Path(p).is_file()]


def check_show(stdout: str, n_x: int, k: int, n_losses: int, n_h: int) -> list[str]:
    want = [
        f"features ({n_x}):",
        f"decisions ({k}):",
        f"losses ({n_losses}):",
        f"hypotheses ({n_h}):",
    ]
    return [f"scenario-show lacks {w!r}" for w in want if w not in stdout]


def check_rct(stdout: str, path, n: int) -> list[str]:
    if f"wrote {n} samples to " not in stdout:
        return [f"rct-gen did not report {n} samples"]
    with open(path, "rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != n + 1:
        return [f"rct-gen wrote {lines} lines, expected {n + 1}"]
    return []


def train_updates(stdout: str) -> int | None:
    m = _CONVERGED.search(stdout)
    return int(m.group(1)) if m else None


def read_trace(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_exact_trace(records, p0: float, eps: float, lmax: float, k: int) -> list[str]:
    """Each exact update must lower the potential by eps^2 / lmax^2.

    p0 is the potential of the all-1/2 predictor. The update count must
    stay within the proven iteration bound.
    """
    problems = []
    bound = iteration_bound(k, lmax, eps)
    if len(records) > bound:
        problems.append(f"{len(records)} updates exceed the bound {bound}")
    need = eps * eps / (lmax * lmax) - POTENTIAL_GRACE
    prev = p0
    for r in records:
        pot = r.get("potential")
        if not isinstance(pot, (int, float)):
            problems.append(f"update {r.get('t')} has no potential")
            break
        if prev - pot < need:
            problems.append(
                f"update {r.get('t')} lowered the potential by {prev - pot!r}, "
                f"less than {need!r}"
            )
            break
        prev = pot
    return problems


def check_train(stdout: str, trace_path) -> tuple[list[str], int | None]:
    """A finished train reports convergence and one trace line per update."""
    updates = train_updates(stdout)
    if updates is None:
        return ["train did not report convergence"], None
    lines = len(read_trace(trace_path))
    if lines != updates:
        return [f"trace has {lines} lines for {updates} updates"], updates
    return [], updates


def check_same_bytes(a, b) -> list[str]:
    if Path(a).read_bytes() != Path(b).read_bytes():
        return [f"{Path(b).name} differs from {Path(a).name}"]
    return []


def parse_report(stdout: str):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and isinstance(doc.get("pass"), bool) else None


def check_verdict(code: int, stdout: str) -> list[str]:
    """Exit 0 must come with "pass": true and exit 3 with "pass": false."""
    doc = parse_report(stdout)
    if doc is None:
        return ["report is not a JSON object with a pass verdict"]
    want = EXIT_OK if doc["pass"] else EXIT_FAIL
    if code != want:
        return [f"exit code {code} disagrees with pass={doc['pass']}"]
    return []


def max_exact_err(stdout: str) -> float:
    """Largest |err| over the rule and decision targets of an audit report."""
    doc = json.loads(stdout)
    errs = [abs(t["err"]) for part in ("poi", "doi") for t in doc[part]["targets"]]
    return max(errs)


def check_exact_audit(code: int, stdout: str, n_targets: int) -> list[str]:
    """An exact audit of an exact-trained model must pass every target."""
    problems = check_verdict(code, stdout)
    if problems:
        return problems
    doc = parse_report(stdout)
    if not doc["pass"]:
        return ["exact audit of an exact-trained model failed"]
    got = len(doc["poi"]["targets"]) + len(doc["doi"]["targets"])
    if got != n_targets:
        return [f"audit reported {got} targets, expected {n_targets}"]
    return []


def check_eval(path, n_rows: int) -> list[str]:
    """Row count, and every induced rule within 2 eps on its own loss."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != n_rows:
        problems.append(f"eval wrote {len(rows)} rows, expected {n_rows}")
    for row in rows:
        if row.get("optimal_within_2eps") == "false":
            problems.append(f"{row['rule']} is not 2eps-optimal for {row['loss']}")
    return problems


def check_adapt_verify(code: int, stdout: str, n_dists: int) -> list[str]:
    problems = check_verdict(code, stdout)
    if problems:
        return problems
    doc = parse_report(stdout)
    if not doc["pass"]:
        return ["adapt-verify failed on an adapt-trained model"]
    if not doc.get("rule_invariance", {}).get("pass", False):
        return ["induced rules moved under a weight shift"]
    if len(doc.get("distributions", [])) != n_dists:
        return [f"adapt-verify checked {len(doc['distributions'])} distributions"]
    return []


def check_calibrate(stdout: str, n_h: int, k: int) -> list[str]:
    try:
        doc = json.loads(stdout)
        dc = doc["decision_calibration"]["targets"]
        ma = doc["multiaccuracy"]["targets"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return ["calibrate output lacks its two reports"]
    problems = []
    if len(dc) != k:
        problems.append(f"decision calibration has {len(dc)} targets, expected {k}")
    if len(ma) != n_h * k:
        problems.append(f"multiaccuracy has {len(ma)} targets, expected {n_h * k}")
    if not all(math.isfinite(t["err"]) for t in dc + ma):
        problems.append("calibrate reported a non-finite err")
    return problems


def op_fail_rate(problem_lists) -> float:
    """Failed operations over attempted ones; one list per operation."""
    problem_lists = list(problem_lists)
    if not problem_lists:
        raise ValueError("no operations were attempted")
    return sum(1 for p in problem_lists if p) / len(problem_lists)

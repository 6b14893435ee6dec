"""Benchmark of the omnipredict command line on three seeded workloads.

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: CLI commands run back
to back, every one in a fresh interpreter with src/ on PYTHONPATH, as a
user would run them. The inputs are generated from --seed, written to a
scratch directory in the checkout, and the scenario is loaded with
load_scenario before any timing, so a malformed workload fails before it
is measured. Every command's output is checked (see checks.py); a
command with any problem is a failed operation.

A run first starts SETUP_REPS fresh `scenario-show` processes (the
set-up time), then repeats the workload's command cycle while another
cycle still fits in --seconds (at least one). In an untraced run every
command is followed by reference.py, a fixed task in a fresh
interpreter, and each command's time is divided by the mean time of the
reference runs just before and after it. Train, audit and cycle times
are medians of these ratios, in units of the reference task ("ref"), so
a host that runs everything slower for a while does not read as a slower
program (see README). The set-up time is reported the same way, scaled
to seconds by the reference's nominal time, REF_NOMINAL_S.

With --trace 1 the loop alternates an untraced and a traced cycle and
reports the per-layer metrics of layers.py, taken from spans that
traced.py records around the package's public functions, plus the
tracing overhead. End-to-end metrics come only from untraced runs.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. `--workload all` runs every workload in turn and prints
each one's table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import layers
from gen import Sizes, generate, write

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CLI_BOOT = "import sys; from omnipredict.cli import main; sys.exit(main(sys.argv[1:]))"

SETUP_REPS = 5
COMMAND_TIMEOUT_S = 150
RCT_N = 24_000
# trial-data trains on a fixed scenario and training set; --seed draws
# the held-out set. Estimated training stops when noisy estimates clear
# eps, so its update count, and with it the CSC trainer's time (2.1 to
# 4.4 s), followed the drawn data: 9 to 12 updates over ten seeds.
TRAIN_SEED = 0
# Fresh samples per decision audit in estimated training. With the CLI
# default, (RCT_N / 2) / 64 = 187, the audit's noise exceeds eps, so
# spurious violations made the update count and train time a matter of
# the seed. 2000 samples keep the noise below eps and leave room for six
# decision audits; across 20 seeds training used at most four.
DOI_N = 2000
MIXTURES = 20
# An adapt-serve cycle of a --trace 0 run trains this many times. One
# train --adapt takes about 0.4 s, mostly interpreter start, so once per
# cycle gave a run only four or five samples of it, and its median
# spread by 0.17 over five seeds on a busy host.
ADAPT_TRAIN_REPS = 3
# setup_s is the set-up's ratio to the reference task times this, the
# reference's median wall time on the machine described in the README:
# seconds at that host speed. In raw wall seconds the median of ten runs
# moved by up to 24% between consecutive sets of runs of the same code.
REF_NOMINAL_S = 0.33


@dataclass(frozen=True)
class Workload:
    sizes: Sizes
    why: str
    train: tuple[str, ...]  # command kinds summed into train_s
    audit: tuple[str, ...]  # command kinds summed into audit_s
    scenario_seed: int | None = None  # fixed scenario; None draws it from --seed
    # Kinds that are timed and printed but left out of every summed metric.
    ungated: tuple[str, ...] = ()


WORKLOADS = {
    "exact-large": Workload(
        Sizes(n_x=4000, k=4, n_losses=8, n_hypotheses=64, epsilon=0.02),
        "write path: scenario set-up and the exact err kernels do the work",
        train=("train_exact_s",),
        audit=("audit_exact_s",),
        # Two threads on a 2-core shared host wait on the other core: its
        # run medians ranged 1.8 to 3.1 s where one thread's ranged 1.8
        # to 2.4 s, and with it the spread of train and cycle times over
        # ten seeds reached 0.24. A --trace 0 run runs it once, for its
        # byte-identity check.
        ungated=("train_exact_t2_s",),
    ),
    "trial-data": Workload(
        Sizes(n_x=200, k=4, n_losses=4, n_hypotheses=16, epsilon=0.05),
        "per-sample estimation from trial data; scenario set-up is negligible",
        train=("train_empirical_s", "train_csc_s"),
        audit=("audit_empirical_s", "audit_csc_s"),
        scenario_seed=TRAIN_SEED,
    ),
    "adapt-serve": Workload(
        Sizes(n_x=500, k=3, n_losses=4, n_hypotheses=32, epsilon=0.05, n_weights=4),
        "train once, query many times: every query replays the model",
        train=("train_exact_s",),
        # Every query checks the trained model against some target. The
        # exact audit alone takes about 0.4 s, mostly interpreter start.
        audit=("audit_exact_s", "eval_s", "adapt_verify_s", "calibrate_s"),
    ),
}

# End-to-end metrics of the final JSON line: every workload has each.
END_TO_END = {
    "setup_s": "s",
    "train_ref": "ref",
    "audit_ref": "ref",
    "cycle_ref": "ref",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    """One command run: its timing, peak memory, problems and spans."""

    kind: str
    seconds: float
    rss_mb: float
    problems: list[str]
    spans: dict | None = None
    ref: float | None = None  # mean reference time around the command


def spawn(cmd, cwd: Path, env: dict, out_path: Path, err_path: Path):
    """Run cmd to completion; returns (exit code, wall seconds, peak RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


class Session:
    """Runs and checks the commands of one benchmark run."""

    def __init__(self, name: str, workload: Workload, seed: int, workdir: Path):
        from omnipredict.core import load_scenario

        self.name = name
        self.workload = workload
        self.sizes = workload.sizes
        self.seed = seed
        self.dir = workdir
        self.traced = False
        self.paired = False  # follow every command with the reference task
        self.seen: set[str] = set()
        self.ops: list[Op] = []
        self.first_digest: dict[str, str] = {}
        # train kind -> (updates, iteration bound, |H| * |L| cells per audit)
        self.updates: dict[str, tuple[int, int, int]] = {}
        self.gaps: dict[str, float] = {}  # model file -> max exact |err| / eps
        self.verdicts: dict[str, bool] = {}
        self.refs: list[float] = []  # reference.py wall seconds
        self.env = dict(os.environ)
        self.env.pop("OMNI_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        scenario_seed = seed if workload.scenario_seed is None else workload.scenario_seed
        doc = generate(f"{name}-{scenario_seed}", self.sizes, scenario_seed)
        write(doc, workdir / "scenario.json")
        self.scenario = load_scenario(workdir / "scenario.json")
        arrays = self.scenario.arrays
        self.p0 = float(((0.5 - arrays.nature) ** 2).sum(axis=1) @ arrays.dist)
        self.eps = self.sizes.epsilon

    def run(self, kind, argv, *, entry="cli", outputs=(), expect=(0,), check=None):
        """Run one command; record its time, memory and problems."""
        for p in outputs:
            (self.dir / p).unlink(missing_ok=True)
        spans_path = self.dir / "spans.json"
        if self.traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), entry]
        elif entry == "cli":
            cmd = [sys.executable, "-c", CLI_BOOT]
        else:
            cmd = [sys.executable, str(HERE / f"{entry}.py")]
        out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        code, seconds, rss = spawn(cmd + argv, self.dir, self.env, out_path, err_path)
        ref = (self.refs[-1] + self.reference()) / 2 if self.paired else None
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        problems = checks.check_process(code, stderr, expect)
        problems += checks.check_files(self.dir / p for p in outputs)
        if not problems and check is not None:
            try:
                problems += check(code, stdout)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if not problems:
            # Same seed, same command: every artifact must repeat byte for byte.
            parts = [stdout.encode()] + [(self.dir / p).read_bytes() for p in outputs]
            digest = checks.digest(*parts)
            if self.first_digest.setdefault(kind, digest) != digest:
                problems.append("artifacts differ from the first repetition")
        spans = None
        if self.traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        op = Op(kind, seconds, rss, problems, spans, ref)
        self.ops.append(op)
        return op

    def once(self, kind: str) -> bool:
        """False if kind already ran in this --trace 0 run.

        A traced run repeats every command in every cycle, so that each
        traced cycle reports every layer.
        """
        if not self.paired:
            return True
        if kind in self.seen:
            return False
        self.seen.add(kind)
        return True

    def reference(self) -> float:
        """Time reference.py in a fresh interpreter; not a program command."""
        cmd = [sys.executable, str(HERE / "reference.py")]
        out_path, err_path = self.dir / "ref-stdout.txt", self.dir / "ref-stderr.txt"
        code, seconds, _ = spawn(cmd, self.dir, self.env, out_path, err_path)
        if code != 0:
            raise RuntimeError(f"reference.py exited with {code}: "
                               + err_path.read_text(errors="replace")[-500:])
        self.refs.append(seconds)
        return seconds

    # -- commands ---------------------------------------------------------

    def show(self):
        s = self.sizes
        check = lambda code, out: checks.check_show(
            out, s.n_x, s.k, s.n_losses, s.n_hypotheses
        )
        return self.run("setup_s", ["scenario-show", "--config", "scenario.json"], check=check)

    def train_exact(self, kind, model, threads=1, adapt=False, same_as=None):
        lmax = self.scenario.lmax
        n_losses = self.sizes.n_losses
        if adapt:
            lmax *= self.scenario.weights.wmax
            n_losses *= self.sizes.n_weights
        trace = model + ".trace.jsonl"
        argv = ["train", "--config", "scenario.json", "--epsilon", repr(self.eps)]
        argv += ["--threads", str(threads), "--out", model] + (["--adapt"] if adapt else [])

        def check(code, stdout):
            problems, updates = checks.check_train(stdout, self.dir / trace)
            if problems:
                return problems
            records = checks.read_trace(self.dir / trace)
            problems = checks.check_exact_trace(
                records, self.p0, self.eps, lmax, self.scenario.k
            )
            if same_as is not None:
                problems += checks.check_same_bytes(self.dir / same_as, self.dir / model)
                problems += checks.check_same_bytes(
                    self.dir / (same_as + ".trace.jsonl"), self.dir / trace
                )
            bound = checks.iteration_bound(self.scenario.k, lmax, self.eps)
            self.updates[kind] = (updates, bound, self.sizes.n_hypotheses * n_losses)
            return problems

        return self.run(kind, argv, outputs=(model, trace), check=check)

    def audit_exact(self, kind, model, n_losses):
        n_targets = self.sizes.n_hypotheses * n_losses + n_losses

        def check(code, stdout):
            problems = checks.check_exact_audit(code, stdout, n_targets)
            if not problems:
                self.gaps[model] = checks.max_exact_err(stdout) / self.eps
            return problems

        argv = ["audit", "--config", "scenario.json", "--model", model]
        return self.run(kind, argv, expect=(0, 3), check=check)

    def rct_gen(self, kind, out, seed):
        argv = ["rct-gen", "--config", "scenario.json", "--n", str(RCT_N)]
        argv += ["--seed", str(seed), "--out", out]
        check = lambda code, stdout: checks.check_rct(stdout, self.dir / out, RCT_N)
        return self.run(kind, argv, outputs=(out,), check=check)

    def train_estimated(self, kind, mode, model, data):
        trace = model + ".trace.jsonl"
        argv = ["train", "--config", "scenario.json", "--mode", mode]
        argv += ["--epsilon", repr(self.eps), "--data", data, "--out", model]
        argv += ["--doi-n", str(DOI_N)]

        def check(code, stdout):
            problems, updates = checks.check_train(stdout, self.dir / trace)
            if not problems:
                bound = checks.iteration_bound(
                    self.scenario.k, self.scenario.lmax, self.eps
                )
                cells = self.sizes.n_hypotheses * self.sizes.n_losses
                self.updates[kind] = (updates, bound, cells)
                self.gaps[model] = self.exact_gap(model)
            return problems

        return self.run(kind, argv, outputs=(model, trace), check=check)

    def exact_gap(self, model) -> float:
        """Max exact rule/decision |err| of a model, in units of eps."""
        from omnipredict.audit import doi_errs, poi_err_matrix
        from omnipredict.predictor import evaluate_all, load_model

        matrix = evaluate_all(load_model(self.dir / model, self.scenario), self.scenario)
        worst = max(
            float(abs(poi_err_matrix(matrix, self.scenario)).max()),
            float(abs(doi_errs(matrix, self.scenario)).max()),
        )
        return worst / self.eps

    def audit_estimated(self, kind, mode, model, data):
        """Held-out audit at 2 eps, the slack omniprediction promises.

        At eps the verdict of a model trained to eps is a coin flip, and
        the CSC audit stops at its first violation, so its work would
        follow the seed.
        """

        def check(code, stdout):
            problems = checks.check_verdict(code, stdout)
            if not problems:
                self.verdicts[kind] = checks.parse_report(stdout)["pass"]
            return problems

        argv = ["audit", "--config", "scenario.json", "--mode", mode]
        argv += ["--model", model, "--data", data, "--epsilon", repr(2 * self.eps)]
        return self.run(kind, argv, expect=(0, 3), check=check)

    def eval_mixture(self, kind, model):
        s = self.sizes
        share = repr(1.0 / s.n_weights)
        mixture = ",".join(f"w{i}:{share}" for i in range(s.n_weights))
        n_rows = (s.n_hypotheses + s.n_losses) * s.n_losses
        argv = ["eval", "--config", "scenario.json", "--model", model]
        argv += ["--mixture", mixture, "--out", "table.csv"]
        check = lambda code, stdout: checks.check_eval(self.dir / "table.csv", n_rows)
        return self.run(kind, argv, outputs=("table.csv",), check=check)

    def adapt_verify(self, kind, model):
        n_dists = self.sizes.n_weights + MIXTURES
        argv = ["adapt-verify", "--config", "scenario.json", "--model", model]
        argv += ["--mixtures", str(MIXTURES)]
        check = lambda code, stdout: checks.check_adapt_verify(code, stdout, n_dists)
        return self.run(kind, argv, expect=(0, 3), check=check)

    def calibrate(self, kind, model):
        s = self.sizes
        argv = ["--config", "scenario.json", "--model", model]
        check = lambda code, stdout: checks.check_calibrate(stdout, s.n_hypotheses, s.k)
        return self.run(kind, argv, entry="calibrate", check=check)


# -- workload cycles --------------------------------------------------------


def cycle_exact_large(s: Session):
    s.train_exact("train_exact_s", "m1.json", threads=1)
    if s.once("train_exact_t2_s"):
        s.train_exact("train_exact_t2_s", "m2.json", threads=2, same_as="m1.json")
    s.audit_exact("audit_exact_s", "m1.json", s.sizes.n_losses)


def cycle_trial_data(s: Session):
    # Both data sets are the same in every cycle of a run, so a --trace 0
    # run generates them in its first cycle only; that leaves room for a
    # fourth sample of the training and audit commands.
    if s.once("rct_gen_s"):
        s.rct_gen("rct_gen_s", "train.jsonl", TRAIN_SEED)
        s.rct_gen("rct_gen_heldout_s", "heldout.jsonl", s.seed + 1)
    s.train_estimated("train_empirical_s", "empirical", "me.json", "train.jsonl")
    s.train_estimated("train_csc_s", "csc", "mc.json", "train.jsonl")
    s.audit_estimated("audit_empirical_s", "empirical", "me.json", "heldout.jsonl")
    s.audit_estimated("audit_csc_s", "csc", "mc.json", "heldout.jsonl")


def cycle_adapt_serve(s: Session):
    for _ in range(ADAPT_TRAIN_REPS if s.paired else 1):
        s.train_exact("train_exact_s", "ma.json", adapt=True)
    s.audit_exact("audit_exact_s", "ma.json", s.sizes.n_losses * s.sizes.n_weights)
    s.eval_mixture("eval_s", "ma.json")
    s.adapt_verify("adapt_verify_s", "ma.json")
    s.calibrate("calibrate_s", "ma.json")


CYCLES = {
    "exact-large": cycle_exact_large,
    "trial-data": cycle_trial_data,
    "adapt-serve": cycle_adapt_serve,
}


# -- measurement ------------------------------------------------------------


@dataclass
class Measured:
    session: Session
    untraced: list[float] = field(default_factory=list)  # cycle seconds
    traced: list[float] = field(default_factory=list)
    traced_cycles: list[list[Op]] = field(default_factory=list)


def measure(s: Session, seconds: float, trace: bool) -> Measured:
    """Run set-up reps, then cycles while the next one still fits."""
    m = Measured(s)
    cycle = CYCLES[s.name]
    deadline = time.perf_counter() + seconds
    if not trace:
        s.paired = True
        s.reference()
        for _ in range(SETUP_REPS):
            s.show()
    while True:
        for traced in ([False, True] if trace else [False]):
            s.traced = traced
            start, t0 = len(s.ops), time.perf_counter()
            if trace:
                s.show()
            cycle(s)
            (m.traced if traced else m.untraced).append(time.perf_counter() - t0)
            if traced:
                m.traced_cycles.append(s.ops[start:])
        s.traced = False
        last = sum(m.untraced[-1:]) + sum(m.traced[-1:])
        if time.perf_counter() + last > deadline:
            return m


def by_kind(ops, value=lambda op: op.seconds) -> dict[str, list[float]]:
    kinds: dict[str, list[float]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(value(op))
    return kinds


def sums(s: Session, value=lambda op: op.seconds) -> dict[str, float]:
    """Per-command medians of value: set-up, and train, audit and cycle sums."""
    med = {k: statistics.median(v) for k, v in by_kind(s.ops, value).items()}
    return {
        "setup": med["setup_s"],
        "train": sum(med[k] for k in s.workload.train),
        "audit": sum(med[k] for k in s.workload.audit),
        "cycle": sum(v for k, v in med.items() if k not in s.workload.ungated),
    }


def end_to_end(m: Measured) -> dict[str, float]:
    s = m.session
    ratios = sums(s, lambda op: op.seconds / op.ref)
    return {
        "setup_s": ratios["setup"] * REF_NOMINAL_S,
        "train_ref": ratios["train"],
        "audit_ref": ratios["audit"],
        "cycle_ref": ratios["cycle"],
        "peak_rss_mb": max(op.rss_mb for op in s.ops),
    }


def layer_totals(ops: list[Op], s: Session) -> dict[str, float]:
    """Per-layer metrics of one traced cycle."""
    units = layers.per_layer_units()
    values = {name: 0.0 for name in units}
    startups = []
    poi_cells = 0  # err cells computed by poi_err_matrix during training
    for op in ops:
        if op.spans is None:
            continue
        startups.append(op.spans["startup_s"])
        spans = op.spans["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, size in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, size) in enumerate(spans):
            values[f"{name}.calls"] += 1
            values[f"{name}.s"] += end - start
            values[f"{name}.self_s"] += end - start - child_time[i]
            if name in layers.SIZED:
                values[layers.SIZED[name]] += size
            if name == "audit.poi_err_matrix" and op.kind in s.updates:
                poi_cells += s.updates[op.kind][2]
    updates = sum(u for u, _, _ in s.updates.values())
    values["cli.startup.s"] = statistics.median(startups) if startups else 0.0
    values["boost.updates"] = updates
    values["boost.bound_headroom"] = max(
        (u / b for u, b, _ in s.updates.values()), default=0.0
    )
    values["boost.true_gap"] = max(s.gaps.values(), default=0.0)
    values["audit.poi_cells_per_update"] = poi_cells / updates if updates else 0.0
    return values


def per_layer(m: Measured) -> dict[str, float]:
    cycles = [layer_totals(ops, m.session) for ops in m.traced_cycles]
    values = {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}
    values["trace.overhead_s"] = statistics.median(m.traced) - statistics.median(m.untraced)
    return values


# -- reporting --------------------------------------------------------------


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {statistics.median(values):9.4f}  n={len(values)}"
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {med:9.4f}  q1 {q1:9.4f}  q3 {q3:9.4f}  n={len(values)}"


def print_report(m: Measured, metrics: dict, units: dict) -> None:
    s = m.session
    attempted = len(s.ops)
    failed = sum(1 for op in s.ops if op.problems)
    print(f"== {s.name} seed={s.seed} sizes={s.sizes}")
    print(
        f"   python {platform.python_version()}, numpy {np.__version__}, "
        f"{os.cpu_count()} cpus, {platform.machine()}"
    )
    print(f"   {s.workload.why}")
    print("-- per command (s, untraced unless the run is traced)")
    for kind, values in by_kind(op for op in s.ops if op.spans is None).items():
        print(f"   {kind:20s} s   {spread(values)}")
    if s.paired:
        ratios = by_kind(s.ops, lambda op: op.seconds / op.ref)
        for kind, values in ratios.items():
            print(f"   {kind[:-2] + '_ref':20s} ref {spread(values)}")
        print(f"   {'reference':20s} s   {spread(s.refs)}")
        for name, value in sums(s).items():
            print(f"   {name + '_s':20s} s   {value:.4f}  (wall, summed medians)")
    print(f"   {'peak_rss_mb':20s} MB  {max(op.rss_mb for op in s.ops):.1f}")
    print(f"   {'true_gap':20s} eps {max(s.gaps.values(), default=float('nan')):.4f}")
    rate = checks.op_fail_rate(op.problems for op in s.ops)
    print(f"   {'op_fail_rate':20s} ratio {rate:.4f} ({failed}/{attempted})")
    for kind, (updates, bound, _) in s.updates.items():
        print(f"   updates[{kind}] = {updates} of bound {bound}")
    for kind, verdict in s.verdicts.items():
        print(f"   verdict[{kind}] = {'pass' if verdict else 'fail'}")
    for op in s.ops:
        for problem in op.problems:
            print(f"   FAILED {op.kind}: {problem}")
    print("-- reported metrics")
    for name, value in metrics.items():
        print(f"   {name:44s} {units[name]:6s} {value:.6g}")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        s = Session(name, WORKLOADS[name], seed, workdir)
        m = measure(s, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        units = layers.per_layer_units()
        metrics = per_layer(m)
    else:
        units = END_TO_END
        metrics = end_to_end(m)
    print_report(m, metrics, units)
    failed = sum(1 for op in s.ops if op.problems)
    return len(s.ops), failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "omnipredict" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'omnipredict'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, command lines and output checks.

Every workload is a fixed list of rounds; a round is a list of `rotavg`
command lines (items) run back to back in one closed loop. Each item carries
the check of its own output, which reports how many things it verified,
which of them failed, and which failures are wrong outputs rather than
honest non-results (a documented "no convergence" exit, an uncertified
best point).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
from rotavg.checks import FAMILIES
from rotavg.cli import EXIT_NO_CONVERGENCE, EXIT_OK
from rotavg.sweep import emit_csv, parse_csv

# cost configurations of the average workloads, cycled in this order
COST_CONFIGS = (("l2",), ("geodesic",), ("d3",), ("lp", "1.5"), ("lp", "4"))
TIGHT_SPREAD = 0.2
# The problem suite is drawn once from this seed; the workload seed only
# shuffles the order of each problem's samples. Every cost is a symmetric sum
# over the samples, so each seed shows the program a different input file
# with the same critical points and, up to rounding, the same work. Fresh
# problems per seed, or the same ones under a random rotation (which moves
# them relative to the fixed multistart starts), change single r = 5 solves
# by up to 2x and put the run-to-run spread of every timing far above any
# usable regression bound. Rounding-level effects, such as which borderline
# r = 1000 solves stall, still vary with the seed.
SUITE_SEED = 1304_0592

# certification of a returned best point (average workloads)
RESIDUAL_TOL_PER_SAMPLE = 1e-11  # rotation_residual_norm must stay below this times r
ORACLE_TOL = 1e-8  # Frobenius distance of the l2 best point to eigen_oracle_l2

# paper facts the p = 4 sweep must recover
SWEEP_TRANSITIONS = ((-1.0232, 2, 4), (-0.5476, 4, 2))
SWEEP_TRANSITION_TOL = 5e-4
SWEEP_TIE = -math.pi / 4
SWEEP_TIE_TOL = 1e-6


@dataclass
class Verdict:
    """What one item's check found."""

    attempted: int
    failures: list = field(default_factory=list)  # one line per failed thing
    wrong: list = field(default_factory=list)  # the failures that are wrong outputs

    def fail(self, why, wrong=False):
        self.failures.append(why)
        if wrong:
            self.wrong.append(why)
        return self


@dataclass(frozen=True)
class Item:
    label: str
    argv: list
    check: Callable  # (exit code, captured stdout, oracle) -> Verdict


REFERENCE_SECONDS = 20  # the --seconds at which a workload runs `rounds` rounds


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rounds: int  # rounds in one run at REFERENCE_SECONDS
    make_rounds: Callable  # (seed, n_rounds, workdir) -> list of rounds

    def n_rounds(self, seconds):
        return max(1, round(self.rounds * seconds / REFERENCE_SECONDS))


# -- input generation -----------------------------------------------------------


def _unit(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _matrices(Q):
    """Rotation matrices of unit quaternions (scalar first), shape (r, 3, 3).

    Kept apart from rotavg.covering_map so that no change to rotavg can alter
    the inputs or the oracle comparison."""
    w, x, y, z = Q.T
    return np.stack(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    ).transpose(2, 0, 1)


def _suite(r):
    """Endless stream of base problems, ten per round: every cost config on
    tight samples (spread 0.2 around a random base), then on uniform ones."""
    rng = np.random.default_rng([SUITE_SEED, r])
    while True:
        rnd = []
        for tight in (True, False):
            for cost in COST_CONFIGS:
                if tight:
                    Q = _unit(rng.standard_normal(4)) + TIGHT_SPREAD * rng.standard_normal((r, 4))
                else:
                    Q = rng.standard_normal((r, 4))
                rnd.append((cost, tight, _unit(Q)))
        yield rnd


def _average_rounds(r):
    def make(seed, n_rounds, workdir: Path):
        rng = np.random.default_rng(seed)
        suite = _suite(r)
        rounds = []
        for k in range(n_rounds):
            items = []
            for j, (cost, tight, Q) in enumerate(next(suite)):
                Q = Q[rng.permutation(r)]
                src = workdir / f"in-{k}-{j}.json"
                out = workdir / f"out-{k}-{j}.json"
                with open(src, "w") as fh:
                    json.dump({"rotations": [{"matrix": R.tolist()} for R in _matrices(Q)]}, fh)
                argv = ["average", "--input", str(src), "--out", str(out), "--cost", cost[0]]
                if len(cost) > 1:
                    argv += ["--p", cost[1]]
                label = f"round {k} {' '.join(cost)} {'tight' if tight else 'uniform'}"
                items.append(Item(label, argv, _average_check(out, Q, cost[0])))
            rounds.append(items)
        return rounds

    return make


# -- output checks ----------------------------------------------------------------


def _average_check(out: Path, Q, kind):
    def check(rc, stdout, oracle):
        v = Verdict(attempted=1)
        if rc == EXIT_NO_CONVERGENCE:
            return v.fail("no start converged (exit 4)")
        if rc != EXIT_OK:
            return v.fail(f"exit {rc}", wrong=True)
        pts = json.loads(out.read_text())["critical_points"]
        if not pts:
            return v.fail("exit 0 without critical points", wrong=True)
        costs = [p["cost"] for p in pts]
        if any(b < a - 1e-9 for a, b in zip(costs, costs[1:])):
            return v.fail("critical points not sorted by cost", wrong=True)
        best = pts[0]
        tol = RESIDUAL_TOL_PER_SAMPLE * len(Q)
        certified = best["class"] == "min" and best["rotation_residual_norm"] < tol
        if best["class"] != "min":
            v.fail(f"best point is a {best['class']}")
        elif best["rotation_residual_norm"] >= tol:
            v.fail(f"best residual {best['rotation_residual_norm']:.2e} >= {tol:.0e}")
        if kind == "l2" and certified:
            q = oracle(SimpleNamespace(quaternions=Q))
            err = float(np.linalg.norm(np.asarray(best["matrix"]) - _matrices(q[None])[0]))
            if err > ORACLE_TOL:
                v.fail(f"certified l2 minimum is {err:.2e} from eigen_oracle_l2", wrong=True)
        return v

    return check


_TRANSITION = re.compile(r"root-count transition at alpha = (\S+) rad: (\d+) -> (\d+)")
_TIE = re.compile(r"tied minima at alpha = (\S+) rad")


def _sweep_check(csv_path: Path):
    def check(rc, stdout, oracle):
        v = Verdict(attempted=3)
        if rc != EXIT_OK:
            return v.fail(f"exit {rc}", wrong=True)
        again = csv_path.with_suffix(".again.csv")
        emit_csv(parse_csv(csv_path), again)
        if again.read_bytes() != csv_path.read_bytes():
            v.fail("CSV does not round-trip through parse_csv", wrong=True)
        found = [(float(a), int(b), int(c)) for a, b, c in _TRANSITION.findall(stdout)]
        ok = len(found) == len(SWEEP_TRANSITIONS) and all(
            abs(a - ea) < SWEEP_TRANSITION_TOL and (b, c) == (eb, ec)
            for (a, b, c), (ea, eb, ec) in zip(found, SWEEP_TRANSITIONS)
        )
        if not ok:
            v.fail(f"root-count transitions {found}", wrong=True)
        ties = [float(a) for a in _TIE.findall(stdout)]
        if len(ties) != 1 or abs(ties[0] - SWEEP_TIE) > SWEEP_TIE_TOL:
            v.fail(f"ties {ties}", wrong=True)
        return v

    return check


def _check_check(report: Path):
    def check(rc, stdout, oracle):
        v = Verdict(attempted=len(FAMILIES))
        lines = report.read_text().splitlines() if report.exists() else []
        results = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
        if len(results) != len(FAMILIES):
            return v.fail(f"{len(results)} families reported", wrong=True)
        for ln in results:
            if ln.startswith("FAIL"):
                v.fail(ln)  # the report is right; the program missed a tolerance
        if (rc == EXIT_OK) != (not v.failures):
            v.fail(f"exit {rc} disagrees with the report", wrong=True)
        return v

    return check


def _sweep_rounds(seed, n_rounds, workdir: Path):
    # the default grid is the workload's whole input: the seed changes nothing
    rounds = []
    for k in range(n_rounds):
        out = workdir / f"sweep-{k}.csv"
        rounds.append([Item(f"sweep {k}", ["sweep", "--p", "4", "--out", str(out)], _sweep_check(out))])
    return rounds


def _check_rounds(seed, n_rounds, workdir: Path):
    rounds = []
    for k in range(n_rounds):
        out = workdir / f"check-{k}.txt"
        argv = ["check", "--trials", "1000", "--seed", str(seed * 1000 + k), "--out", str(out)]
        rounds.append([Item(f"check {k}", argv, _check_check(out))])
    return rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "average-r5",
            "r=5, 64 starts: per-call overhead in costs and flow iteration counts dominate; "
            "uniform halves give many classes for classify and dedup",
            rounds=3,
            make_rounds=_average_rounds(5),
        ),
        Workload(
            "average-r1000",
            "r=1000: per-sample work (JSON, quat_from_rotation, SampleSet, so3_log residual) dominates, "
            "and the absolute grad_tol stalls show as failures",
            rounds=3,
            make_rounds=_average_rounds(1000),
        ),
        Workload(
            "sweep-p4",
            "p=4 sweep on the default grid: no flow and no multistart; value and pushforward_residual "
            "on fixed 3-sample models, plus root finding",
            rounds=3,
            make_rounds=_sweep_rounds,
        ),
        Workload(
            "check-1000",
            "check --trials 1000: the only workload on the generic Gram-determinant engine (v0, "
            "dissipation_rate) and the checks layer; gradients on random r=1..6 models",
            rounds=3,
            make_rounds=_check_rounds,
        ),
    )
}

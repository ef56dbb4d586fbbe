"""Command-line front end.

Subcommands:
  average   find and classify critical points of a cost over input rotations
  sweep     trace the three-rotation x-axis family over an alpha grid (CSV)
  check     run the randomized invariant suite
  distance  pairwise d1/d2/d3 table for input rotations

Exit codes: 0 ok, 1 check failure, 2 parse error, 3 validation error,
4 no convergence, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import sys
from itertools import chain

import numpy as np

from .costs import CostModel
from .geometry import SampleSet, _pair_distances, normalize, quat_from_rotation
from .solvers import FLOW_TOL, _check_model, multistart

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_IO = 5

ORTHO_TOL = 1e-6  # matrix inputs may be off SO(3) by at most this much
MAX_GRID_POINTS = 10**6  # longest alpha grid sweep accepts
MAX_TRIALS = 10**6  # most trials check accepts: each family's arrays grow with the count
MAX_STARTS = 10**6  # most starts average accepts: the flow's arrays grow with the count
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
# --cost spelling -> CostModel kind
_COSTS = {"l2": "L2Chordal", "geodesic": "Geodesic", "d3": "TraceSqrt", "lp": "LpChordal"}


class _ParseError(Exception):
    pass


class _ValidationError(Exception):
    pass


class _NoConvergence(Exception):
    pass


# every failure leaves through main: one "error:" line, then the exit code
# of the first entry the exception is an instance of
_EXIT_CODES = {
    _ParseError: EXIT_PARSE,
    _ValidationError: EXIT_VALIDATION,
    _NoConvergence: EXIT_NO_CONVERGENCE,
    OSError: EXIT_IO,
}


# each entry key -> the shape of its value and how a wrong shape is reported
_VALUES = {"matrix": ((3, 3), "be 3x3"), "quaternion": ((4,), "have 4 components")}
# the types json.load gives a JSON number; a string, true/false or null is none of them
_NUMBER_TYPES = frozenset((int, float))


def _numeric(values):
    """values as one float array, or None if they are ragged or hold
    anything but JSON numbers."""
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, or a leaf float() refuses
        return None
    leaves = values
    for _ in range(a.ndim - 1):
        leaves = chain.from_iterable(leaves)
    return a if _NUMBER_TYPES.issuperset(map(type, leaves)) else None


def _lifts(entries, first=0):
    """The unit lifts of entries, which start at rotations[first], or the
    error of an entry that fails a check.

    Each check runs over all the rows of its key at once, in the order a
    single entry meets them: object, key, numeric, shape, finite,
    orthogonal, determinant, norm. So the list fails just when one of its
    entries fails on its own, and on one entry the error is exact: it names
    rotations[first] and that entry's first failing check.
    """
    values = {key: [] for key in _VALUES}
    is_matrix = bytearray()  # one byte a row, read by numpy without a copy
    for ent in entries:
        if not isinstance(ent, dict):
            return _ParseError(f"rotations[{first}] must be an object")
        if "matrix" in ent:
            values["matrix"].append(ent["matrix"])
            is_matrix.append(True)
        elif "quaternion" in ent:
            values["quaternion"].append(ent["quaternion"])
            is_matrix.append(False)
        else:
            return _ParseError(f'rotations[{first}] needs a "matrix" or "quaternion" key')
    stacks = {}
    for key, (shape, what) in _VALUES.items():
        a = _numeric(values[key]) if values[key] else np.empty((0, *shape))
        if a is None:
            return _ParseError(f"rotations[{first}].{key} is not numeric")
        if a.shape[1:] != shape:
            return _ParseError(f"rotations[{first}].{key} must {what}")
        # NaN passes every norm and orthogonality test, so it fails here first
        if not np.isfinite(a).all():
            return _ValidationError(f"rotations[{first}].{key} has a non-finite entry")
        stacks[key] = a
    R, Q = stacks["matrix"], stacks["quaternion"]
    # a finite but huge entry overflows to inf here, which fails the checks
    # below as it should; numpy's warning about it would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.abs(np.matrix_transpose(R) @ R - np.eye(3)).max(axis=(1, 2))
        norm = np.sqrt(np.vecdot(Q, Q))
    if (off > ORTHO_TOL).any():
        return _ValidationError(f"rotations[{first}] is not orthogonal within {ORTHO_TOL:g}")
    if (np.linalg.det(R) < 0.0).any():
        return _ValidationError(f"rotations[{first}] has determinant -1 (not a rotation)")
    off_norm = np.abs(norm - 1.0) > ORTHO_TOL
    if off_norm.any():
        return _ValidationError(f"rotations[{first}] quaternion norm {float(norm[off_norm][0]):.8f} is not 1")
    matrix_rows = np.frombuffer(is_matrix, dtype=bool)
    quats = np.empty((len(entries), 4))
    if len(R):  # quat_from_rotation has a fixed cost of tens of us, even on no rows
        quats[matrix_rows] = quat_from_rotation(R)
    quats[~matrix_rows] = normalize(Q)
    return quats


def _load_rotations(path) -> SampleSet:
    """The samples of the rotations file at path.

    One _lifts call checks and lifts the whole file. Only if it fails is
    the first faulty entry looked for: as a list fails just when one of its
    entries does, halving the range that holds that entry and checking the
    left half finds it in about one more pass over the file. The error
    raised is that entry's own.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise OSError(f"cannot read {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError for bytes that are not UTF-8
        raise _ParseError(f"{path} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise _ParseError(f"{path} is nested too deeply to read") from e
    if not isinstance(doc, dict) or "rotations" not in doc:
        raise _ParseError('input must be an object with a "rotations" array')
    entries = doc["rotations"]
    if not isinstance(entries, list) or not entries:
        raise _ParseError('"rotations" must be a non-empty array')
    quats = _lifts(entries)
    if isinstance(quats, Exception):
        lo, hi = 0, len(entries)  # entries[:lo] pass, entries[lo:hi] hold a fault
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if isinstance(_lifts(entries[lo:mid], lo), Exception):
                hi = mid
            else:
                lo = mid
        raise _lifts(entries[lo:hi], lo)
    return SampleSet.from_quaternions(quats)


def _model_from_args(args, samples) -> CostModel:
    if (args.p is None) == (args.cost == "lp"):
        raise _ParseError("--cost lp requires --p" if args.p is None else "--p applies only to --cost lp")
    if args.p is not None and not 1.0 <= args.p < math.inf:
        raise _ValidationError("--p must be finite and >= 1")
    try:
        model = CostModel(_COSTS[args.cost], samples, args.p)
        _check_model(model)
    except ValueError as e:  # an lp power whose scale, or the flow's field bound, overflows
        raise _ValidationError(f"--p is too large: {e}") from e
    return model


def _require_seed(args) -> None:
    if args.seed < 0:
        raise _ValidationError("--seed must be >= 0")


def _text_out(path):
    """The text stream to write to: the file at path, opened for writing
    and closed on leaving the context, or stdout (left open) where path is
    None."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


def _write_text(path, text) -> None:
    with _text_out(path) as fh:
        fh.write(text)


def cmd_average(args) -> int:
    if not 1 <= args.starts <= MAX_STARTS:
        raise _ValidationError(f"--starts must be between 1 and {MAX_STARTS:g}")
    if not 0.0 < args.tol < math.inf:
        raise _ValidationError("--tol must be finite and > 0")
    _require_seed(args)
    samples = _load_rotations(args.input)
    model = _model_from_args(args, samples)
    points = multistart(model, n_starts=args.starts, seed=args.seed, tol=args.tol)
    if not points:
        raise _NoConvergence("no start converged")
    best = points[0].cost
    doc = {
        "cost": {"kind": args.cost, "p": args.p},
        "critical_points": [
            {
                "quaternion": [float(x) for x in pt.q],
                "matrix": [[float(x) for x in row] for row in pt.R],
                "cost": pt.cost,
                "control_norm": pt.control_norm,
                "rotation_residual_norm": pt.rotation_residual_norm,
                "class": pt.classification.lower(),
                "is_global_min": bool(pt.cost <= best + 1e-9),
            }
            for pt in points
        ],
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _fmt_angle(x, degrees):
    return f"{math.degrees(x):.6f} deg" if degrees else f"{x:.6f} rad"


def cmd_sweep(args) -> int:
    # imported where it runs, so that a process that only averages never loads it
    from . import sweep as sweep_mod

    if not math.isfinite(args.p):
        raise _ValidationError("--p must be finite")
    if args.p not in (2.0, 4.0):
        raise _ParseError("sweep supports only p = 2 or p = 4")
    lo, hi, step = args.alpha_min, args.alpha_max, args.alpha_step
    if not (-math.pi - 1e-12 <= lo < hi <= math.pi + 1e-12) or not 0.0 < step < math.inf:
        raise _ValidationError("need -pi <= alpha-min < alpha-max <= pi and a finite positive step")
    if (hi - lo) / step >= MAX_GRID_POINTS:
        # checked before np.arange, which would try to allocate the grid
        raise _ValidationError(f"--alpha-step gives more than {MAX_GRID_POINTS:g} grid points")
    # the slack above admits a hair past +-pi, and the half step that keeps
    # alpha-max on the grid may overshoot it; build_samples takes neither
    lo, hi = max(lo, -math.pi), min(hi, math.pi)
    grid = np.minimum(np.arange(lo, hi + 0.5 * step, step), hi)
    records = sweep_mod.theta_min_curve(args.p, grid)
    sweep_mod.emit_csv(records, args.out)
    lines = [f"wrote {len(records)} grid points to {args.out}"]
    trans = sweep_mod.root_count_transitions(records)
    if trans:
        for a, before, after in trans:
            lines.append(f"root-count transition at alpha = {_fmt_angle(a, args.degrees)}: {before} -> {after}")
    else:
        lines.append("no root-count transitions")
    ties = sweep_mod.tie_locations(records)
    if ties:
        for a, labels in ties:
            lines.append(f"tied minima at alpha = {_fmt_angle(a, args.degrees)}: {', '.join(labels)}")
    else:
        lines.append("no ties")
    print("\n".join(lines))
    return EXIT_OK


def cmd_check(args) -> int:
    from . import checks as checks_mod  # as sweep_mod in cmd_sweep

    if not 1 <= args.trials <= MAX_TRIALS:
        raise _ValidationError(f"--trials must be between 1 and {MAX_TRIALS:g}")
    _require_seed(args)
    results = checks_mod.run_all(seed=args.seed, trials=args.trials)
    report = checks_mod.format_report(results)
    _write_text(args.out, report + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK


def cmd_distance(args) -> int:
    samples = _load_rotations(args.input)
    if len(samples) < 2:
        raise _ValidationError("distance needs at least 2 rotations")
    Q = samples.quaternions
    # a block of rows i against every sample, about 2^16 pairs at a time,
    # written as it is formed, so that memory stays bounded at large r
    step = max(1, 2**16 // len(Q))
    with _text_out(args.out) as fh:
        fh.write("i j d1 d2 d3\n")
        for i0 in range(0, len(Q) - 1, step):
            D1, D2, D3 = (d.tolist() for d in _pair_distances(Q[i0 : i0 + step], Q))
            lines = []
            for i, d1, d2, d3 in zip(range(i0, len(Q)), D1, D2, D3):
                for j in range(i + 1, len(Q)):
                    d2j = "undefined" if math.isnan(d2[j]) else f"{d2[j]:.12g}"
                    lines.append(f"{i} {j} {d1[j]:.12g} {d2j} {d3[j]:.12g}\n")
            fh.write("".join(lines))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rotavg", description="Rotation averaging on the unit-quaternion sphere")
    sub = ap.add_subparsers(dest="command", required=True)

    def io(p, needs_input, out=None):
        if needs_input:
            p.add_argument("--input", required=True, help="JSON file with a rotations array")
        p.add_argument("--out", default=out, help=f"output path (default: {out or 'stdout'})")

    p_avg = sub.add_parser("average", help="critical points of a cost over input rotations")
    io(p_avg, needs_input=True)
    p_avg.add_argument("--cost", choices=list(_COSTS), default="l2")
    p_avg.add_argument("--p", type=float, default=None, help="exponent for --cost lp")
    p_avg.add_argument("--starts", type=int, default=64)
    p_avg.add_argument("--seed", type=int, default=0)
    p_avg.add_argument("--tol", type=float, default=FLOW_TOL, help="flow stopping tolerance, relative to 1 + c r")

    p_sweep = sub.add_parser("sweep", help="x-axis three-rotation family over an alpha grid")
    io(p_sweep, needs_input=False, out="sweep.csv")
    p_sweep.add_argument("--p", type=float, default=2.0, help="chordal exponent, 2 or 4")
    p_sweep.add_argument("--degrees", action="store_true", help="report angles in degrees")
    p_sweep.add_argument("--alpha-min", type=float, default=-math.pi)
    p_sweep.add_argument("--alpha-max", type=float, default=math.pi)
    p_sweep.add_argument("--alpha-step", type=float, default=0.01)

    p_check = sub.add_parser("check", help="run the invariant suite")
    io(p_check, needs_input=False)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=1000)

    p_dist = sub.add_parser("distance", help="pairwise d1/d2/d3 table")
    io(p_dist, needs_input=True)
    return ap


_COMMANDS = {
    "average": cmd_average,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "distance": cmd_distance,
}


@functools.cache
def _setup() -> argparse.ArgumentParser:
    """Once per process: keep freed memory in the heap, and build the parser.

    At r = 1000 the flow's (64, r) temporaries are 512 000 bytes, above
    glibc's initial 128 KiB mmap threshold, so each one would be mapped,
    faulted in and given back to the kernel again. With the thresholds
    raised, freed blocks stay in the heap and are reused. Where there is no
    mallopt (not glibc, or no C library to load) the allocator is left as
    it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt  # TypeError on Windows
    except (AttributeError, OSError, TypeError):
        pass
    else:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # 32 MiB is the largest mmap threshold glibc takes on 64-bit; mallopt
        # returns 1 when a setting takes, and either threshold alone saves
        # nothing, so the trim threshold is raised only after the mmap one
        if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
            mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return _build_parser()


def main(argv=None) -> int:
    ap = _setup()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors, which matches the parse-error code
        return int(e.code) if e.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

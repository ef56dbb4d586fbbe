"""Compare two `rotavg average` JSON outputs within the same-answers gate.

    python tools/compare_average.py OLD.json NEW.json

The two outputs pass when they hold the same cost record and the same
critical points in the same order, each with the same `class` and
`is_global_min` labels, a `cost` within COST_RTOL relative and a `matrix`
within MATRIX_ATOL in the Frobenius norm. Prints one line per miss and
exits 1 if there is any; otherwise prints "same" and exits 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

COST_RTOL = 1e-12
MATRIX_ATOL = 1e-10
LABELS = ("class", "is_global_min")


def misses(old: dict, new: dict) -> list[str]:
    """One line per way in which the output `new` misses the gate against `old`."""
    if old["cost"] != new["cost"]:
        return [f"cost record {old['cost']} != {new['cost']}"]
    a, b = old["critical_points"], new["critical_points"]
    if len(a) != len(b):
        return [f"{len(a)} critical points != {len(b)}"]
    out = []
    for k, (p, q) in enumerate(zip(a, b)):
        for label in LABELS:
            if p[label] != q[label]:
                out.append(f"point {k}: {label} {p[label]!r} != {q[label]!r}")
        if abs(p["cost"] - q["cost"]) > COST_RTOL * max(abs(p["cost"]), abs(q["cost"])):
            out.append(f"point {k}: cost {p['cost']!r} != {q['cost']!r} (relative tolerance {COST_RTOL:g})")
        d = float(np.linalg.norm(np.subtract(p["matrix"], q["matrix"])))
        if not d <= MATRIX_ATOL:
            out.append(f"point {k}: matrices {d:.3g} apart (Frobenius tolerance {MATRIX_ATOL:g})")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_average.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args)
    found = misses(old, new)
    print("\n".join(found) if found else "same")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

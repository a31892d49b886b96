"""Median and quartiles of every metric across recorded runs.

    python3 e2ebench/summarize.py [RECORD.json ...] [--json OUT]

Reads the per-run records ``run.py`` leaves under ``.e2ebench/results``
(or the files named), groups them by workload and traced/untraced, and
prints, per metric, the median, the quartiles and the spread — the
distance between the quartiles as a share of the median — with the run
count, seeds and machine context, the same rule the benchmark's bounds
are checked with.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles  # noqa: E402


def summarize(records):
    groups = {}
    for record in records:
        ctx = record["context"]
        groups.setdefault((ctx["workload"], ctx["trace"]), []).append(record)
    out = []
    for (workload, trace), runs in sorted(groups.items()):
        ctx = runs[0]["context"]
        row = {
            "workload": workload,
            "trace": trace,
            "runs": len(runs),
            "seeds": sorted(r["context"]["seed"] for r in runs),
            "correct_runs": sum(1 for r in runs if r["correct"]),
            "context": {k: ctx[k] for k in ("nproc", "python", "numpy", "machine", "commit", "seconds")},
            "metrics": {},
        }
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q = quartiles(values)
            q["spread"] = (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0
            q["unit"] = first["unit"]
            row["metrics"][name] = q
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    paths = args.records or sorted((HERE.parent / ".e2ebench" / "results").glob("*.json"))
    summary = summarize(json.loads(p.read_text()) for p in paths)
    for row in summary:
        ctx = row["context"]
        print(
            f"{row['workload']} trace={row['trace']} runs={row['runs']} "
            f"correct={row['correct_runs']} seeds={row['seeds']} "
            + " ".join(f"{k}={v}" for k, v in ctx.items())
        )
        for name, q in row["metrics"].items():
            print(
                f"  {name:28s} median {q['median']:>12.6g} {q['unit']:6s} "
                f"q1 {q['q1']:>12.6g} q3 {q['q3']:>12.6g} spread {q['spread']:.4f}"
            )
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that the deterministic effort counters repeat exactly.

Run from the repository root::

    python3 perfbench/determinism.py [--seed N]

For each in-process workload, a traced benchmark run (one untraced and
one traced request) runs in three fresh interpreters: twice under
``PYTHONHASHSEED=0`` and once under ``PYTHONHASHSEED=1``.  Two sets of
figures must be identical across the three:

* the counters of the untraced request (``solves``, ``decisions``,
  ``propagations``, ``conflicts``, ``trail_saved_levels`` and the
  session's clauses+variables, read from the session the benchmark passes
  to ``verify_many``, or from the PBA proof run);
* every count-valued layer figure of the traced request (the ``sat.*``
  counts summed over all the request's sessions, ``session.clauses_vars``,
  ``emm.*``, ``aig.nodes``, the CEX and PBA counts).
``soc_service`` is left out: its solving happens in worker processes
whose solver totals accumulate across the jobs each worker drains.
Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("soc_bmc3", "img_bmc2", "qs_pba")
RUNS = (("0", "first"), ("0", "repeat"), ("1", "other hash seed"))


def counters(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run was not correct:\n{proc.stdout}")
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] == "count"}
    return {"counters": json.loads(lines[-2])["counters"],
            "layer_counts": counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        seen = [(label, counters(workload, args.seed, hash_seed))
                for hash_seed, label in RUNS]
        same = all(c == seen[0][1] for _, c in seen)
        ok &= same
        print(f"{workload} seed {args.seed}: "
              f"{'identical' if same else 'DIFFERENT'} {seen[0][1]}")
        if not same:
            for label, c in seen:
                print(f"  {label}: {c}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

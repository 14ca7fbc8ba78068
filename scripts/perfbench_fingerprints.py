#!/usr/bin/env python3
"""Print a digest of every benchmark shard's deterministic outcome.

Each shard of a ``perfbench`` workload is one seeded simulation, and
``Shard.fingerprint()`` collects everything about it that must not move
when a change claims to keep simulations bit-identical: simulated
duration, fired events, datagrams, bytes, store digests and every
transaction's submit/final times and outcome.  This script runs the
shards and prints JSON mapping ``workload/shard`` to the sha256 of
``repr(fingerprint())``.  Run it on two checkouts and compare the output
(or pass one run's output to the other with ``--against``) to check that
a change leaves every simulation unchanged.

It imports ``perfbench/workloads.py`` and ``perfbench/measure.py`` and
changes nothing under ``perfbench/``.

Usage:
    python scripts/perfbench_fingerprints.py --seed 1 > before.json
    python scripts/perfbench_fingerprints.py --seed 1 --against before.json
    python scripts/perfbench_fingerprints.py --seed 1009 --workload churn_cbp --shard 0

With ``--against FILE`` the exit status is 1 when any shard run here is
missing from FILE or has a different digest; each one is named on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Bytecode caches would land inside perfbench/, which this script must not
# touch.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from measure import simulate  # noqa: E402  (path bootstrap)
from workloads import WORKLOADS  # noqa: E402


def fingerprints(seed: int, workloads: list[str], shard: int | None) -> dict[str, str]:
    digests = {}
    for name in workloads:
        workload = WORKLOADS[name]
        shards = range(workload.shards) if shard is None else [shard]
        for k in shards:
            outcome = simulate(workload, seed, k)
            digests[f"{name}/{k}"] = hashlib.sha256(
                repr(outcome.fingerprint()).encode()
            ).hexdigest()
    return digests


def differing(digests: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Shards run here whose digest is absent from or differs in ``reference``."""
    return [key for key, digest in sorted(digests.items()) if reference.get(key) != digest]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        action="append",
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--shard", type=int, help="run only this shard index")
    parser.add_argument("--against", type=pathlib.Path, help="JSON from an earlier run")
    args = parser.parse_args(argv)
    workloads = args.workload or sorted(WORKLOADS)
    for name in workloads:
        if args.shard is not None and not 0 <= args.shard < WORKLOADS[name].shards:
            parser.error(f"{name} has shards 0..{WORKLOADS[name].shards - 1}")

    digests = fingerprints(args.seed, workloads, args.shard)
    print(json.dumps(digests, indent=2, sort_keys=True))
    if args.against is None:
        return 0
    bad = differing(digests, json.loads(args.against.read_text()))
    for key in bad:
        print(f"fingerprint differs: {key}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

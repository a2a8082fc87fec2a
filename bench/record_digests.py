"""Record the expected output digest of every request any seed can schedule.

Run from the root of a checkout whose behaviour is the reference::

    python3 bench/record_digests.py

It writes ``bench/digests.json``.  Re-record only on purpose: a change that
is meant to keep reports byte-identical must pass against the old digests.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads
from verify import DIGESTS
from worker import ROOT, digests_of, import_program, run_request, write_inputs


def main() -> int:
    cli = import_program()
    digests = {}
    base = ROOT / ".bench_runs"
    base.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        plan = workloads.plan(workload, 0, ROOT)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            write_inputs(plan, Path(tmp) / "inputs")
            os.chdir(Path(tmp) / "inputs")
            for request in plan.requests:
                codes, outputs = run_request(cli, request)
                digests[request.key] = digests_of(request, codes, outputs)
            os.chdir(ROOT)
        print(f"{workload}: {len(plan.requests)} requests", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

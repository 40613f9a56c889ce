"""Record every job's stdout digest at the default seed into golden_stdout.json.

    python3 perfbench/record_golden.py

Run from the root of a source checkout, at the commit whose bytes later runs
are compared against (``cli.stdout_changed`` in the traced run).
"""

import json
import sys
import tempfile
from pathlib import Path

import fixtures
import run

if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    golden = {}
    for workload in fixtures.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="work-", dir=run.HERE) as tmp:
            golden[workload] = run.digests(run.default_seed_pass(workload, Path(tmp))[1])
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

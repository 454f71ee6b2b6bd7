"""Record the golden exit code and stdout sha256 of every workload item.

    python3 bench/record_golden.py

Run it only on a commit whose outputs are trusted: the benchmark counts every
later difference from these digests as a failed item.  It writes golden.json
beside this file.
"""

from __future__ import annotations

import hashlib
import json
import sys

from worker import GOLDEN, SRC, WORKLOADS, corpus, item_key, run_items


def main() -> int:
    sys.path.insert(0, str(SRC))
    golden = {}
    for workload in WORKLOADS:
        _, results = run_items(corpus(workload, 0))
        entries = {}
        for argv, rc, out, raised in results:
            if raised is not None:
                raise SystemExit(f"{item_key(argv)} raised {raised}")
            entries[item_key(argv)] = {"exit": rc,
                                       "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}
        golden[workload] = dict(sorted(entries.items()))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Rewrite ``figure_digests.json``: the ``figures`` oracle.

Runs every Winstone app at every pinned trace seed through the same
regeneration the ``figures`` ops perform and records a digest of the
simulated statistics.  Run from the repository root, and only when a
change is meant to alter simulated results::

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (DIGEST_FILE, FIGURE_DYN_INSTRS,  # noqa: E402
                                 FIGURE_TRACE_SEEDS, digest_key,
                                 figure_digest, regenerate_app)
from repro.workloads.winstone import winstone_suite  # noqa: E402


def main() -> int:
    digests = {}
    for trace_seed in range(FIGURE_TRACE_SEEDS):
        for app in winstone_suite():
            results = regenerate_app(app, trace_seed)
            if not all(result.conserved for result in results):
                print(f"{app.name}/{trace_seed}: ledger not conserved",
                      file=sys.stderr)
                return 1
            digests[digest_key(app.name, trace_seed)] = \
                figure_digest(results)
            print(f"{app.name}/{trace_seed} "
                  f"{digests[digest_key(app.name, trace_seed)]}")
    DIGEST_FILE.write_text(json.dumps(
        {"dyn_instrs": FIGURE_DYN_INSTRS, "digests": digests},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

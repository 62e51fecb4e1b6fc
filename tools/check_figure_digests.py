#!/usr/bin/env python
"""Check every pinned ``figures`` digest without rewriting the pins.

``perfbench/figure_digests.json`` pins a digest of the simulated
statistics of every Winstone app at every trace seed the ``figures``
benchmark uses.  This regenerates each one with the current code and
compares, so a host-speed change to the workload generator or the
startup simulator can show that it moved no simulated number.  Run from
the repository root; exits 1 on any mismatch::

    python tools/check_figure_digests.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (DIGEST_FILE, FIGURE_DYN_INSTRS,  # noqa: E402
                                 FIGURE_TRACE_SEEDS, digest_key,
                                 figure_digest, regenerate_app)
from repro.workloads.winstone import winstone_suite  # noqa: E402


def main() -> int:
    pinned = json.loads(DIGEST_FILE.read_text())
    if pinned["dyn_instrs"] != FIGURE_DYN_INSTRS:
        print("pins were taken at another trace length", file=sys.stderr)
        return 1
    mismatches = 0
    for trace_seed in range(FIGURE_TRACE_SEEDS):
        for app in winstone_suite():
            key = digest_key(app.name, trace_seed)
            digest = figure_digest(regenerate_app(app, trace_seed))
            ok = digest == pinned["digests"][key]
            mismatches += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {key} {digest}")
    print(f"{mismatches} of {len(pinned['digests'])} pinned digest(s) differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

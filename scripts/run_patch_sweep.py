#!/usr/bin/env python3
"""Full critical-patch-size sweep: 50 log-spaced half-widths on [1, 100].

The sweep itself takes about 0.6 s on a 2-vCPU Intel Xeon machine (0.8 s
for the whole process; a stalled two-thread BLAS inverse can add 1 s);
pass --preset fast for the reduced 20-point ordering check (about 0.1 s,
0.35 s for the process).  Extra flags are forwarded to the
`vegpatch sweep` command.
"""
import sys

from vegpatch.cli import main

if __name__ == "__main__":
    args = sys.argv[1:]
    if not any(a.startswith("--preset") for a in args):
        args = ["--preset", "full"] + args
    if not any(a.startswith("--out") for a in args):
        args += ["--out", "runs/patch-sweep"]
    sys.exit(main(["sweep", "--check"] + args))

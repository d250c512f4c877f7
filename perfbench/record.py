"""Record the reference outputs that the benchmark checks CLI calls against.

Run from the root of a checkout of the package version the references should
pin (they were recorded from the seed package, whose outputs are the
reference for every later version):

    python3 perfbench/record.py

It runs each call in workloads.REFERENCE_CALLS, refuses to record one whose
exit code differs from the expected one, and writes stdout to perfbench/reference/.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402


def main() -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name, (argv, want_code) in workloads.REFERENCE_CALLS.items():
        code, text = workloads.cli_call(argv)
        if code != want_code:
            print(f"{' '.join(argv)}: exit {code}, expected {want_code}", file=sys.stderr)
            return 1
        with open(os.path.join(workloads.REFERENCE_DIR, name), "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        print(f"recorded {name}: {' '.join(argv)} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

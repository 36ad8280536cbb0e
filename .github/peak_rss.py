"""Run a command and fail when its peak resident set reaches a bound.

Usage::

    python .github/peak_rss.py BOUND_MB COMMAND [ARGS...]

The command's output passes through.  Its peak resident set, read from the
children's ``ru_maxrss``, is written to stderr as ``peak N.N MB``.  Exits 1
when the command fails or its peak is at least BOUND_MB megabytes.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    bound = float(argv[0])
    subprocess.run(argv[1:], check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak {peak:.1f} MB", file=sys.stderr)
    return int(peak >= bound)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

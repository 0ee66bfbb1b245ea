"""Fixed reference work that measures how fast the host runs right now.

    python perfbench/yardstick.py

The benchmark's host is a share of a machine whose speed drifts by up to
about 2x over minutes, in CPU time as much as in wall time, so the drift
cannot be measured away.  The benchmark spawns this script after every
set-up and after every timed call, the same way it spawns a CLI call, and
scales the run's end-to-end times by REFERENCE_S over the median of its
wall times: times are reported as they would have been on the host at its
reference speed.  The script never touches `auditgame`, so no change to
the program can move it.

Like a CLI call it starts an interpreter and imports modules, then it does
a fixed mix of what the program spends its time on: `Fraction` arithmetic
(the exact LP and the rational sweeps), float arithmetic, dict and string
work (config parsing, CSV rendering, JSON) and a hash in C (the ledger's
signatures run in C).
"""

import hashlib
import json
from fractions import Fraction

# Wall seconds from spawn to exit of this script on the reference VM (2
# vCPUs, Python 3.11.7).  It only sets the scale of the reported times.
REFERENCE_S = 0.130


def work():
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
    x = 0.0
    for i in range(60000):
        x = x * 0.999 + (i % 13) * 1.5e-3
    table = {}
    for i in range(40000):
        key = f"k{i % 1500}"
        table[key] = table.get(key, 0) + i * i
    text = json.dumps(table, sort_keys=True)
    digest = hashlib.sha256()
    block = text.encode()
    for _ in range(40):
        digest.update(block)
    return total, x, len(json.loads(text)), digest.hexdigest()


if __name__ == "__main__":
    work()

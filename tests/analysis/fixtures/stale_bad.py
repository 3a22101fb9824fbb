"""Seeded REPRO-LINT001 violations: directives matching no finding.

Three distinct stale shapes: a per-line suppression for a rule that
does not fire on that line, a file-wide suppression for a rule that
fires nowhere in the file, and a suppression naming a rule id that
does not exist at all.
"""
# repro-lint: disable-file=REPRO-RNG001

import numpy as np

VALUES = np.zeros(4)  # repro-lint: disable=REPRO-FLOAT001
TOTAL = 0.0  # repro-lint: disable=REPRO-NOPE999

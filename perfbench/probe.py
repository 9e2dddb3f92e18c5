"""Set-up probe: import the program as a user's first command would, then report.

Prints one JSON line with the seconds each import took, in order, as soon as
`aoa_lab` is imported and its argument parser built.  The harness times the
whole probe, from process start to that line, as `setup_s`.  Only `sys`,
`os` and `time` (all loaded with the interpreter) are used before the line
is printed.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import numpy  # noqa: E402

t1 = time.perf_counter()
import scipy.sparse  # noqa: E402

t2 = time.perf_counter()
import aoa_lab.cli  # noqa: E402

aoa_lab.cli.build_parser()
t3 = time.perf_counter()
print(f'{{"numpy_s": {t1 - t0!r}, "scipy_sparse_s": {t2 - t1!r}, "aoa_lab_s": {t3 - t2!r}}}',
      flush=True)

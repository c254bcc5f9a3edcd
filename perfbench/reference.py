"""A fixed reference kernel, independent of pfstrip, timed in every operation's process.

On a shared host the same process can run 1.3-2x slower for minutes at a
time, so wall times of runs made minutes apart differ by more than any
useful bound.  The kernel runs in the operation's own process right after
the timed operation and is made of the same kinds of work as pfstrip's:
interpreted Python arithmetic, small numpy element-wise operations and a
96x96 five-point CSR matvec.  It runs for a fixed share of the operation's
own time, so long operations get a long sample.  ``run_rel`` divides the
summed wall time of a run's operations by the summed time of this kernel,
which cancels most of the host's slow phases; the code it times never
changes with the program.
"""

from __future__ import annotations

import time

N = 96
BATCH = 100   # kernel rounds between clock reads
ROUNDS = 1000  # ref_s is the time of this many rounds


def _laplacian():
    import numpy as np
    import scipy.sparse as sp

    one = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(N, N), format="csr")
    eye = sp.identity(N, format="csr")
    return (sp.kron(eye, one) + sp.kron(one, eye)).tocsr(), np.linspace(0.0, 1.0, N * N)


def kernel_s(min_s: float) -> float:
    """Run the kernel for at least `min_s` seconds; return the time of ROUNDS rounds.

    ROUNDS rounds take about 0.15 s on one 2.0 GHz Xeon vCPU.
    """
    import numpy as np

    a, z = _laplacian()
    w = np.zeros_like(z)
    small = np.linspace(0.1, 0.9, 40)
    acc, rounds = 0.0, 0
    t0 = time.perf_counter()
    while True:
        for _ in range(BATCH):
            # w tends to 2 a.z: every value stays a normal float, so the cost of a
            # round does not change with the number of rounds
            w = 0.5 * w + a @ z
            for _ in range(4):
                small = np.log(small) * 0.0 + np.sqrt(small * small)
            for k in range(300):
                acc += (k % 7) * 0.5
        rounds += BATCH
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            break
    if acc <= 0.0:
        raise AssertionError("unreachable: keeps the loop's result in use")
    return elapsed * ROUNDS / rounds

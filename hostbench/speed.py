"""The speed check: how fast the host runs right now.

On a host whose cores are shared with other tenants, the same op can take
twice as long for minutes at a time (NOTES.md, "Host slowdown"). The
benchmark times this check next to its own ops and reports its times
divided by the host slowdown, the check's time over :data:`REF_S`.

The check runs one fixed kernel of each kind of work the simulator does:
a pure-Python loop (the interpreter), JSON encoding of small dicts (object
traversal and string building), a random fill of a 4 MB array (memory
traffic), a float32 GEMM (BLAS) and zlib compression of float32 data
(snapshots). Its inputs are built once, when a
:class:`SpeedCheck` is made, and no kernel reads program data, so only the
host moves it.
"""

from __future__ import annotations

import json
import time
import zlib

#: Seconds the check takes on the reference host (the 2-core Xeon VM of
#: NOTES.md) while quiet, estimated from its fastest runs there. Only the
#: scale of the reported times depends on it.
REF_S = 0.040

class SpeedCheck:
    """The check's inputs, built once; calling it times one pass."""

    def __init__(self) -> None:
        import numpy as np

        self.doc = [
            {"name": f"span{i}", "ts": i * 1.5, "dur": 0.25, "args": {"rank": i % 64}}
            for i in range(4000)
        ]
        self.fill = np.empty(1 << 20, dtype=np.float32)
        self.rng = np.random.default_rng(1)
        self.a = np.random.default_rng(0).standard_normal((512, 512)).astype(np.float32)
        self.blob = self.a[:128].tobytes()

    def __call__(self) -> float:
        """Seconds one pass of the five kernels takes now."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        json.dumps(self.doc)
        self.rng.standard_normal(out=self.fill, dtype=self.fill.dtype)
        self.a @ self.a
        zlib.compress(self.blob, 6)
        return time.perf_counter() - t0

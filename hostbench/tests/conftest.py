"""Make the benchmark's modules and the ``repro`` sources importable, and
run the tests under the benchmark's pinned interpreter settings."""

import os
import sys

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (HOSTBENCH, os.path.join(os.path.dirname(HOSTBENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from pinned import ENV  # noqa: E402

if "numpy" in sys.modules and any(os.environ.get(k) != v for k, v in ENV.items()):
    raise RuntimeError(
        "NumPy loaded before the benchmark's BLAS settings; run these tests "
        "on their own: python -m pytest hostbench/tests"
    )
os.environ.update(ENV)

"""Process set-up shared by the benchmark's scripts."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin BLAS/OpenMP to one thread and import gnwaves from the checkout's
    own src/. Call before numpy is imported; exits when src/ is missing."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "gnwaves", "__init__.py")):
        sys.exit(f"perfbench: no gnwaves package under {SRC}")
    sys.path.insert(0, SRC)

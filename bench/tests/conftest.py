"""Path set-up for the benchmark's own tests.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the
repository root; kept out of the tier-1 ``testpaths`` on purpose (the
smoke tests start pools, services and clusters).
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

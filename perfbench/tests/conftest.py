"""Import the benchmark modules and the program from this checkout.

Inherited ``REPRO_*`` variables are dropped before anything imports
the program, as the benchmark itself does for its children.
"""

import os
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]
os.environ["REPRO_LEDGER"] = "0"

"""Set-up probe: import replab and parse the given configs, then report when.

Usage: ``python3 probe_setup.py SRC_DIR CONFIG...``.  Prints the
``time.monotonic()`` reading taken once the configs are parsed; the parent
subtracts the reading it took just before starting this process.  Until
that reading the probe imports nothing of the benchmark, so its time is
replab's own start-up: the interpreter, ``replab.cli`` with numpy and
click, and config parsing.  After it the probe runs the reference loop and
prints its time too, so that the parent can scale the set-up time by the
speed of the core this process ran on.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from replab.cli import parse_config  # noqa: E402

for config in sys.argv[2:]:
    parse_config(config)
parsed = time.monotonic()

from reference import reference_loop  # noqa: E402

print(repr(parsed), repr(reference_loop()))

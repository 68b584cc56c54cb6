"""Set-up target for ``setup_s``: everything a command does before its first solve.

Usage: python3 perfbench/setup_probe.py CONFIG SEED

Imports rimlab, loads the config, builds the problem (which samples the
Wiener path) and derives the OU process, then prints the imported package's
file so the caller can check which source tree ran.  The caller times the
whole process.
"""

import sys

import rimlab.cli  # noqa: F401  (a CLI command imports the same modules)
from rimlab.config import build_problem, load_config

problem = build_problem(load_config(sys.argv[1]), int(sys.argv[2]))
problem.ou
print(sys.modules["rimlab"].__file__)

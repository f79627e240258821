"""SL: a small generic-programming language with pluggable coherence policies.

The toolchain is a conventional pipeline: parse -> check -> definition-site
coherence checks -> link -> elaborate to a dictionary-passing core -> run.
"""

import sys

# Checking and normalization recurse over terms that legitimately grow deep
# (the normalizer's step limit alone permits ~1000 nested constructors).
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)

__version__ = "0.1.0"

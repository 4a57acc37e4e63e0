"""Check that every file named on the command line is strict JSON: it parses,
and holds no NaN, Infinity or -Infinity.  Prints "<file> ok" per file and
exits non-zero at the first file that is not.

    python3 .github/strict_json.py FILE [FILE ...]
"""

import json
import sys

for path in sys.argv[1:]:
    with open(path) as f:
        json.load(f, parse_constant=lambda c: sys.exit(f"{path}: non-strict {c}"))
    print(path, "ok")

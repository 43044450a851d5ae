#!/usr/bin/env python3
"""Entry point for the turtlint static analyzer.

Thin wrapper so the documented invocation (`scripts/turtlint.py`) works;
the implementation lives in tools/turtlint/turtlint.py. Usage:

    scripts/turtlint.py                     # whole repo, all rules
    scripts/turtlint.py --rules H1,H2       # the header conventions only
    scripts/turtlint.py -p build src/serve  # compile_commands-driven, scoped
    scripts/turtlint.py --list-rules
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools", "turtlint"))

from turtlint import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

"""Entry point of ``python -m tests.golden --write`` (see the package docstring)."""

import os
import sys

# The test modules do a plain ``import golden`` (tests/ is on their path);
# record through that same module instance, not the ``tests.golden`` twin.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from golden import main  # noqa: E402

sys.exit(main())

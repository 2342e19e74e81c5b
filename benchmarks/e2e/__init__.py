"""Outside-in wall-clock benchmark of the repro stack (see README.md).

Run from the repository root::

    python -m benchmarks.e2e run --workload dmr-refine

The benchmark times calls into public functions, HTTP responses and
``GET /stats``; it changes nothing under ``src/``.  Importing this
package puts ``src/`` on ``sys.path`` so the command needs no
``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

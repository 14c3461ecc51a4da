"""Locate the phaselab source tree of the checkout this benchmark lives in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def add_source_path():
    """Put the checkout's src/ first on sys.path, or exit with code 2 if it is missing.

    The benchmark measures the phaselab it ships with, never an installed copy.
    """
    if not (SRC / "phaselab" / "__init__.py").is_file():
        print(f"perfbench: no phaselab source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

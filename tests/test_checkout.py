"""The tests import the tvasr of this checkout, whatever else is installed
or on PYTHONPATH: pyproject.toml puts src/ first on pytest's path, as
benchmarks/run.py checks for its own runs."""

from pathlib import Path

import tvasr

SRC = Path(__file__).resolve().parents[1] / "src" / "tvasr"


def test_tvasr_is_imported_from_this_checkout():
    assert Path(tvasr.__file__).resolve().parent == SRC.resolve()

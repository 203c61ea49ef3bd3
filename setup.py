"""Packaging for the `repro` library (``src/repro``, src layout).

``pip install -e .`` installs it in place; offline, add
``--no-build-isolation`` so pip uses the installed ``setuptools`` and
``wheel`` instead of fetching them.  Where ``wheel`` is missing,
``python setup.py develop`` does the same with ``setuptools`` alone.
The version is read from ``src/repro/__init__.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)

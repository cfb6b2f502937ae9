"""Packaging for the repro distribution.

Kept as a plain ``setup.py`` (no ``wheel``/PEP 517 requirement) so
``pip install -e . --no-use-pep517`` works on minimal offline systems.
The ``repro-experiments`` console script is the CLI front door of the
declarative experiment pipeline (``repro.experiments.cli``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One source for the version: the package's own ``__version__``.
_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro-gpu-sync",
    version=VERSION,
    description=(
        "Reproduction of 'A Study of Single and Multi-device "
        "Synchronization Methods in Nvidia GPUs' on simulated machines"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
    ],
    entry_points={
        "console_scripts": [
            "repro-experiments = repro.experiments.cli:main",
            "repro-lint = repro.sanitize.lint:main",
        ],
    },
)

"""Package metadata (single-sourced version, declared dependencies).

Kept as a plain ``setup.py`` so fully offline machines without the
``wheel`` package can still install via ``python setup.py develop``
(modern pip builds editable installs through PEP 660, which needs it).
The version is read from ``src/repro/_version.py`` — the single source of
truth — rather than being restated here.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    text = Path(__file__).parent.joinpath("src", "repro", "_version.py").read_text()
    match = re.search(r'__version__\s*=\s*"([^"]+)"', text)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/_version.py")
    return match.group(1)


setup(
    name="walk-not-wait-repro",
    version=read_version(),
    description=(
        "Reproduction of 'Walk, Not Wait: Faster Sampling Over Online "
        "Social Networks' (VLDB 2015)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["walk-not-wait = repro.cli:main"]},
    install_requires=[
        "numpy>=1.22",
        "networkx>=2.6",
        # repro.theory.theorem1 needs scipy.special.lambertw.
        "scipy",
    ],
    extras_require={
        "dev": [
            "pytest>=7",
            "pytest-benchmark",
            "hypothesis",
        ],
        # The JIT walk-kernel backend (repro.walks.kernels "native").
        # Optional: without it the package runs on the NumPy reference
        # kernels; 0.57 is the first numba with np.random.Generator
        # support in nopython code (bit-identical streams).
        "native": [
            "numba>=0.57",
        ],
        # The HTTP adapter (repro.service.server.create_app) plus the
        # test client it is exercised with.  Optional: the core service
        # runs fully in-process without either.
        "service": [
            "fastapi",
            "httpx",
        ],
    },
)

"""Setuptools configuration.

No pyproject.toml on purpose: ``pip install -e .`` must also work on
minimal/offline environments where the ``wheel`` package (needed for
PEP 660 editable wheels) is unavailable and pip falls back to the legacy
editable install path, so everything lives in this single legacy-friendly
file.

The core package is pure Python with zero hard dependencies -- the int
field kernel is always available.  The accelerated kernel is an optional
extra:

    pip install -e ".[numpy]"   # uint64 limb-split kernel (moduli < 2^62)
"""

from setuptools import find_packages, setup

setup(
    name="repro-appancc22",
    version="0.5.0",
    description=(
        "Reproduction of perfectly-secure synchronous MPC building blocks "
        "(Appan, Chandramouli, Choudhury, PODC 2022) over GF(p)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[],
    extras_require={
        "numpy": ["numpy>=1.24"],
    },
)

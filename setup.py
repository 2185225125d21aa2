"""Setup shim.

This environment ships setuptools without the ``wheel`` package, so PEP
517 editable installs (which build a wheel) fail offline.  Keeping a
``setup.py`` and no ``[build-system]`` table lets ``pip install -e .``
use the legacy ``setup.py develop`` path, which needs no wheel.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)

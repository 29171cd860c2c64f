"""Package metadata.

Metadata intentionally lives here (not pyproject.toml): the presence of
a pyproject.toml makes pip use PEP 517 build isolation, which requires
network access to fetch setuptools/wheel — this project targets offline
environments, where the legacy ``setup.py develop`` editable path works
out of the box.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of ArchGym: An Open-Source Gymnasium for "
        "ML-Assisted Architecture Design (ISCA 2023)"
    ),
    long_description=open("README.md").read(),
    long_description_content_type="text/markdown",
    license="Apache-2.0",
    author="ArchGym Reproduction Authors",
    python_requires=">=3.9",
    install_requires=["numpy>=1.23", "scipy>=1.9", "networkx>=2.8"],
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis"]},
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)

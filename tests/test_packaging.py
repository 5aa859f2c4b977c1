"""The package installs as declared."""

from pathlib import Path

from setuptools import find_packages

SRC = Path(__file__).resolve().parent.parent / "src"


def test_find_packages_sees_rieszlab():
    assert find_packages(str(SRC)) == ["rieszlab"]

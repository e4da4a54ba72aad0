"""Legacy build shim: all metadata lives in ``pyproject.toml``.

Kept only for tools that still call ``setup.py`` directly
(``python setup.py develop``, or editable installs with pip < 21.3).
"""

from setuptools import setup

setup()

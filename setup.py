"""A bare setuptools call that passes no metadata.

setuptools' automatic discovery finds the `repro` package under `src/`
and names the distribution after it, at version 0.0.0.  Nothing
declares a dependency (numpy) or a console script, and the repository
has no pyproject.toml, so no install provides a `cn-probase` command.
Run the code from the checkout instead:
`PYTHONPATH=src python -m repro.cli --help`.
"""

from setuptools import setup

setup()

"""``python -m rotavg``: the same command line as the ``rotavg`` script."""

from .cli import entry

entry()

"""``python -m fairmix``: the same command line as the ``fairmix`` script."""

from .cli import entry_point

entry_point()

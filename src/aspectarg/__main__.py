"""``python -m aspectarg``: the ``aspectarg`` command, with its exit codes."""

from .cli import run

raise SystemExit(run())

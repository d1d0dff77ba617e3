"""``python -m opbar``: the command-line interface of ``opbar.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

    opbar verify [--max-arity N]

runs the acceptance criteria of ``opbar.verify``, prints each verdict
line as its criterion finishes and exits with status 1 if any fails.
"""

from __future__ import annotations

import argparse

from .errors import BoundsError
from .verify import run_all


def main(argv=None):
    parser = argparse.ArgumentParser(prog="opbar")
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="run the acceptance criteria")
    verify.add_argument("--max-arity", type=int, default=5,
                        help="largest arity checked, 2..5 (default 5)")
    args = parser.parse_args(argv)
    try:
        results = run_all(args.max_arity,
                          progress=lambda r: print(r.line(), flush=True))
    except BoundsError as exc:
        parser.error(str(exc))
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())

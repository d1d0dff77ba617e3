"""Command-line interface.

    opbar verify [--max-arity N] [--criterion K] [--json]

runs the acceptance criteria of ``opbar.verify`` (only criterion K, 1..11,
when given), prints each verdict line as its criterion finishes and exits
with status 1 if any fails.  With ``--json`` each verdict is printed as one
JSON object with keys number, name, passed, detail and seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

from .errors import BoundsError
from .verify import CRITERIA, run_all, run_criterion


def main(argv=None):
    parser = argparse.ArgumentParser(prog="opbar")
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="run the acceptance criteria")
    verify.add_argument("--max-arity", type=int, default=5,
                        help="largest arity checked, 2..5 (default 5)")
    verify.add_argument("--criterion", type=int,
                        help=f"run only this criterion, 1..{len(CRITERIA)}")
    verify.add_argument("--json", action="store_true",
                        help="print each verdict as one JSON object")
    args = parser.parse_args(argv)

    def report(result):
        line = (json.dumps(dataclasses.asdict(result)) if args.json
                else result.line())
        print(line, flush=True)

    try:
        if args.criterion is None:
            results = run_all(args.max_arity, progress=report)
        else:
            results = [run_criterion(args.criterion,
                                     max_arity=args.max_arity)]
            report(results[0])
    except BoundsError as exc:
        verify.error(str(exc))
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())

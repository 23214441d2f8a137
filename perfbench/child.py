"""Run one sketchbench CLI command in this process and record when its units start.

    python perfbench/child.py --stamp FILE [--setup-only] [--trace] -- <cli args>

The first call to a sketch constructor marks the start of the first work unit;
its CLOCK_MONOTONIC time goes to FILE as JSON, which the parent compares with
the time it launched this process (the clock is system-wide on Linux).  With
``--setup-only`` the process ends right there, so set-up can be timed many
times cheaply.  With ``--trace`` every public sketchbench function is wrapped
in a span first, and the span summary goes to FILE as well.  The CLI's exit
code is passed through.  Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from sketchbench import cli

    import tracer

    def stop_at_first_unit(t: float) -> None:
        _write(args.stamp, {"rc": None, "t_first": t})
        os._exit(0)

    patcher = tracer.Patcher()
    first = tracer.FirstCall(on_first=stop_at_first_unit if args.setup_only else None)
    spans = None
    if args.trace:
        spans = tracer.Tracer(first)
        spans.install(patcher)
    first.install(patcher)
    rc = cli.main(cli_args)
    record = {"rc": rc, "t_first": first.t}
    if spans is not None:
        record["trace"] = spans.summary()
    _write(args.stamp, record)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""``python -m repro.analysis`` — run every static pass over the tree.

Exit status 0 when no unsuppressed error-severity findings remain,
1 otherwise, 2 on usage errors (e.g. a malformed allowlist).  The CI
``analysis`` job runs ``--format=json --output analysis-report.json``
and uploads the report as an artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import run_all, store_spec_table
from repro.analysis.report import AllowlistError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Concurrency lint + store-invariant verifier for the parallel runtime.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--root", default=None, help="path findings are reported relative to"
    )
    parser.add_argument(
        "--allowlist",
        default=None,
        help="allowlist file (default: the repo's .analysis-allowlist if found)",
    )
    parser.add_argument(
        "--output", default=None, help="write the report here as well as stdout"
    )
    parser.add_argument(
        "--store-spec",
        action="store_true",
        help="print the store-invariant spec table (markdown) and exit",
    )
    args = parser.parse_args(argv)

    if args.store_spec:
        print(store_spec_table())
        return 0

    try:
        report = run_all(
            paths=args.paths or None,
            root=args.root,
            allowlist_path=args.allowlist,
        )
    except AllowlistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rendered = report.to_json() if args.fmt == "json" else report.format_text()
    print(rendered)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

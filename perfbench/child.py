"""Run one kaware CLI command with spans recorded (the traced run's child).

    python perfbench/child.py SPANS.json RUN_ID <kaware cli arguments...>

The untraced run starts ``python -m kaware.cli`` instead; both go through
``kaware.cli.main``.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    tracer.install()
    import kaware.cli
    try:
        return kaware.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

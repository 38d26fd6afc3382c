"""Run one ``rppi`` command with the benchmark's spans installed.

    python bench/traced_cli.py STATS.json <rppi arguments>

The command runs through ``rppi.cli.main`` in this process; the span
statistics are written to STATS.json and the exit code is the command's.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import rppi.cli
    tracing.install()
    code = rppi.cli.main(argv)
    Path(stats_path).write_text(json.dumps(tracing.TRACER.stats()))
    return code


if __name__ == "__main__":
    sys.exit(main())

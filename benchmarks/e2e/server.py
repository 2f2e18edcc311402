"""Traced-pass launcher: ``python server.py <repro.cli arguments>``.

Installs the boundary spans, then hands over to the program's own CLI.  The
CLI writes its span buffer to ``--trace-out`` when it exits; a server about
to be SIGKILLed never gets there, so SIGUSR1 dumps the buffer to
``<trace-out>.usr1`` first (written aside, then renamed, so a reader never
sees half a file).
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv) -> int:
    import boundary
    from repro import cli
    from repro.obs import trace

    boundary.install()
    if "--trace-out" in argv:
        target = argv[argv.index("--trace-out") + 1] + ".usr1"

        def dump(signum, frame):
            trace.export_jsonl(target + ".part")
            os.replace(target + ".part", target)
        signal.signal(signal.SIGUSR1, dump)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

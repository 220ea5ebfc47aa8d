"""Admission-service process of the ``serve-closed`` workload.

    python3 perfbench/serve_launcher.py [--trace]

Runs ``repro serve run --host 127.0.0.1 --port 0`` in this process.
With ``--trace`` the per-layer ledger is installed before the service
starts; SIGUSR1 zeroes it at the start of the timed phase, SIGUSR2
freezes a copy at its end, and the copy is printed as one
``LEDGER {...}`` line when the service exits on SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    from common import die_with_parent

    die_with_parent()
    ledger = None
    frozen = {}
    if args.trace:
        from ledger import Ledger, install_serve

        ledger = Ledger()
        install_serve(ledger)
        signal.signal(signal.SIGUSR1, lambda *_: ledger.reset())
        signal.signal(signal.SIGUSR2,
                      lambda *_: frozen.update(raw=ledger.raw()))

    from repro.cli import main as repro_main

    code = repro_main(["serve", "run", "--host", "127.0.0.1",
                       "--port", "0"])
    if ledger is not None:
        raw = frozen.get("raw") or ledger.raw()
        print("LEDGER " + json.dumps(raw), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

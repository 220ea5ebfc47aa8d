"""One workload in a fresh process (started by ``run.py``).

Prints one JSON line: the set-up time (from the parent's spawn to the
moment measuring could start) and, unless ``--setup-only``, the
workload's metrics, attempted operations and errors.
"""

from __future__ import annotations

import argparse
import time

import common


def build(name: str, seed: int, seconds: float):
    if name == "fig4-paper":
        import fig4_paper

        return fig4_paper.Workload(seed, seconds)
    if name == "online-sharded":
        import online_sharded

        return online_sharded.Workload(seed, seconds)
    if name == "serve-closed":
        import serve_closed

        return serve_closed.Workload(seed, seconds)
    raise SystemExit(f"unknown workload {name!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before the spawn")
    args = parser.parse_args()
    common.die_with_parent()

    workload = build(args.workload, args.seed, args.seconds)
    try:
        workload.setup()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            common.emit({"setup_s": setup_s})
            return
        outcome = workload.trace() if args.trace else workload.measure()
    finally:
        workload.close()
    outcome["setup_s"] = setup_s
    common.emit(outcome)


if __name__ == "__main__":
    main()

"""Regenerate the committed expected outputs in ``expected/``.

    PYTHONPATH=src python3 perfbench/make_expected.py WORKLOAD

``fig4-paper``: per point and case seed, the accept bits of DM, DMR,
OPDCA, OPT and DCMP (panels 4a-c) or the rejected heaviness of the
OPDCA, DMR and DM admission controllers (panel 4d).
``online-sharded``: per stream of a pass, the digest of an offline
``engine.run()``'s decision records.
``serve-closed``: per tenant stream seed, the digest of an offline
``engine.run()``'s records and final admitted set.

Run it only when a change is meant to alter decisions; the benchmark
counts any difference from these files as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import fig4_paper  # noqa: E402
import online_sharded  # noqa: E402
import serve_closed  # noqa: E402


def fig4_case(task):
    key, case_seed = task
    evaluator = fig4_paper.Evaluator()
    workload = dict(evaluator.points)[key]
    outcome, _result = evaluator.run(key, workload, case_seed)
    return key, case_seed, outcome


def online_stream(index):
    stream = online_sharded.make_stream(index)
    result = online_sharded.make_engine(stream).run()
    return str(index), common.digest(online_sharded.decision_rows(result))


def serve_tenant(seed):
    return str(seed), serve_closed.offline_digest(
        serve_closed.tenant_spec(seed))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=(
        "fig4-paper", "online-sharded", "serve-closed"))
    args = parser.parse_args()

    context = multiprocessing.get_context("spawn")
    with context.Pool(len(os.sched_getaffinity(0))) as pool:
        if args.workload == "fig4-paper":
            tasks = [(key, seed) for seed in range(fig4_paper.ROUNDS)
                     for key, _ in fig4_paper.points()]
            expected = {key: {} for key, _ in fig4_paper.points()}
            for key, seed, outcome in pool.imap(fig4_case, tasks,
                                                chunksize=4):
                expected[key][str(seed)] = outcome
        elif args.workload == "serve-closed":
            expected = dict(pool.imap(serve_tenant,
                                      range(serve_closed.TENANTS)))
        else:
            expected = dict(pool.imap(online_stream,
                                      range(online_sharded.STREAMS)))
    path = os.path.join(HERE, "expected", f"{args.workload}.json")
    with open(path, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

"""Check a CLI-started admission service's trace store end to end.

    PYTHONPATH=src python scripts/check_serve_trace.py

Starts ``python -m repro serve run --port 0`` as its own process,
creates a tenant, sends its first admit with ``X-Trace-Id: ci-1`` and
asserts that ``GET /v1/traces/ci-1`` answers 200 with exactly one
``serve.event`` span.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys

from repro.online.engine import OnlineScenarioSpec, stream_events
from repro.online.streams import StreamConfig, generate_stream
from repro.serve.tenants import scenario_to_dict
from repro.workload.random_jobs import RandomInstanceConfig

TRACE_ID = "ci-1"
SPEC = OnlineScenarioSpec(stream=StreamConfig(
    horizon=20.0, rate=0.8, pool_size=6,
    workload=RandomInstanceConfig(num_jobs=6, num_stages=2,
                                  resources_per_stage=2)), seed=0)


def request(connection, method, path, payload=None, headers=None):
    body = None if payload is None else json.dumps(payload)
    connection.request(method, path, body=body, headers=headers or {})
    response = connection.getresponse()
    return response.status, json.loads(response.read() or b"null")


def check(host: str, port: int) -> "list[str]":
    connection = http.client.HTTPConnection(host, port, timeout=30)
    status, body = request(connection, "POST", "/v1/tenants", {
        "name": "t", "scenario": scenario_to_dict(SPEC)})
    if status != 201:
        return [f"create tenant: HTTP {status} {body}"]
    now, _kind, uid = stream_events(
        generate_stream(SPEC.stream, seed=SPEC.seed))[0]
    status, body = request(
        connection, "POST", "/v1/admit",
        {"tenant": "t", "uid": uid, "time": now},
        {"X-Trace-Id": TRACE_ID})
    if status != 200:
        return [f"admit: HTTP {status} {body}"]
    status, trace = request(connection, "GET", f"/v1/traces/{TRACE_ID}")
    if status != 200:
        return [f"GET /v1/traces/{TRACE_ID}: HTTP {status} {trace}"]
    names = [span["name"] for span in trace["spans"]]
    if names != ["serve.event"]:
        return [f"trace {TRACE_ID} holds spans {names}, "
                f"expected one serve.event"]
    return []


def main() -> int:
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "run", "--port", "0"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = server.stdout.readline()
        if not line.startswith("serving on http://"):
            print(f"the service did not start: {line!r}")
            return 1
        host, _, port = line.split("http://", 1)[1].split()[0] \
            .rpartition(":")
        errors = check(host, int(port))
    finally:
        server.terminate()
        server.wait(timeout=30)
    for error in errors:
        print(f"FAIL {error}")
    if not errors:
        print(f"trace {TRACE_ID}: one serve.event span")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Golden digests of the single-cell online driver.

``single_cell_golden.json`` holds SHA-256 digests recorded from the
dedicated single-cell stream driver that ``OnlineAdmissionEngine``
used to be, before it became the 1-shard case of
``ShardedAdmissionEngine``.  Each digest covers the run's
``deterministic_dict()`` (minus the sharding fields the old driver did
not report) plus its ``record_decisions`` log, so the unified engine
must reproduce every decision, record and summary counter bit for bit.

Regenerate (only when a decision is *meant* to change) with::

    PYTHONPATH=src python tests/online/test_single_cell_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.online.engine import OnlineAdmissionEngine
from repro.online.streams import StreamConfig, generate_stream, save_stream

GOLDEN_PATH = Path(__file__).with_name("single_cell_golden.json")

_KINDS = ("poisson", "mmpp", "diurnal", "replay")

#: Engine variations run on every stream kind.
_VARIANTS = {
    "base": {},
    "cold": {"mode": "cold"},
    "reference": {"kernel": "reference"},
    "noretry": {"retry_limit": 0},
    "validate": {"validate_every": 2},
}


def _cases() -> "dict[str, dict]":
    cases = {}
    for kind in _KINDS:
        for name, engine in _VARIANTS.items():
            cases[f"{kind}-{name}"] = {
                "stream": {"kind": kind, "seed": 3 + _KINDS.index(kind)},
                "engine": engine}
    for name, engine in (("base", {}), ("cold", {"mode": "cold"})):
        cases[f"edge-eq10-{name}"] = {
            "stream": {"kind": "poisson", "seed": 5,
                       "generator": "edge", "rate": 1.5,
                       "horizon": 40.0},
            "engine": {"policy": "eq10", **engine}}
    cases["poisson-nonpreemptive"] = {
        "stream": {"kind": "poisson", "seed": 7},
        "engine": {"policy": "nonpreemptive"}}
    return cases


CASES = _cases()


def _stream(spec: dict, workdir: Path):
    spec = dict(spec)
    seed = spec.pop("seed")
    kind = spec.pop("kind")
    options = {"horizon": 80.0, "rate": 0.6, "dwell_scale": 1.5}
    options.update(spec)
    if kind != "replay":
        return generate_stream(StreamConfig(kind=kind, **options),
                               seed=seed)
    path = workdir / "trace.jsonl"
    save_stream(generate_stream(StreamConfig(**options), seed=seed), path)
    return generate_stream(
        StreamConfig(kind="replay", replay_path=str(path)), seed=seed)


def _result_of(result) -> "list | None":
    if result is None:
        return None
    return [[int(i) for i in result.accepted],
            [int(i) for i in result.rejected],
            [int(i) for i in result.ordering]]


def run_digest(case: dict, workdir: Path) -> str:
    """Digest of one case's deterministic outcome and decision log."""
    stream = _stream(case["stream"], workdir)
    engine = OnlineAdmissionEngine(stream, record_decisions=True,
                                   **case["engine"])
    payload = engine.run().deterministic_dict()
    payload.pop("shards")
    payload["summary"].pop("sharding", None)
    payload["decisions"] = [
        [int(index), kind, int(uid), [int(u) for u in candidate],
         _result_of(result)]
        for index, kind, uid, candidate, result in engine.decisions]
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _golden() -> "dict[str, str]":
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)
    assert len(CASES) >= 23


@pytest.mark.parametrize("name", sorted(CASES))
def test_unified_engine_reproduces_single_cell_digest(name, tmp_path):
    assert run_digest(CASES[name], tmp_path) == _golden()[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = {name: run_digest(case, Path(scratch))
                   for name, case in sorted(CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")

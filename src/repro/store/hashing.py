"""Deterministic content hashes for cacheable work items.

Every entry of the result store is addressed by a SHA-256 digest of a
canonical JSON payload (:func:`repro.core.serialize.canonical_dumps`),
so the same scenario hashes identically in every process, on every
platform, for any worker count.

Two kinds of keys exist:

* :func:`spec_hash` -- one :class:`~repro.experiments.parallel.ScenarioSpec`
  (workload config + seed + approach set + equation + OPT backend);
* :func:`call_hash` -- one generic ``(name, argtuple)`` work item of
  :func:`~repro.experiments.parallel.parallel_map`.

Both mix in a *cache salt*: bump :data:`CACHE_SALT` whenever a change
anywhere in the evaluation stack (analyzer, solvers, generators) can
alter results, and every previously stored entry silently becomes
stale -- ``repro store gc`` reclaims the space.
"""

from __future__ import annotations

import hashlib

from repro.core.serialize import canonical_dumps

#: Code-relevant version salt.  Part of every content hash: bump it
#: when evaluation semantics change so stale results can never be
#: served.  The repro package version is folded in as well, making
#: every release a cache boundary by default.
CACHE_SALT = "store-v2"


def _package_version() -> str:
    from repro import __version__

    return __version__


def full_salt(salt: str = CACHE_SALT) -> str:
    """The effective salt: explicit salt + package version."""
    return f"{salt}:repro-{_package_version()}"


def hash_payload(payload) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    text = canonical_dumps(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_hash(spec, *, salt: str = CACHE_SALT) -> str:
    """Content hash of one scenario spec.

    Covers the workload configuration (every field, via the dataclass
    reduction), the seed, the generator name, the equation, the
    approach set and the OPT backend -- everything that determines a
    :class:`~repro.experiments.runner.CaseResult` -- plus the salt.
    """
    payload = {
        "kind": "scenario",
        "salt": full_salt(salt),
        "spec": spec,
    }
    return hash_payload(payload)


def call_hash(name: str, args, *, salt: str = CACHE_SALT) -> str:
    """Content hash of one generic ``parallel_map`` work item.

    ``name`` must uniquely identify the mapped function's semantics
    (e.g. ``"fig4d/admission"``); ``args`` is its argument tuple.
    """
    payload = {
        "kind": "call",
        "salt": full_salt(salt),
        "name": name,
        "args": list(args),
    }
    return hash_payload(payload)

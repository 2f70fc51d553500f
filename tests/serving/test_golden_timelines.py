"""Golden timeline signatures: the serving stack's behaviour, pinned by hash.

Each configuration of a fixed matrix is served once and reduced to one
SHA-256 signature over everything the run observably produced:

* per-request arrival, admit, first-token and finish times and terminal
  state (stored-sample runs only — streaming runs keep no requests);
* the result's ``as_row()`` and ``admission_stats``;
* for sharded results, every shard's ``as_row()`` and the ``fault_stats``.

Floats are written with ``repr``, so a signature changes on any bit of
any timestamp.  The committed signatures are the oracle refactors of the
serving loop are checked against, in place of tests that run two
implementations side by side.

Regenerate (only when a behaviour change is intended, and say so)::

    PYTHONPATH=src python tests/serving/test_golden_timelines.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.serving_sweep import offline_capacity
from repro.hardware import get_hardware
from repro.models import get_model
from repro.serving import (
    FaultSchedule,
    PoissonProcess,
    ResiliencePolicy,
    ServingSystem,
    ShardedServingResult,
    ShardedServingSystem,
    default_slo,
)
from repro.systems import FlexGenSystem, MoELightningSystem
from repro.workloads import chat

GOLDEN_PATH = Path(__file__).with_name("golden_timelines.json")
NUM_REQUESTS = 48
SEED = 7


def _single_configs() -> dict[str, dict]:
    configs: dict[str, dict] = {}
    for mode, store_samples in (("exact", True), ("streaming", False)):
        for scheduling in ("fcfs", "prefill-first"):
            for prefix_cache in (False, True):
                for overlap in (False, True):
                    for chunk in (None, 64):
                        name = (
                            f"single/{mode}/{scheduling}"
                            f"/cache-{'on' if prefix_cache else 'off'}"
                            f"/overlap-{'on' if overlap else 'off'}"
                            f"/chunk-{chunk or 'off'}"
                        )
                        configs[name] = {
                            "store_samples": store_samples,
                            "scheduling": scheduling,
                            "prefix_cache": prefix_cache,
                            "overlap": overlap,
                            "chunk_prefill_tokens": chunk,
                        }
    configs["single/exact/fcfs/simulator"] = {"use_simulator": True}
    configs["single/exact/fcfs/flexgen-padded"] = {"backend": "flexgen"}
    configs["single/exact/sjf/ttl/queue-depth-16"] = {
        "queue_ordering": "sjf",
        "prefix_cache": True,
        "session_ttl": 0.25,
        "max_queue_depth": 16,
    }
    return configs


def _sharded_configs() -> dict[str, dict]:
    configs: dict[str, dict] = {}
    for router in ("round-robin", "least-loaded", "session-affinity", "cache-aware"):
        configs[f"sharded/{router}"] = {
            "num_shards": 4,
            "router": router,
            "prefix_cache": True,
        }
    configs["sharded/cache-aware/streaming"] = {
        "num_shards": 4,
        "router": "cache-aware",
        "prefix_cache": True,
        "store_samples": False,
    }
    configs["disagg"] = {
        "num_shards": 4,
        "disaggregated": True,
        "prefix_cache": True,
    }
    configs["disagg/rolling-restart/retries"] = {
        "num_shards": 4,
        "disaggregated": True,
        "prefix_cache": True,
        "faults": FaultSchedule.rolling_restart(
            [2, 3, 0], start=5.0, interval=25.0, downtime=3.0, load_time=0.5
        ),
        "resilience": ResiliencePolicy(max_retries=2, retry_backoff=0.2),
    }
    return configs


SINGLE = _single_configs()
SHARDED = _sharded_configs()


def _canon(value) -> str:
    """Deterministic text form: floats by ``repr``, containers recursively."""
    if isinstance(value, (bool, np.bool_)) or value is None:
        return repr(value if value is None else bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if hasattr(value, "name"):  # enums (request state)
        return value.name
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def signature(result, store_samples: bool) -> str:
    parts: dict[str, object] = {}
    if store_samples:
        parts["requests"] = [
            (
                sr.arrival_time,
                sr.admit_time,
                sr.first_token_time,
                sr.finish_time,
                sr.state,
            )
            for sr in result.requests
        ]
    parts["row"] = result.as_row()
    parts["admission"] = result.admission_stats
    if isinstance(result, ShardedServingResult):
        parts["shards"] = [stats.as_row() for stats in result.shard_stats]
        parts["faults"] = result.fault_stats
    return hashlib.sha256(_canon(parts).encode()).hexdigest()


def _setup(backend_name: str = "moe-lightning"):
    workload = chat(
        generation_len=6,
        num_requests=NUM_REQUESTS,
        turns_per_session=3,
        system_prompt_len=64,
        user_turn_len=32,
    )
    model, node = get_model("mixtral-8x7b"), get_hardware("1xT4")
    if backend_name == "flexgen":
        backend = FlexGenSystem(model, node)
    else:
        backend = MoELightningSystem(model, node)
    policy = backend.select_policy(workload)
    slo = default_slo(backend, workload, policy)
    rate = 2.0 * offline_capacity(backend, workload, policy)
    return backend, workload, policy, slo, rate


def run_config(name: str):
    """Serve one matrix entry; returns ``(result, store_samples)``."""
    if name in SINGLE:
        kwargs = dict(SINGLE[name])
        backend, workload, policy, slo, rate = _setup(
            kwargs.pop("backend", "moe-lightning")
        )
        system = ServingSystem(backend, workload, policy=policy, slo=slo, **kwargs)
    else:
        kwargs = dict(SHARDED[name])
        backend, workload, policy, slo, rate = _setup()
        system = ShardedServingSystem(
            backend, workload, policy=policy, slo=slo, **kwargs
        )
    result = system.run(PoissonProcess(rate), count=NUM_REQUESTS, seed=SEED)
    return result, kwargs.get("store_samples", True)


def _load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", [*SINGLE, *SHARDED])
def test_signature_matches_golden(name):
    golden = _load_golden()
    assert name in golden, f"no golden signature recorded for {name!r}"
    result, store_samples = run_config(name)
    assert signature(result, store_samples) == golden[name]


def test_golden_file_covers_exactly_the_matrix():
    assert sorted(_load_golden()) == sorted([*SINGLE, *SHARDED])


def _regenerate() -> None:
    golden = {}
    for name in [*SINGLE, *SHARDED]:
        result, store_samples = run_config(name)
        golden[name] = signature(result, store_samples)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} signatures to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    _regenerate()

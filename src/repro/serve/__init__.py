"""``repro.serve`` — model serving, from one engine to a replicated fleet.

The deployment-facing end of the study pipeline: trained models (loaded from
``save_model`` archives or deterministically re-fit from archived study
cells) are registered in a :class:`ModelRegistry` and served through a
:class:`ServingEngine` that coalesces concurrent predict requests into
micro-batches — with the guarantee that batching never changes a single bit
of any response.

At fleet scale, a :class:`ServingFleet` runs N health-checked replicas
(threads or forked processes) over a single shared-memory copy of every
model's weights (one :class:`~repro.nn.shared.SharedBlock` per model, the
packer DDP uses too), behind a :class:`Router` that does bounded
admission, per-client token-bucket fairness, priorities, least-outstanding
dispatch, and exactly-once failover when replicas die.
An optional stdlib-only HTTP front-end (:class:`ServingServer`) exposes
either an engine or a fleet as a JSON endpoint for the ``repro-study
serve`` CLI subcommand (429 + ``Retry-After`` on shed, ``/fleet`` status).
"""

from .engine import BatchSettings, EngineClosedError, ServingEngine, ServingStats
from .fleet import (
    REPLICA_BACKENDS,
    FleetSettings,
    ProcessReplica,
    ServingFleet,
    ThreadReplica,
)
from .registry import ModelKey, ModelRegistry, ServableModel
from .router import SHED_POLICIES, Chunk, ReplicaGone, Router, ShedError, TokenBucket
from .server import ServingServer, serve_forever

__all__ = [
    "ModelKey",
    "ServableModel",
    "ModelRegistry",
    "BatchSettings",
    "ServingStats",
    "ServingEngine",
    "EngineClosedError",
    "Router",
    "Chunk",
    "ShedError",
    "ReplicaGone",
    "TokenBucket",
    "SHED_POLICIES",
    "ServingFleet",
    "FleetSettings",
    "ThreadReplica",
    "ProcessReplica",
    "REPLICA_BACKENDS",
    "ServingServer",
    "serve_forever",
]

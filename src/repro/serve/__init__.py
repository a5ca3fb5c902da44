"""``repro.serve`` — model serving through a replicated fleet.

The deployment-facing end of the study pipeline: trained models (loaded from
``save_model`` archives or deterministically re-fit from archived study
cells) are registered in a :class:`ModelRegistry` and served through a
:class:`ServingFleet` — with the guarantee that batching never changes a
single bit of any response.

A :class:`ServingFleet` runs N health-checked replicas (threads or forked
processes; one replica runs as a thread) over a single shared-memory copy
of every model's weights (one :class:`~repro.nn.shared.SharedBlock` per
model), behind a :class:`Router` that does bounded admission, per-client
token-bucket fairness, priorities, least-outstanding dispatch, and
exactly-once failover when replicas die.  A replica runs each router chunk
as one forward pass: the chunk is the only batch.  An optional stdlib-only
HTTP front-end (:class:`ServingServer`) exposes the fleet as a JSON endpoint
for the ``repro-study serve`` CLI subcommand (429 + ``Retry-After`` on shed,
``/fleet`` status).
"""

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

"""repro.serving — the sharded HTTP serving cluster.

The paper's system runs as a shared Aliyun service answering the
Table-II workload (tens of millions of ``men2ent`` / ``getConcept`` /
``getEntity`` calls) while the taxonomy behind it is periodically
rebuilt.  This package is that deployment shape, stdlib-only, from the
versioned in-process front (:class:`ShardedSnapshotStore`, one shard by
default) up to the HTTP client:

Architecture (request path, top to bottom)::

    TaxonomyClient          keep-alive SDK: batching, retries, own metrics;
        │                   writes each request in one piece and reads
        │                   its own response head on pooled http.client
        │                   connections
        │  JSON over HTTP
    ClusterHTTPServer       ThreadingHTTPServer, one thread per connection;
        │                   the handler parses its own request head
    ReplicatedRouter        key→shard routing + R replicas per shard,
        │                   retry-on-failure, health marks, probes
    ShardedSnapshotStore    N crc32-hashed shards of one frozen
        │                   ReadOptimizedTaxonomy, swapped as a unit
    ShardSnapshot × N       per-shard immutable read views

- **Sharding** (:mod:`repro.serving.sharding`): each serving index is
  keyed independently (mention / page_id / concept), so splitting every
  index by ``crc32(key) % N`` preserves per-key answers exactly —
  sharded responses are byte-identical to the source taxonomy's own
  lookups at any shard count.  Batches pin one
  :class:`~repro.serving.sharding.ShardSet`, fan out one ordered group
  per shard and merge by position; a swap partitions the *whole*
  replacement set before one atomic reference assignment, so a failed
  rebuild keeps the old version serving and no batch ever spans two
  versions.  A
  :class:`~repro.taxonomy.delta.TaxonomyDelta` publishes incrementally
  through :meth:`~repro.serving.sharding.ShardedSnapshotStore.publish_delta`:
  only shards owning a touched key are rebuilt (touched-keys-only
  inside each), untouched shards cross the swap as the same objects,
  and ``shard_versions()`` becomes the per-shard publish lineage.
- **Routing** (:mod:`repro.serving.router`): reads spread round-robin
  over R replicas per shard (the healthy-subset scan and the rotation
  advance are one atomic step, so the survivors of a failure keep
  splitting load evenly); a replica that raises is marked unhealthy
  and the call retries on the next one (configurable attempts); an
  unhealthy replica rejoins only after a probe passes (auto-probed
  every ``probe_after`` skips, or forced via ``probe()``).
- **Replica backends** (:mod:`repro.serving.replica`): the
  :class:`~repro.serving.replica.ReplicaBackend` protocol the router
  routes over — in-process :class:`StoreShardReplica` views,
  :class:`~repro.serving.replica.RemoteReplica` driving another
  serving process through :class:`TaxonomyClient`, or
  :class:`~repro.serving.replica.LocalReplica` (an in-process replica
  with its own independent store — the fault-injection twin)
  (``router.attach_replica(shard_id, backend)`` adds one).
- **Delta-aware replication**:
  :meth:`~repro.serving.router.ReplicatedRouter.publish_delta` ships
  each shard's *slice* of a delta by value to every remote-capable
  replica instead of a full snapshot, stamped with the target version
  and guarded by a ``base_version`` handshake (every front runs the
  one :func:`~repro.taxonomy.delta.publish_handshake`); a replica at
  any other version refuses with 409 and runs its own ``resync``, the
  ladder probes and ``swap(snapshot_path=...)`` also use: a composed
  catch-up chain when the publisher's
  :class:`~repro.taxonomy.delta.DeltaHistory` ring covers its lag
  (``cn-probase delta-squash`` is the offline spelling of the same
  compose), one full-snapshot ``/admin/swap`` otherwise — so a
  lagging or freshly-restarted replica always rejoins.  Outcomes land
  in the event log (``publish_outcome`` events) and the
  ``chain_catchups``/``snapshot_heals`` counters.
- **Content-addressed versions + probe-time auto-resync**: every
  publish from a full taxonomy stamps the canonical-bytes sha256
  (:meth:`~repro.taxonomy.store.Taxonomy.content_hash`); deltas carry
  ``base_content_hash``/``new_content_hash`` stamps that survive
  slicing, so replicas converge on the *cluster-level* hash and the
  handshake can tell a diverged replica from one that already holds
  the target bytes (two publishers shipping the same nightly delta
  **merge** instead of 409).  A replica the version-aware probe finds
  alive-but-stale runs the same ladder
  (:func:`~repro.serving.replica.resync_replica`, wire spelling
  ``GET /admin/delta-chain``) without waiting for the next publish,
  chain only (a probe carries no snapshot path) —
  outcomes in the event log (``resync`` events) and the
  ``probe_resyncs``/``resync_chains``/``resync_heals`` counters.
- **Server** (:mod:`repro.serving.server`): the JSON wire (below) plus
  ``/healthz``, ``/version``, ``/metrics`` (the
  :class:`~repro.taxonomy.service.ServiceMetrics` ledger with
  p50/p95/p99 tail latencies) and bearer-token-authenticated
  ``/admin/swap`` + ``/admin/shutdown``.
- **Client** (:mod:`repro.serving.client`): a
  :class:`~repro.serving.client.TaxonomyClient` exposing the canonical
  :class:`~repro.taxonomy.service.BatchedServingAPI` surface, so
  ``replay_calls`` drives a remote cluster unchanged.  It writes each
  request, head and body, in one ``sendall`` (the bytes
  ``HTTPConnection.request`` writes) and reads each response head
  itself, without the ``email`` parser, on pooled ``http.client``
  connections.  A request the wire cannot carry (a target with a
  space, a control or a non-ASCII character; a header value with CR or
  LF) is an :class:`~repro.errors.APIError` before anything is sent.

Wire format (all JSON, UTF-8, ``ensure_ascii=False``):

- ``GET /v1/{men2ent|getConcept|getEntity}?q=<argument>`` →
  ``{"api": ..., "version": "v3", "argument": ..., "results": [...]}``
- ``POST /v1/{api}`` body ``{"arguments": ["a", "b", ...]}`` →
  ``{"api": ..., "version": "v3", "results": [[...], [...], ...]}``
  (position-for-position, one pinned version per shard group)
- ``GET /healthz`` → ``{"status": "ok", "version": ..., "shards": N}``;
  when routing is on and a shard has zero healthy replicas the status
  becomes ``degraded`` with ``unhealthy_shards`` listed, served as 503
  so load balancers rotate the instance out
- ``GET /version`` → version + shard/replica topology +
  ``lineage`` (the versions delta publishes produced, oldest first —
  how far back this replica can be caught up by chain) +
  ``content_hash`` (the published bytes' sha256, when stamped)
- ``GET /admin/delta-chain?from=<hash or vN>`` (admin auth) →
  ``{"version": ..., "content_hash": ..., "covered": true, "deltas":
  [...]}`` — the catch-up chain a recovering replica pulls;
  ``covered: false`` (still 200) means heal by snapshot
- ``GET /metrics`` → cumulative per-API calls/hits/mean/p50/p95/p99/max
  plus router attempt/failover/probe/catch-up/heal counters when
  routing is on
- ``POST /admin/swap`` body ``{"taxonomy": "<server-side path>"}``
  (optional ``"version": 7`` stamps the published version — the
  snapshot-heal path uses it for lockstep), header
  ``Authorization: Bearer <token>`` →
  ``{"swapped": true, "version": "v4"}``; 401 on bad token, 403 when
  the server runs without a token, 400 (old version still serving) on a
  failed load
- ``POST /admin/apply-delta`` body ``{"delta": "<server-side path>"}``
  or ``{"delta": {...inline to_wire() object...}}`` (same auth),
  optional ``"base_version": "v3"`` (handshake: refused with **409**
  ``{"conflict": true, "version": "v1", "content_hash": ...}`` when
  the served version differs — the replication layer reads it to pick
  chain catch-up vs snapshot heal, and a delta targeting bytes the
  replica already holds merges instead), ``"version": 4`` (stamp) and
  ``"slice":
  {"shard_id": s, "n_shards": n}`` (validate/apply only this cluster
  shard's keys) → ``{"applied": true, "version": "v4", "delta": {...
  record counts ...}, "shard_versions": [...]}``; the delta is
  validated against the currently served version and refused with 400
  (old version still serving) on a base mismatch or unreadable file
- ``POST /admin/shutdown`` (same auth) → ``{"shutting_down": true}``
- errors → ``{"error": "<message>"}``; 400 for caller mistakes
  (never retried by the client), 503 when no healthy replica can serve
  a shard (transient — the client's retry/backoff applies), plus
  401/403/404/500
- framing errors → the stdlib's HTML error page with ``Connection:
  close``, before any body is read: 400 for a ``Content-Length`` that
  is not one non-negative decimal number (or is sent twice) and for a
  header line without a colon, folded, or with whitespace before the
  colon; 501 for any ``Transfer-Encoding``; 400/505/414/431 for a
  malformed request line or an oversized head, as the stdlib answers;
  400, never routed, for a body that ends before its
  ``Content-Length`` (every body is read exactly, a GET's too)
- ``http_requests_total`` counts an unknown ``/v1/<name>`` under
  ``path="other"``, and only the three wire APIs feed
  ``http_request_seconds``

``cn-probase serve <taxonomy> --shards N --replicas R --port P`` wires
the stack up from a taxonomy file; :func:`build_cluster` does the same
in-process.

Remaining follow-ups (refreshed after content-addressed versions and
probe-time auto-resync landed): process-per-shard workers behind the
same router protocol; auth beyond a single bearer token.
"""

from __future__ import annotations

from repro.errors import APIError
from repro.serving.client import TaxonomyClient
from repro.serving.replica import (
    LocalReplica,
    RemoteReplica,
    ReplicaBackend,
    resync_replica,
)
from repro.serving.router import ReplicatedRouter, StoreShardReplica
from repro.serving.server import (
    ClusterHTTPServer,
    start_server,
)
from repro.serving.sharding import (
    ShardSet,
    ShardSnapshot,
    ShardedSnapshotStore,
    shard_for,
)

__all__ = [
    "ClusterHTTPServer",
    "LocalReplica",
    "RemoteReplica",
    "ReplicaBackend",
    "ReplicatedRouter",
    "ShardSet",
    "ShardSnapshot",
    "ShardedSnapshotStore",
    "StoreShardReplica",
    "TaxonomyClient",
    "build_cluster",
    "resync_replica",
    "shard_for",
    "start_server",
]


def build_cluster(taxonomy, *, shards: int = 1, replicas: int = 1, hub=None):
    """The service front ``cn-probase serve`` puts behind HTTP.

    Always a :class:`ShardedSnapshotStore` (``shards=1`` degenerates to
    the unsharded layout with the same swap guarantees); with
    ``replicas > 1`` a :class:`ReplicatedRouter` spreads reads over R
    in-process replicas per shard and the router is returned instead
    (its ``swap`` delegates to the store, so admin hot-swaps behave
    identically either way).
    """
    if shards < 1:
        raise APIError(f"shards must be >= 1, got {shards}")
    if replicas < 1:
        raise APIError(f"replicas must be >= 1, got {replicas}")
    store = ShardedSnapshotStore(taxonomy, n_shards=shards, hub=hub)
    if replicas == 1:
        return store
    return ReplicatedRouter.from_store(store, replicas=replicas)

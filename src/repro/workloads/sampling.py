"""Seeded samplers: argument pools and the Table-II call stream.

Everything here draws from an explicit ``random.Random`` — no module
state, no wall clock — so the same seed always produces the same
calls, and a measurement that replays them is attributable to the
code, never the workload (a lint test enforces it package-wide).

:class:`TableIICallStream` is the repo's original workload generation
algorithm — same RNG consumption order, so historical seeded streams
are reproducible call for call — with one deliberate fix: an empty
argument pool no longer yields the constant ``"空"`` (which silently
under-counted misses) but a seeded unknown-mention marker flagged
``expected_miss``.  :func:`replay_calls` serves a drawn stream
closed-loop against any serving front.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.errors import WorkloadError
from repro.taxonomy.service import WIRE_API_METHODS

#: Prefix of generated out-of-taxonomy arguments (kept from the legacy
#: generator so dashboards keyed on it keep matching).
UNKNOWN_PREFIX = "未知词"


def unknown_argument(rng: Random, tenant: str | None = None) -> str:
    """A seeded out-of-taxonomy argument, optionally tenant-namespaced."""
    marker = f"{UNKNOWN_PREFIX}{rng.randint(0, 10_000)}"
    if tenant and tenant != "default":
        return f"{tenant}·{marker}"
    return marker


@dataclass(frozen=True)
class ArgumentPools:
    """The three argument universes, sorted for determinism."""

    mentions: tuple[str, ...]
    entities: tuple[str, ...]
    concepts: tuple[str, ...]

    _BY_API = {
        "men2ent": "mentions",
        "getConcept": "entities",
        "getEntity": "concepts",
    }

    def pool_for(self, api: str) -> tuple[str, ...]:
        try:
            return getattr(self, self._BY_API[api])
        except KeyError:
            raise WorkloadError(
                f"unknown API {api!r}; known: {sorted(self._BY_API)}"
            ) from None

    @classmethod
    def from_taxonomy(cls, taxonomy) -> "ArgumentPools":
        """Pools drawn from a built store.

        One pass over one materialisation of ``relations()`` collects
        all three pools — the taxonomy can hold millions of relations,
        so it is never scanned per pool.
        """
        entity_ids: set[str] = set()
        concepts: set[str] = set()
        for relation in taxonomy.relations():
            concepts.add(relation.hypernym)
            if relation.hyponym_kind == "entity":
                entity_ids.add(relation.hyponym)
        entities = sorted(entity_ids)
        mentions = sorted(
            {
                mention
                for entity in (taxonomy.entity(p) for p in entities)
                if entity is not None
                for mention in entity.mentions
            }
        )
        return cls(
            mentions=tuple(mentions),
            entities=tuple(entities),
            concepts=tuple(sorted(concepts)),
        )

    @classmethod
    def from_world(cls, world) -> "ArgumentPools":
        """Pools drawn from the ground-truth world (no pipeline needed).

        What the schedule compiler uses: compiling a scenario must not
        require running the build pipeline, and real traffic queries
        the *world's* surface forms anyway — including the ones the
        build missed, which is exactly the natural miss channel.
        """
        return cls(
            mentions=tuple(sorted(world.mention_senses())),
            entities=tuple(sorted(e.page_id for e in world.entities)),
            concepts=tuple(sorted(world.concepts)),
        )


@dataclass(frozen=True)
class SampledCall:
    """One drawn request: API, argument, and whether a miss was intended."""

    api: str
    argument: str
    expected_miss: bool


class TableIICallStream:
    """The one-at-a-time Table II request stream, seeded and mix-weighted.

    RNG consumption per call is exactly the original generator's:
    one ``choices`` for the API, one ``random()`` for the miss gate,
    then either ``randint`` (miss) or ``choice`` (pool draw) — so
    historical seeded streams reproduce bit for bit.  The one
    behavioural change: when a pool is empty the stream emits a seeded
    unknown marker flagged ``expected_miss`` instead of the silent
    constant ``"空"``.
    """

    def __init__(
        self,
        pools: ArgumentPools,
        *,
        seed: int = 0,
        mix: dict[str, float] | None = None,
        miss_rate: float = 0.05,
    ) -> None:
        from repro.taxonomy.api import PAPER_API_MIX

        if not 0.0 <= miss_rate <= 1.0:
            raise WorkloadError(
                f"miss_rate must be a probability, got {miss_rate}"
            )
        self._pools = pools
        self._rng = Random(seed)
        self._mix = dict(mix) if mix is not None else dict(PAPER_API_MIX)
        if abs(sum(self._mix.values()) - 1.0) > 1e-6:
            raise WorkloadError(f"API mix must sum to 1, got {self._mix}")
        self._miss_rate = miss_rate

    def generate(self, n_calls: int) -> list[SampledCall]:
        if n_calls <= 0:
            raise WorkloadError(f"n_calls must be positive, got {n_calls}")
        apis = list(self._mix)
        weights = [self._mix[api] for api in apis]
        calls: list[SampledCall] = []
        for _ in range(n_calls):
            api = self._rng.choices(apis, weights=weights)[0]
            argument, expected_miss = self._argument_for(api)
            calls.append(SampledCall(api, argument, expected_miss))
        return calls

    def _argument_for(self, api: str) -> tuple[str, bool]:
        if self._rng.random() < self._miss_rate:
            return unknown_argument(self._rng), True
        pool = self._pools.pool_for(api)
        if pool:
            return self._rng.choice(pool), False
        # Empty pool: a real request still has to carry *something* —
        # emit a counted, seeded miss, never a silent constant.
        return unknown_argument(self._rng), True


def replay_calls(front, calls, *, batch_size: int = 1):
    """Closed-loop replay of sampled calls against a serving front.

    *front* is anything exposing the canonical
    :class:`~repro.taxonomy.service.BatchedServingAPI` surface — the
    sharded store, the replica router or the HTTP client.  *calls* is any iterable of objects with ``api`` and
    ``argument`` attributes (e.g. :class:`SampledCall`).  With
    ``batch_size > 1`` requests are buffered per API and served through
    the ``*_batch`` variants, the way a real gateway amortises round
    trips.  Returns the front's cumulative ``metrics`` ledger when it
    has one.
    """
    if batch_size < 1:
        raise WorkloadError(f"batch_size must be >= 1, got {batch_size}")
    singles = {api: getattr(front, names[0])
               for api, names in WIRE_API_METHODS.items()}
    batches = {api: getattr(front, names[1])
               for api, names in WIRE_API_METHODS.items()}
    buffers: dict[str, list[str]] = {name: [] for name in singles}
    for call in calls:
        if batch_size == 1:
            singles[call.api](call.argument)
            continue
        buffer = buffers[call.api]
        buffer.append(call.argument)
        if len(buffer) >= batch_size:
            batches[call.api](buffer)
            buffer.clear()
    for name, buffer in buffers.items():
        if buffer:
            batches[name](buffer)
    return getattr(front, "metrics", None)

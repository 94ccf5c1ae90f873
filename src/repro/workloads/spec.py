"""The world side of a workload: SyntheticWorld knobs, normalised.

:class:`WorldSpec` says *what the taxonomy looks like*: entity count
plus three normalised knobs (alias ambiguity, concept-chain depth,
churn rate) that drive the
:class:`~repro.encyclopedia.synthesis.noise.NoiseConfig` channels of
:class:`~repro.encyclopedia.SyntheticWorld`, and a deterministic
page-churn model for nightly-publish workloads.  It is frozen and
round-trips through ``as_dict``/``from_dict``, so a seeded world is
its serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from random import Random

from repro.encyclopedia.model import EncyclopediaDump
from repro.encyclopedia.synthesis.noise import NoiseConfig
from repro.encyclopedia.synthesis.world import SyntheticWorld
from repro.errors import WorkloadError


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise WorkloadError(f"{name} must be a probability, got {value}")


@dataclass(frozen=True)
class WorldSpec:
    """The world side of a scenario: SyntheticWorld knobs, normalised.

    The three 0..1 knobs scale the relevant
    :class:`~repro.encyclopedia.synthesis.noise.NoiseConfig` channels:

    - ``alias_ambiguity`` — aliases, cross-domain homograph titles and
      cross-sense tag leakage (the men2ent disambiguation stress),
    - ``chain_depth`` — subconcept-modifier and employer+role brackets
      (the 首席战略官-isA-战略官-isA-人物 chains of Figure 3),
    - ``churn_rate`` — the fraction of entity pages
      :meth:`churned_dump` mutates, i.e. how much a nightly refresh
      has to republish.
    """

    n_entities: int = 300
    alias_ambiguity: float = 0.25
    chain_depth: float = 0.2
    churn_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.n_entities <= 0:
            raise WorkloadError(
                f"n_entities must be positive, got {self.n_entities}"
            )
        _check_probability("alias_ambiguity", self.alias_ambiguity)
        _check_probability("chain_depth", self.chain_depth)
        _check_probability("churn_rate", self.churn_rate)

    def noise(self) -> NoiseConfig:
        """The NoiseConfig the three knobs compile to."""
        return NoiseConfig(
            p_alias=0.05 + 0.30 * self.alias_ambiguity,
            p_ambiguous_name=0.01 + 0.14 * self.alias_ambiguity,
            p_cross_sense_tag=0.30 + 0.55 * self.alias_ambiguity,
            p_role_bracket=0.06 + 0.45 * self.chain_depth,
            p_bracket_modifier=0.35 + 0.55 * self.chain_depth,
        )

    def build_world(self, seed: int) -> SyntheticWorld:
        """Sample the world deterministically from *seed*."""
        return SyntheticWorld.generate(
            seed=seed, n_entities=self.n_entities, noise=self.noise()
        )

    def churned_dump(
        self, world: SyntheticWorld, seed: int
    ) -> EncyclopediaDump:
        """A copy of the world's dump with ``churn_rate`` of pages mutated.

        The nightly-refresh model: a seeded sample of entity pages gains
        one concept tag (drawn from the world's own inventory) and a
        freshness sentence on the abstract — page-level changes a
        :func:`~repro.encyclopedia.diff_dumps` then sees as ``changed``
        and an incremental rebuild turns into a delta.
        """
        rng = Random(seed)
        pages = list(world.dump().pages)
        n_churn = int(round(self.churn_rate * len(pages)))
        churn_ids = {
            page.page_id
            for page in sorted(rng.sample(pages, n_churn), key=lambda p: p.page_id)
        }
        concept_names = sorted(world.concepts)
        churned = EncyclopediaDump()
        for page in pages:
            if page.page_id in churn_ids:
                extra_tag = rng.choice(concept_names)
                tags = page.tags if extra_tag in page.tags else (
                    *page.tags, extra_tag
                )
                page = replace(
                    page,
                    tags=tags,
                    abstract=page.abstract + "近期资料已更新。",
                )
            churned.add(page)
        return churned

    def as_dict(self) -> dict:
        return {
            "n_entities": self.n_entities,
            "alias_ambiguity": self.alias_ambiguity,
            "chain_depth": self.chain_depth,
            "churn_rate": self.churn_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorldSpec":
        return cls(**_known_fields(cls, data))


def _known_fields(cls, data: dict) -> dict:
    """The subset of *data* naming actual fields of *cls* (strict)."""
    if not isinstance(data, dict):
        raise WorkloadError(f"{cls.__name__} spec must be a dict, got {data!r}")
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names - {"format_version"}
    if unknown:
        raise WorkloadError(
            f"{cls.__name__} spec has unknown keys: {sorted(unknown)}"
        )
    return {key: value for key, value in data.items() if key in names}

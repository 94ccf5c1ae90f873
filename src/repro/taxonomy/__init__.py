"""Taxonomy data model, graph operations, indexed store and serving APIs.

This is the output side of the pipeline: verified isA relations land in a
:class:`~repro.taxonomy.store.Taxonomy`, which maintains the indexes the
paper's three public APIs need (Table II):

- ``men2ent``   mention → disambiguated entities,
- ``getConcept`` entity → hypernym list,
- ``getEntity``  concept → hyponym list.

:mod:`~repro.taxonomy.api` keeps the Table II call mix, and
:mod:`~repro.taxonomy.service` the serving surface every front shares:
batched API variants and per-API latency accounting.  The versioned
front itself, with atomic swap-on-rebuild, is
:class:`~repro.serving.sharding.ShardedSnapshotStore`; this package
imports nothing from :mod:`repro.serving`.
"""

from repro.taxonomy.model import (
    SOURCE_ABSTRACT,
    SOURCE_BRACKET,
    SOURCE_INFOBOX,
    SOURCE_TAG,
    Entity,
    IsARelation,
    TaxonomyStats,
)
from repro.taxonomy.graph import TaxonomyGraph
from repro.taxonomy.store import ReadOptimizedTaxonomy, Taxonomy
from repro.taxonomy.delta import TaxonomyDelta, load_delta, save_delta
from repro.taxonomy.service import ServiceMetrics

__all__ = [
    "TaxonomyDelta",
    "load_delta",
    "save_delta",
    "ServiceMetrics",
    "Entity",
    "IsARelation",
    "SOURCE_ABSTRACT",
    "SOURCE_BRACKET",
    "SOURCE_INFOBOX",
    "SOURCE_TAG",
    "ReadOptimizedTaxonomy",
    "Taxonomy",
    "TaxonomyGraph",
    "TaxonomyStats",
]

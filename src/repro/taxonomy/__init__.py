"""Taxonomy data model, graph operations, indexed store and serving APIs.

This is the output side of the pipeline: verified isA relations land in a
:class:`~repro.taxonomy.store.Taxonomy`, which maintains the indexes the
paper's three public APIs need (Table II):

- ``men2ent``   mention → disambiguated entities,
- ``getConcept`` entity → hypernym list,
- ``getEntity``  concept → hyponym list.

:mod:`~repro.taxonomy.api` keeps the Table II call mix, and
:class:`~repro.taxonomy.service.TaxonomyService` is the production
facade on top: immutable versioned snapshots with atomic
swap-on-rebuild, batched API variants and per-API latency accounting.
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
from repro.taxonomy.service import (
    ServiceMetrics,
    TaxonomyService,
    TaxonomySnapshot,
)

__all__ = [
    "TaxonomyDelta",
    "load_delta",
    "save_delta",
    "ServiceMetrics",
    "TaxonomyService",
    "TaxonomySnapshot",
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

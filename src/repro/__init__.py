"""CN-Probase reproduction: generation + verification framework for
large-scale Chinese taxonomy construction (Chen et al., ICDE 2019).

The package is organised as one subpackage per subsystem:

- :mod:`repro.nlp` — Chinese NLP substrate (segmentation, PMI, NER, POS).
- :mod:`repro.encyclopedia` — CN-DBpedia-shaped encyclopedia substrate and
  the synthetic world generator that replaces the proprietary 2017 dump.
- :mod:`repro.neural` — numpy CopyNet-style seq2seq used by the abstract
  source of the generation module.
- :mod:`repro.taxonomy` — taxonomy data model, graph, indexed store,
  the three public serving APIs (men2ent / getConcept / getEntity),
  their batched serving surface and the per-API latency ledger.
- :mod:`repro.core` — the paper's contribution as an open, composable
  pipeline.  :mod:`repro.core.stages` defines the stage architecture: a
  ``GenerationSource`` / ``Verifier`` protocol pair, a named, ordered
  ``StageRegistry`` (the built-in bracket/abstract/infobox/tag sources
  and syntax/ner/incompatible verifiers come from
  :func:`~repro.core.stages.default_registry`) and a ``BuildContext``
  carrying the shared NLP resources (lexicon, segmenter, tagger,
  recognizer, PMI, titles) so stages never re-derive them.
  :class:`~repro.core.pipeline.CNProbaseBuilder` is a thin driver that
  iterates the registry and records per-stage wall-clock and candidate
  counts into ``BuildResult.stage_trace``; third-party stages plug in
  by registering against the builder's registry, no core edits needed.
- :mod:`repro.serving` — the deployment shape of the paper's shared
  service: a :class:`~repro.serving.sharding.ShardedSnapshotStore`
  (the versioned in-process front: N key-hashed shards of one
  read-optimized taxonomy, one by default, swapped all-or-nothing so
  no batch ever spans two versions; ``TaxonomyService`` names it), a
  replication-aware :class:`~repro.serving.router.ReplicatedRouter`
  (R replicas per shard, failover + health probes), a stdlib HTTP/JSON
  server with hot-swap admin endpoints, and the
  :class:`~repro.serving.client.TaxonomyClient` SDK — all behind one
  canonical serving surface
  (``cn-probase serve <taxonomy> --shards N --replicas R``).
- :mod:`repro.workloads` — seeded inputs for serving measurements and
  chaos tests: :class:`~repro.workloads.spec.WorldSpec` worlds and
  their churned nightly dumps, the Table-II call stream with
  closed-loop replay against any serving front, and a fault-injected
  replica cluster.
- :mod:`repro.baselines` — Chinese WikiTaxonomy, Bigcilin and Probase-Tran.
- :mod:`repro.eval` — precision sampling, QA coverage and report rendering.

Quickstart::

    from repro import build_cn_probase
    from repro.encyclopedia import SyntheticWorld

    world = SyntheticWorld.generate(seed=7, n_entities=2000)
    result = build_cn_probase(world.dump())
    print(result.taxonomy.stats())
"""

__version__ = "1.0.0"

# Public names are resolved lazily (PEP 562) so that importing `repro`
# stays cheap and subpackages do not import each other at module load.
_LAZY_EXPORTS = {
    "BuildResult": "repro.core.pipeline",
    "CNProbaseBuilder": "repro.core.pipeline",
    "IncrementalBuildResult": "repro.core.pipeline",
    "PipelineConfig": "repro.core.pipeline",
    "PreviousBuild": "repro.core.pipeline",
    "build_cn_probase": "repro.core.pipeline",
    "StageRegistry": "repro.core.stages",
    "StageTrace": "repro.core.stages",
    "default_registry": "repro.core.stages",
    "DumpDiff": "repro.encyclopedia",
    "EncyclopediaDump": "repro.encyclopedia",
    "EncyclopediaPage": "repro.encyclopedia",
    "diff_dumps": "repro.encyclopedia",
    "SyntheticWorld": "repro.encyclopedia",
    "Taxonomy": "repro.taxonomy",
    "TaxonomyDelta": "repro.taxonomy",
    "TaxonomyService": "repro.taxonomy.service",
    "ReplicatedRouter": "repro.serving",
    "ShardedSnapshotStore": "repro.serving",
    "TaxonomyClient": "repro.serving",
    "build_cluster": "repro.serving",
    "start_server": "repro.serving",
    "WorldSpec": "repro.workloads",
}


def __getattr__(name: str):
    module_path = _LAZY_EXPORTS.get(name)
    if module_path is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_path)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))

__all__ = [
    "BuildResult",
    "CNProbaseBuilder",
    "DumpDiff",
    "EncyclopediaDump",
    "EncyclopediaPage",
    "IncrementalBuildResult",
    "PipelineConfig",
    "PreviousBuild",
    "ReplicatedRouter",
    "ShardedSnapshotStore",
    "StageRegistry",
    "StageTrace",
    "SyntheticWorld",
    "Taxonomy",
    "TaxonomyClient",
    "TaxonomyDelta",
    "TaxonomyService",
    "WorldSpec",
    "build_cluster",
    "build_cn_probase",
    "default_registry",
    "diff_dumps",
    "start_server",
    "__version__",
]

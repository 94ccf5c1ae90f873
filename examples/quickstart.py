"""Quickstart: build a CN-Probase-style taxonomy end to end.

Generates a small synthetic encyclopedia (the stand-in for the CN-DBpedia
dump), runs the generation+verification pipeline, and pokes at the result
with the three public APIs.

Run:  python examples/quickstart.py
"""

from repro import build_cn_probase
from repro.core.generation.neural_gen import NeuralGenConfig
from repro.core.pipeline import PipelineConfig
from repro.encyclopedia import SyntheticWorld


def main() -> None:
    # 1. A 1500-entity synthetic Chinese encyclopedia.
    world = SyntheticWorld.generate(seed=42, n_entities=1500)
    dump = world.dump()
    stats = dump.stats()
    print(f"encyclopedia: {stats.n_pages} pages, {stats.n_triples} SPO "
          f"triples, {stats.n_tags} tags")

    # 2. Build the taxonomy (all four sources, all three verifiers).
    config = PipelineConfig(
        neural=NeuralGenConfig(epochs=4),
        max_generation_pages=300,  # cap the slow neural source for the demo
    )
    result = build_cn_probase(dump, config)
    taxonomy = result.taxonomy
    print(f"taxonomy: {taxonomy.stats().as_dict()}")
    print(f"verification removed: "
          f"{ {k: len(v) for k, v in result.removed_by.items()} }")

    # 3. Query it through the public APIs.
    some_entity = world.entities[0]
    senses = taxonomy.men2ent(some_entity.name)
    print(f"\nmen2ent({some_entity.name!r}) -> {senses}")
    if senses:
        concepts = taxonomy.get_concepts(senses[0])
        print(f"getConcept({senses[0]!r}) -> {concepts}")
        if concepts:
            hyponyms = taxonomy.get_entities(concepts[0])
            print(f"getEntity({concepts[0]!r}) -> "
                  f"{len(hyponyms)} entities, e.g. {hyponyms[:5]}")

    # 4. Persist and reload.
    taxonomy.save("/tmp/cn_probase_quickstart.jsonl")
    from repro.taxonomy import Taxonomy

    reloaded = Taxonomy.load("/tmp/cn_probase_quickstart.jsonl")
    assert reloaded.stats() == taxonomy.stats()
    print("\nsaved + reloaded: /tmp/cn_probase_quickstart.jsonl")


if __name__ == "__main__":
    main()

"""Short-text understanding with the taxonomy (Section IV-B / Section V).

The paper motivates CN-Probase with text-understanding tasks: a question
is *covered* when the taxonomy recognises an entity or concept in it, and
recognised entities bring their hypernyms as features (the signal the
paper's short-text classification application consumes).

This example builds the taxonomy, evaluates QA coverage on an
NLPCC2016-style synthetic question set, then conceptualises a few
questions: mention → entity senses → hypernym features.

Run:  python examples/text_understanding.py
"""

from repro.core.pipeline import PipelineConfig, build_cn_probase
from repro.encyclopedia import SyntheticWorld
from repro.eval.coverage import qa_coverage
from repro.eval.qa_dataset import generate_questions
from repro.taxonomy import Taxonomy


def conceptualise(taxonomy: Taxonomy, text: str, mention: str) -> str:
    senses = taxonomy.men2ent(mention)
    if not senses:
        return f"  {text}\n    -> no entity recognised"
    lines = [f"  {text}"]
    for page_id in senses:
        concepts = taxonomy.get_concepts(page_id)
        lines.append(f"    -> {page_id}: {('、'.join(concepts)) or '(none)'}")
    return "\n".join(lines)


def main() -> None:
    world = SyntheticWorld.generate(seed=3, n_entities=1500)
    result = build_cn_probase(
        world.dump(), PipelineConfig(enable_abstract=False)
    )
    taxonomy = result.taxonomy

    # QA coverage, the paper's protocol.
    questions = generate_questions(world, 3000, seed=2)
    report = qa_coverage(taxonomy, questions)
    print(f"QA coverage: {report}")
    print("(paper: 91.68% on 23,472 NLPCC2016 questions, "
          "2.14 concepts per covered entity)\n")

    # Conceptualisation of individual questions.
    print("conceptualised questions:")
    shown = 0
    for question in questions:
        if question.mention_kind != "entity":
            continue
        print(conceptualise(taxonomy, question.text, question.mention))
        shown += 1
        if shown == 5:
            break

    # An ambiguous mention gets every sense, each with its own concepts —
    # the disambiguation signal downstream applications use.
    ambiguous = next(
        (name for name, ids in world.mention_senses().items()
         if len(ids) > 1 and taxonomy.men2ent(name)),
        None,
    )
    if ambiguous:
        print("\nambiguous mention:")
        print(conceptualise(taxonomy, f"{ambiguous}是什么？", ambiguous))


if __name__ == "__main__":
    main()

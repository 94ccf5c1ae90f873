"""Neural generation: concepts from abstracts (Section II).

Distant supervision builds the training set: for every bracket-derived isA
relation (precision > 96%), the hyponym's abstract is the source and the
hypernym the target.  A CopyNet-style encoder-decoder then generates
hypernyms for pages the other sources miss.  The copy mechanism matters
because many true hypernyms appear verbatim in the abstract but are
out-of-vocabulary for a small generation vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.encyclopedia.model import EncyclopediaDump, EncyclopediaPage
from repro.errors import PipelineError, SegmentationError
from repro.neural.dataset import Seq2SeqDataset, Seq2SeqExample
from repro.neural.model import CopyNetSeq2Seq
from repro.neural.training import Trainer, TrainingConfig, TrainingReport
from repro.neural.vocab import Vocabulary
from repro.nlp.segmentation import Segmenter
from repro.nlp.text import is_cjk_word
from repro.taxonomy.model import SOURCE_ABSTRACT, SOURCE_BRACKET, IsARelation


@dataclass
class NeuralGenConfig:
    """Hyper-parameters of the abstract-source generator."""

    embed_dim: int = 24
    hidden_dim: int = 32
    epochs: int = 8
    batch_size: int = 16
    lr: float = 8e-3
    max_src_len: int = 24
    max_tgt_len: int = 3
    vocab_size: int = 6000
    min_train_examples: int = 20
    min_confidence: float = 0.35
    seed: int = 0


class NeuralGenerator:
    """Distant-supervision trained abstract→hypernym generator."""

    def __init__(
        self, segmenter: Segmenter, config: NeuralGenConfig | None = None
    ) -> None:
        self._segmenter = segmenter
        self.config = config if config is not None else NeuralGenConfig()
        self._model: CopyNetSeq2Seq | None = None
        self._vocab: Vocabulary | None = None
        self.last_report: TrainingReport | None = None

    @property
    def is_trained(self) -> bool:
        return self._model is not None

    # -- distant supervision ---------------------------------------------------

    def build_dataset(
        self,
        dump: EncyclopediaDump,
        bracket_relations: list[IsARelation],
    ) -> Seq2SeqDataset:
        """Pair each bracket hypernym with its hyponym's abstract."""
        examples: list[Seq2SeqExample] = []
        for relation in bracket_relations:
            if relation.source != SOURCE_BRACKET:
                continue
            page = dump.get(relation.hyponym)
            if page is None or not page.has_abstract:
                continue
            source = self._segment(page.abstract, self.config.max_src_len)
            target = self._segment(relation.hypernym, self.config.max_tgt_len)
            if source and target:
                examples.append(
                    Seq2SeqExample(source=tuple(source), target=tuple(target))
                )
        return Seq2SeqDataset(examples)

    def _segment(self, text: str, limit: int) -> list[str]:
        try:
            return self._segmenter.segment(text)[:limit]
        except SegmentationError:
            return []

    # -- training ------------------------------------------------------------------

    def train(self, dataset: Seq2SeqDataset) -> TrainingReport:
        if len(dataset) < self.config.min_train_examples:
            raise PipelineError(
                f"neural generation needs >= {self.config.min_train_examples} "
                f"distant-supervision examples, got {len(dataset)}"
            )
        self._vocab = Vocabulary.build(
            [list(e.source) + list(e.target) for e in dataset],
            max_size=self.config.vocab_size,
        )
        self._model = CopyNetSeq2Seq(
            vocab_size=len(self._vocab),
            embed_dim=self.config.embed_dim,
            hidden_dim=self.config.hidden_dim,
            seed=self.config.seed,
        )
        trainer = Trainer(
            self._model,
            self._vocab,
            TrainingConfig(
                epochs=self.config.epochs,
                batch_size=self.config.batch_size,
                lr=self.config.lr,
                max_src_len=self.config.max_src_len,
                max_tgt_len=self.config.max_tgt_len,
                shuffle_seed=self.config.seed,
            ),
        )
        self.last_report = trainer.fit(dataset)
        return self.last_report

    # -- extraction ------------------------------------------------------------------

    def generate_for_page(self, page: EncyclopediaPage) -> str | None:
        """Generate one hypernym string from a page's abstract."""
        if self._model is None or self._vocab is None:
            raise PipelineError("neural generator used before training")
        if not page.has_abstract:
            return None
        source = self._segment(page.abstract, self.config.max_src_len)
        if not source:
            return None
        tokens, confidence = self._model.generate_with_confidence(
            self._vocab, source, max_len=self.config.max_tgt_len
        )
        if confidence < self.config.min_confidence:
            return None
        hypernym = "".join(tokens)
        if len(hypernym) < 2 or not is_cjk_word(hypernym):
            return None
        if hypernym == page.title:
            return None
        return hypernym

    def extract(self, pages) -> list[IsARelation]:
        relations: list[IsARelation] = []
        for page in pages:
            hypernym = self.generate_for_page(page)
            if hypernym is not None:
                relations.append(
                    IsARelation(
                        hyponym=page.page_id,
                        hypernym=hypernym,
                        source=SOURCE_ABSTRACT,
                    )
                )
        return relations


class AbstractSource:
    """Registry adapter: the neural (CopyNet) abstract generation stage.

    Preconditions: the bracket source must have produced priors for
    distant supervision and the derived dataset must be large enough to
    train on; otherwise the stage reports "did not run" (``None``).
    """

    name = SOURCE_ABSTRACT
    # Reads the bracket source's output: the ExecutionPlan schedules this
    # stage in a wave after "bracket".
    requires = (SOURCE_BRACKET,)

    def generate(self, context) -> list[IsARelation] | None:
        priors = context.relations_from(SOURCE_BRACKET)
        if not priors:
            return None
        generator = NeuralGenerator(context.segmenter, context.config.neural)
        dataset = generator.build_dataset(context.dump, priors)
        if len(dataset) < context.config.neural.min_train_examples:
            return None
        context.training_report = generator.train(dataset)
        pages = list(context.dump)
        if context.config.max_generation_pages is not None:
            pages = pages[: context.config.max_generation_pages]
        return generator.extract(pages)

"""Closed-loop replay of sampled calls against any serving front."""

import pytest

from repro.errors import WorkloadError
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy
from repro.workloads import ArgumentPools, TableIICallStream, replay_calls


class FakeFront:
    """A BatchedServingAPI-shaped front that counts the calls it serves."""

    def __init__(self):
        self.calls = 0

    def _serve(self, argument: str) -> list[str]:
        self.calls += 1
        return [argument]

    def men2ent(self, argument):
        return self._serve(argument)

    def get_concepts(self, argument):
        return self._serve(argument)

    def get_entities(self, argument):
        return self._serve(argument)

    def men2ent_batch(self, arguments):
        return [self._serve(a) for a in arguments]

    def get_concepts_batch(self, arguments):
        return [self._serve(a) for a in arguments]

    def get_entities_batch(self, arguments):
        return [self._serve(a) for a in arguments]


class TestReplayCalls:
    def _taxonomy(self):
        t = Taxonomy()
        t.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
        t.add_relation(IsARelation("刘德华#0", "歌手", "tag"))
        return t

    def test_replays_singles_and_batches(self):
        taxonomy = self._taxonomy()
        stream = TableIICallStream(ArgumentPools.from_taxonomy(taxonomy))
        front = FakeFront()
        replay_calls(front, stream.generate(40))
        assert front.calls == 40
        front = FakeFront()
        replay_calls(front, stream.generate(41), batch_size=8)
        assert front.calls == 41  # trailing partial batches flush

    def test_batch_size_validated(self):
        with pytest.raises(WorkloadError, match="batch_size"):
            replay_calls(FakeFront(), [], batch_size=0)

    def test_returns_metrics_when_present(self):
        class Ledgered(FakeFront):
            metrics = "the-ledger"

        assert replay_calls(Ledgered(), []) == "the-ledger"
        assert replay_calls(FakeFront(), []) is None

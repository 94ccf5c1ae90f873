"""The record codec: its line encoder, and a fuzz over every decoder.

Taxonomy files, delta files and inline deltas share one decoder and one
line encoder (:mod:`repro.taxonomy.codec`).  The encoder must write the
text ``json.dumps`` writes for the record dicts ``to_wire`` ships, and
every malformed record must end in a :class:`TaxonomyError` that names
its place: in ``Taxonomy.load``, ``load_delta`` and
``TaxonomyDelta.from_wire``, and as a 4xx over ``/admin/apply-delta``
with the server still serving what it served.
"""

import json
import math
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import APIError, TaxonomyError
from repro.serving import TaxonomyClient, build_cluster, start_server
from repro.taxonomy.codec import (
    decode_entity,
    decode_relation,
    entity_dict,
    entity_fields,
    record_lines,
    relation_dict,
    relation_fields,
)
from repro.taxonomy.delta import TaxonomyDelta, load_delta, save_delta
from repro.taxonomy.model import Entity, IsARelation
from repro.taxonomy.store import Taxonomy

from malformed import MALFORMED

# characters json escapes, ones other encoders treat specially, CJK,
# non-BMP and a lone surrogate
_SPECIAL = ['"', "\\", "/", "\x00", "\x1f", "\x7f", " ", "歌", "\U0001f600",
            "\ud800"]
TEXT = st.text(
    st.one_of(st.sampled_from(_SPECIAL), st.characters()),
    min_size=1, max_size=6,
)
#: text a UTF-8 file can hold (no lone surrogates)
FILE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SOURCES = st.sampled_from(["bracket", "abstract", "infobox", "tag"])


def entities(text=TEXT):
    return st.builds(
        Entity, text, text, st.lists(text, max_size=3).map(tuple)
    )


def relations(text=TEXT):
    pairs = st.tuples(text, text).filter(lambda pair: pair[0] != pair[1])
    return st.builds(
        lambda pair, source, kind, score: IsARelation(
            *pair, source, kind, score
        ),
        pairs, SOURCES, st.sampled_from(["entity", "concept"]), FINITE,
    )


class TestLineEncoder:
    @given(entities(), relations())
    @settings(max_examples=200)
    def test_record_dicts_dump_to_the_line_encoder_text(
        self, entity, relation
    ):
        for record, as_dict, fields, decode in (
            (entity, entity_dict, entity_fields, decode_entity),
            (relation, relation_dict, relation_fields, decode_relation),
        ):
            text = "{" + fields(record) + "}"
            assert json.dumps(as_dict(record), ensure_ascii=False) == text
            assert decode(json.loads(text)) == record
        (line,) = record_lines("relation_add", relation_fields, [relation])
        assert line == json.dumps(
            {"kind": "relation_add", **relation_dict(relation)},
            ensure_ascii=False,
        ) + "\n"

    @given(st.lists(entities(), max_size=3),
           st.lists(relations(), max_size=3))
    def test_delta_lines_are_its_wire_records(self, ents, rels):
        """A delta file's body lines are ``json.dumps`` of the records
        ``to_wire`` ships, every record kind included."""
        delta = TaxonomyDelta(
            name="夜间",
            entities_added=tuple(ents),
            entities_removed=tuple(ents[1:]),
            entities_changed=tuple(zip(ents, ents[::-1])),
            relations_added=tuple(rels),
            relations_removed=tuple(rels[1:]),
            relations_changed=tuple(zip(rels, rels[::-1])),
        )
        _, *body = delta.lines()
        assert body == [
            json.dumps(record, ensure_ascii=False) + "\n"
            for record in delta.to_wire()["records"]
        ]

    @given(st.lists(entities(FILE_TEXT), max_size=4),
           st.lists(relations(FILE_TEXT), max_size=4))
    def test_save_load_save_is_byte_stable(self, ents, rels):
        taxonomy = Taxonomy(name="夜间")
        for entity in {e.page_id: e for e in ents}.values():
            taxonomy.add_entity(entity)
        for relation in rels:
            if relation.hyponym_kind == "concept" \
                    or taxonomy.has_entity(relation.hyponym):
                taxonomy.add_relation(relation)
        delta = TaxonomyDelta.compute(Taxonomy(), taxonomy)
        with tempfile.TemporaryDirectory() as workdir:
            first, second = Path(workdir, "1"), Path(workdir, "2")
            for save, load, subject in (
                (Taxonomy.save, Taxonomy.load, taxonomy),
                (save_delta, load_delta, delta),
            ):
                save(subject, first)
                save(load(first), second)
                assert first.read_bytes() == second.read_bytes()


# -- the fuzz ---------------------------------------------------------------

REQUIRED = {
    "entity": ("page_id", "name"),
    "relation": ("hyponym", "hypernym", "source", "hyponym_kind"),
}
#: values of the wrong type for each field ("kind" is a string field)
NOT_TEXT = st.one_of(st.none(), st.booleans(), st.integers(), FINITE,
                     st.just(""))
WRONG = {
    "aliases": st.one_of(
        st.none(), st.booleans(), st.integers(), FILE_TEXT,
        st.lists(NOT_TEXT, min_size=1),
    ),
    "score": st.one_of(st.none(), st.booleans(), st.integers(), FILE_TEXT),
}
MUTATIONS = (
    "dropped key", "swapped type", "nested value", "non-finite float",
    "not an object",
)


@st.composite
def mutations(draw):
    """``(record type, valid record, mutated record)``: one thing broken."""
    kind = draw(st.sampled_from(sorted(REQUIRED)))
    if kind == "entity":
        valid = entity_dict(draw(entities(FILE_TEXT)))
    else:
        valid = relation_dict(draw(relations(FILE_TEXT)))
    mutated = dict(valid)
    how = draw(st.sampled_from(MUTATIONS))
    if how == "not an object":
        mutated = draw(st.one_of(
            st.lists(FILE_TEXT, max_size=2), FILE_TEXT, st.integers(),
            st.none(),
        ))
    elif how == "dropped key":
        del mutated[draw(st.sampled_from(REQUIRED[kind]))]
    else:
        field = draw(st.sampled_from([*valid, "kind"]))
        if how == "swapped type":
            mutated[field] = draw(WRONG.get(field, NOT_TEXT))
        elif how == "nested value":
            value = valid.get(field, kind)
            mutated[field] = draw(st.sampled_from([[value], {"v": value}]))
        else:
            mutated[field] = draw(st.sampled_from(
                [math.nan, math.inf, -math.inf]
            ))
    return kind, valid, mutated


def as_record(record, kind: str):
    """*record* as a record of *kind*; a non-object stays as it is, and
    a mutated ``"kind"`` wins."""
    return {"kind": kind, **record} if isinstance(record, dict) else record


def write_lines(path: Path, records) -> None:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )


def refused_at(call, place: str) -> None:
    """``call()`` raises a TaxonomyError that names *place* once."""
    with pytest.raises(TaxonomyError) as excinfo:
        call()
    message = str(excinfo.value)
    assert message.startswith(f"{place}: "), message
    assert message.count(place) == 1, message


TAXONOMY_HEADER = {"kind": "header", "name": "t", "format_version": 1}
EMPTY_DELTA = TaxonomyDelta(name="t").to_wire()


class TestFuzz:
    @given(mutations())
    @settings(max_examples=300, deadline=None)
    def test_every_mutation_ends_in_a_taxonomy_error(self, case):
        kind, valid, mutated = case
        with tempfile.TemporaryDirectory() as workdir:
            # a taxonomy file where the valid record loads
            context = [TAXONOMY_HEADER]
            if kind == "relation" and valid["hyponym_kind"] == "entity":
                context.append({"kind": "entity",
                                "page_id": valid["hyponym"], "name": "甲"})
            path = Path(workdir, "t.jsonl")
            write_lines(path, [*context, as_record(valid, kind)])
            Taxonomy.load(path)
            write_lines(path, [*context, as_record(mutated, kind)])
            refused_at(lambda: Taxonomy.load(path),
                       f"{path}:{len(context) + 1}")

            added = f"{kind}_add"
            path = Path(workdir, "d.jsonl")
            write_lines(path, [{"kind": "header", **EMPTY_DELTA},
                               as_record(mutated, added)])
            refused_at(lambda: load_delta(path), f"{path}:2")

        payload = {**EMPTY_DELTA, "records": [as_record(mutated, added)]}
        refused_at(lambda: TaxonomyDelta.from_wire(payload), "wire: record 0")


def served_taxonomy(marker: str) -> Taxonomy:
    taxonomy = Taxonomy()
    taxonomy.add_entity(Entity("刘德华#0", "刘德华", aliases=("华仔",)))
    taxonomy.add_relation(IsARelation("刘德华#0", marker, "tag"))
    return taxonomy


class TestInlineDeltasOverHTTP:
    def test_every_mutated_inline_delta_gets_a_4xx(self):
        """One server for every example: each mutated delta, and each
        shared malformed record, is a 4xx, and the version, content
        hash and answers stay as they were; the same delta without the
        mutation then applies."""
        good = TaxonomyDelta.compute(
            served_taxonomy("歌手"), served_taxonomy("演员")
        )
        server = start_server(
            build_cluster(served_taxonomy("歌手"), shards=2, replicas=2),
            admin_token="tok",
        )
        try:
            with TaxonomyClient(
                server.url, admin_token="tok", retries=0, timeout=5.0
            ) as client:
                before = client.version()

                def refused(kind, record):
                    payload = good.to_wire()
                    payload["records"].append(
                        as_record(record, f"{kind}_add")
                    )
                    inline = types.SimpleNamespace(to_wire=lambda: payload)
                    with pytest.raises(APIError, match=r"HTTP 4\d\d: "):
                        client.apply_delta_wire(inline)
                    after = client.version()
                    assert after["version"] == before["version"]
                    assert after["content_hash"] == before["content_hash"]
                    assert client.get_concepts("刘德华#0") == ["歌手"]

                @given(mutations())
                @settings(max_examples=100, deadline=None)
                def post(case):
                    kind, _, mutated = case
                    refused(kind, mutated)

                post()
                for case in MALFORMED:
                    refused(*case.values)
                assert client.apply_delta_wire(good)["version"] == "v2"
                assert client.get_concepts("刘德华#0") == ["演员"]
        finally:
            server.close()

"""Malformed entity and relation records, shared by the decoders' tests.

Each case is ``(record type, fields)``: one entity or relation record
that breaks the layout :mod:`repro.taxonomy.codec` decides.
:func:`taxonomy_line` and :func:`delta_record` put a case in the form a
taxonomy file and a delta carry it, so one list drives the tests of
``Taxonomy.load``, ``load_delta`` and ``TaxonomyDelta.from_wire``.
"""

import json

import pytest

#: a relation that is valid after an entity line with page_id ``a#0``
RELATION = {
    "hyponym": "a#0", "hypernym": "乙", "source": "tag",
    "hyponym_kind": "entity", "score": 1.0,
}


def _relation(**fields):
    return {**RELATION, **fields}


def _without(record: dict, field: str) -> dict:
    return {key: value for key, value in record.items() if key != field}


MALFORMED = [
    # loaded or applied before the codec: an inline delta with a string
    # score, aliases "abc" as three one-character aliases, page id 5
    pytest.param("relation", _relation(score="x"), id="string-score"),
    pytest.param(
        "entity", {"page_id": "p1", "name": "甲", "aliases": "abc"},
        id="string-aliases",
    ),
    pytest.param("entity", {"page_id": 5, "name": "b"}, id="int-page-id"),
    # the taxonomy decoder's earlier cases, under their earlier ids
    pytest.param(
        "relation",
        _relation(hyponym="丙", hyponym_kind="concept", score=None),
        id="null-concept-score",
    ),
    pytest.param(
        "entity", {"page_id": "b#0", "name": "丁", "aliases": [[1]]},
        id="unhashable-alias",
    ),
    pytest.param(
        "relation", _without(RELATION, "hypernym"), id="missing-hypernym"
    ),
    pytest.param("entity", {"page_id": "", "name": "甲"}, id="empty-page-id"),
    pytest.param("entity", {"page_id": "a#0", "name": ""}, id="empty-name"),
    pytest.param("relation", _relation(source="nope"), id="unknown-source"),
    # every other type the codec refuses
    pytest.param("entity", {"name": "甲"}, id="missing-page-id"),
    pytest.param("entity", {"page_id": "a#0"}, id="missing-name"),
    pytest.param("entity", {"page_id": "a#0", "name": 1}, id="int-name"),
    pytest.param(
        "entity", {"page_id": "a#0", "name": None}, id="null-name"
    ),
    pytest.param(
        "entity", {"page_id": "a#0", "name": "甲", "aliases": None},
        id="null-aliases",
    ),
    pytest.param(
        "entity", {"page_id": "a#0", "name": "甲", "aliases": ["x", 7]},
        id="int-alias",
    ),
    pytest.param(
        "entity", {"page_id": "a#0", "name": "甲", "aliases": [""]},
        id="empty-alias",
    ),
    pytest.param("relation", _relation(score=1), id="int-score"),
    pytest.param("relation", _relation(score=True), id="bool-score"),
    pytest.param("relation", _relation(score=None), id="null-score"),
    pytest.param("relation", _relation(score=float("nan")), id="nan-score"),
    pytest.param(
        "relation", _relation(score=float("inf")), id="infinite-score"
    ),
    pytest.param(
        "relation", _relation(score=-float("inf")),
        id="negative-infinite-score",
    ),
    pytest.param("relation", _relation(hyponym=1), id="int-hyponym"),
    pytest.param(
        "relation", _relation(hypernym={"name": "乙"}), id="object-hypernym"
    ),
    pytest.param("relation", _relation(source=5), id="int-source"),
    pytest.param(
        "relation", _relation(hyponym_kind="page"), id="unknown-hyponym-kind"
    ),
    pytest.param(
        "relation", _without(RELATION, "source"), id="missing-source"
    ),
    pytest.param(
        "relation", _without(RELATION, "hyponym_kind"),
        id="missing-hyponym-kind",
    ),
]


def taxonomy_line(kind: str, fields: dict) -> str:
    """The case as a taxonomy file line."""
    return json.dumps({"kind": kind, **fields}, ensure_ascii=False)


def delta_record(kind: str, fields: dict) -> dict:
    """The case as an ``*_add`` delta record."""
    return {"kind": f"{kind}_add", **fields}

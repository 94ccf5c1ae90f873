"""The layout of taxonomy and delta records, on disk and on the wire.

Taxonomy files, delta files and inline deltas
(:meth:`~repro.taxonomy.delta.TaxonomyDelta.to_wire`) carry the same
two records.  This module spells their fields, decides their types and
turns them into text and back:

- an entity is ``page_id``, ``name`` and ``aliases``;
- a relation is ``hyponym``, ``hypernym``, ``source``,
  ``hyponym_kind`` and ``score``.

Types are strict.  Page ids, names, aliases, hyponyms, hypernyms,
sources and hyponym kinds are non-empty strings, and ``aliases`` is a
list of them (absent: none).  ``score`` is a finite float (absent:
``1.0``); an integer, boolean, ``null``, string, ``NaN`` or infinite
score is refused.  A header's ``name`` is a string, a delta header's
``new_n_relations`` an integer and its ``new_stats`` ``null`` or four
integer counts.  The program writes nothing else, so whatever it saves
loads back.  A decoder raises :class:`~repro.errors.TaxonomyError`
on anything else, and the reader that called it prefixes the record's
place (``file:line`` or ``wire: record i``), once.

The line encoder writes, field for field, the text
``json.dumps(record, ensure_ascii=False)`` gives, without a JSON
encoder per record: ``encode_basestring`` (the quoting ``json.dumps``
calls) for a string and ``float.__repr__`` (json's rule for a finite
float) for the score.  The headers are written by ``json.dumps``.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator

from repro.errors import TaxonomyError
from repro.taxonomy.model import Entity, IsARelation, TaxonomyStats

#: Version of the taxonomy JSONL layout; bump on incompatible changes.
#: A taxonomy header without the field is a legacy (pre-versioning)
#: file and loads.
TAXONOMY_FORMAT_VERSION = 1

#: Version of the delta layout; bump on incompatible changes.  Deltas
#: were born versioned, so a delta header without it is malformed.
DELTA_FORMAT_VERSION = 1

DELTA_KIND = "taxonomy-delta"

#: ``TaxonomyStats.as_dict`` keys a delta header's ``new_stats`` needs
_STATS_KEYS = (
    "entities", "concepts",
    "entity_concept_relations", "subconcept_concept_relations",
)


def check_format_version(header: dict, supported: int) -> None:
    """Reject a header from a future format; accept legacy ones."""
    version = header.get("format_version")
    if version is None:
        return  # legacy file, pre-versioning layout
    if not _is_int(version) or version < 1:
        raise TaxonomyError(f"malformed format_version {version!r}")
    if version > supported:
        raise TaxonomyError(
            f"file has format_version {version}, but this build "
            f"understands at most {supported}; upgrade the library"
        )


def _is_int(value) -> bool:
    # bool is an int subclass, but `"format_version": true` is garbage
    return isinstance(value, int) and not isinstance(value, bool)


def _string(record: dict, field: str, what: str) -> str:
    """``record[field]``, which must be a non-empty string."""
    value = record.get(field)
    if isinstance(value, str) and value:
        return value
    if field not in record:
        raise TaxonomyError(f"{what} record missing {field!r}")
    raise TaxonomyError(
        f"{what} {field} must be a non-empty string, got {value!r}"
    )


# -- entity and relation records --------------------------------------------


def decode_entity(record: dict) -> Entity:
    page_id = _string(record, "page_id", "entity")
    name = _string(record, "name", "entity")
    aliases = record.get("aliases", [])
    if not isinstance(aliases, list) or not all(
        isinstance(alias, str) and alias for alias in aliases
    ):
        raise TaxonomyError(
            f"entity aliases must be a list of non-empty strings, "
            f"got {aliases!r}"
        )
    return Entity(page_id, name, tuple(aliases))


def decode_relation(record: dict) -> IsARelation:
    hyponym = _string(record, "hyponym", "relation")
    hypernym = _string(record, "hypernym", "relation")
    source = _string(record, "source", "relation")
    hyponym_kind = _string(record, "hyponym_kind", "relation")
    score = record.get("score", 1.0)
    if not isinstance(score, float) or not math.isfinite(score):
        raise TaxonomyError(
            f"relation score must be a finite float such as 1.0, "
            f"got {score!r}"
        )
    # the constructor refuses an unknown source or hyponym kind
    return IsARelation(hyponym, hypernym, source, hyponym_kind, score)


def entity_dict(entity: Entity) -> dict:
    return {
        "page_id": entity.page_id,
        "name": entity.name,
        "aliases": list(entity.aliases),
    }


def relation_dict(relation: IsARelation) -> dict:
    return {
        "hyponym": relation.hyponym,
        "hypernym": relation.hypernym,
        "source": relation.source,
        "hyponym_kind": relation.hyponym_kind,
        "score": relation.score,
    }


def entity_fields(entity: Entity) -> str:
    """:func:`entity_dict` as JSON object members, without the braces."""
    quote = encode_basestring
    return (
        f'"page_id": {quote(entity.page_id)}, '
        f'"name": {quote(entity.name)}, '
        f'"aliases": [{", ".join(map(quote, entity.aliases))}]'
    )


def relation_fields(relation: IsARelation) -> str:
    """:func:`relation_dict` as JSON object members, without the braces."""
    quote = encode_basestring
    return (
        f'"hyponym": {quote(relation.hyponym)}, '
        f'"hypernym": {quote(relation.hypernym)}, '
        f'"source": {quote(relation.source)}, '
        f'"hyponym_kind": {quote(relation.hyponym_kind)}, '
        f'"score": {float.__repr__(relation.score)}'
    )


def record_lines(
    kind: str, fields: Callable[..., str], records: Iterable
) -> Iterator[str]:
    """One JSONL line per record: ``{"kind": <kind>, <fields(record)>}``;
    *kind* is one of the program's record kinds, which need no escape."""
    head = f'{{"kind": "{kind}", '
    for record in records:
        yield f"{head}{fields(record)}}}\n"


# -- headers -----------------------------------------------------------------


def taxonomy_header(name: str) -> str:
    """A taxonomy file's first line."""
    header = {
        "kind": "header",
        "name": name,
        "format_version": TAXONOMY_FORMAT_VERSION,
    }
    return json.dumps(header, ensure_ascii=False) + "\n"


def decode_taxonomy_header(header: dict) -> str:
    """The taxonomy name a header line carries."""
    check_format_version(header, TAXONOMY_FORMAT_VERSION)
    return _name(header)


def _name(header: dict) -> str:
    name = header.get("name", "CN-Probase")
    if not isinstance(name, str):
        raise TaxonomyError(f"header name must be a string, got {name!r}")
    return name


def delta_header(delta) -> dict:
    """The header of *delta*: a delta file's first line (with ``"kind":
    "header"``) and the top level of its inline form."""
    stats = delta.new_stats
    return {
        "format": DELTA_KIND,
        "format_version": DELTA_FORMAT_VERSION,
        "name": delta.name,
        "new_n_relations": delta.new_n_relations,
        "new_stats": stats.as_dict() if stats is not None else None,
        "base_content_hash": delta.base_content_hash,
        "new_content_hash": delta.new_content_hash,
    }


def decode_delta_header(header: dict) -> dict:
    """The :class:`~repro.taxonomy.delta.TaxonomyDelta` fields a delta
    header carries, by name."""
    if header.get("format") != DELTA_KIND:
        raise TaxonomyError(
            f"not a taxonomy delta (format={header.get('format')!r})"
        )
    if "format_version" not in header:
        raise TaxonomyError("delta header is missing format_version")
    check_format_version(header, DELTA_FORMAT_VERSION)
    n_relations = header.get("new_n_relations", 0)
    if not _is_int(n_relations):
        raise TaxonomyError(f"malformed new_n_relations {n_relations!r}")
    stats = header.get("new_stats")
    if stats is not None:
        counts = (
            [stats.get(key) for key in _STATS_KEYS]
            if isinstance(stats, dict) else ()
        )
        if not counts or not all(map(_is_int, counts)):
            raise TaxonomyError(
                f"malformed new_stats {stats!r}: needs the integer counts "
                f"{', '.join(_STATS_KEYS)}"
            )
        stats = TaxonomyStats(*counts)
    fields = {
        "name": _name(header),
        "new_n_relations": n_relations,
        "new_stats": stats,
    }
    for field in ("base_content_hash", "new_content_hash"):
        value = header.get(field)
        if value is not None and not isinstance(value, str):
            raise TaxonomyError(f"malformed {field} {value!r}")
        fields[field] = value
    return fields

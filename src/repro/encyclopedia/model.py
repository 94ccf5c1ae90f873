"""Data model for encyclopedia pages and dumps.

A page mirrors the anatomy of Figure 1 in the paper:

- ``title`` — the entity mention (``刘德华``),
- ``bracket`` — the disambiguation noun compound (``中国香港男演员``),
- ``abstract`` — free-text lead paragraph,
- ``infobox`` — SPO triples (``<刘德华, 职业, 演员>``),
- ``tags`` — flat category labels (``人物``, ``演员``, ``音乐``...).

``page_id`` is the disambiguated identity: two senses of the same mention
(e.g. 苹果 the fruit vs 苹果 the company) are distinct pages sharing a
title.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import CorpusError


@dataclass(frozen=True)
class Triple:
    """One infobox SPO triple; the subject is the owning page's id."""

    subject: str
    predicate: str
    value: str

    def to_dict(self) -> dict[str, str]:
        return {"s": self.subject, "p": self.predicate, "o": self.value}

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "Triple":
        """Decode ``{"s": ..., "p": ..., "o": ...}``: three strings."""
        if not isinstance(data, dict):
            raise CorpusError(f"infobox triple must be an object, got {data!r}")
        try:
            subject, predicate, value = data["s"], data["p"], data["o"]
        except KeyError as exc:
            raise CorpusError(f"triple record missing key: {exc}") from exc
        if not all(
            isinstance(part, str) for part in (subject, predicate, value)
        ):
            raise CorpusError(
                f"infobox triple s, p and o must be strings, got {data!r}"
            )
        return cls(subject=subject, predicate=predicate, value=value)


@dataclass(frozen=True)
class EncyclopediaPage:
    """One encyclopedia article with its four information sources."""

    page_id: str
    title: str
    bracket: str | None = None
    abstract: str = ""
    infobox: tuple[Triple, ...] = ()
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.page_id:
            raise CorpusError("page_id must be non-empty")
        if not self.title:
            raise CorpusError(f"page {self.page_id!r} has an empty title")

    def digest(self) -> str:
        """Stable content hash of this page alone.

        Two pages with equal content share a digest regardless of which
        dump they sit in; any edited field changes it.  This is the unit
        the incremental-build diff compares, so it must cover every
        field a generation stage can read.
        """
        return hashlib.sha256(
            json.dumps(
                self.to_dict(), ensure_ascii=False, sort_keys=True
            ).encode("utf-8")
        ).hexdigest()

    @property
    def full_title(self) -> str:
        """Rendered title including the bracket annotation when present."""
        if self.bracket:
            return f"{self.title}（{self.bracket}）"
        return self.title

    @property
    def has_abstract(self) -> bool:
        return bool(self.abstract.strip())

    def infobox_values(self, predicate: str) -> list[str]:
        """All infobox values recorded for *predicate* on this page."""
        return [t.value for t in self.infobox if t.predicate == predicate]

    def text_snippets(self) -> tuple[str, ...]:
        """This page's free-text snippets, in corpus order.

        The per-page unit of :meth:`EncyclopediaDump.text_corpus`; the
        incremental build keys segmentation reuse on it, so the two
        must stay in lockstep.
        """
        snippets: list[str] = []
        if self.has_abstract:
            snippets.append(self.abstract)
        if self.bracket:
            snippets.append(self.bracket)
        snippets.extend(self.tags)
        return tuple(snippets)

    def to_dict(self) -> dict:
        return {
            "page_id": self.page_id,
            "title": self.title,
            "bracket": self.bracket,
            "abstract": self.abstract,
            "infobox": [t.to_dict() for t in self.infobox],
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EncyclopediaPage":
        """Decode a page record, the layout :meth:`to_dict` writes.

        Types are strict: ``page_id`` and ``title`` are strings (the
        constructor refuses empty ones), ``bracket`` is ``null`` or a
        string, ``abstract`` a string (absent: empty), ``tags`` a list
        of strings and ``infobox`` a list of triples (absent: none).
        Anything else raises :class:`~repro.errors.CorpusError`.
        """
        try:
            page_id, title = data["page_id"], data["title"]
        except KeyError as exc:
            raise CorpusError(f"page record missing key: {exc}") from exc
        for name, value in (("page_id", page_id), ("title", title)):
            if not isinstance(value, str):
                raise CorpusError(
                    f"page {name} must be a string, got {value!r}"
                )
        bracket = data.get("bracket")
        if bracket is not None and not isinstance(bracket, str):
            raise CorpusError(
                f"page bracket must be null or a string, got {bracket!r}"
            )
        abstract = data.get("abstract", "")
        if not isinstance(abstract, str):
            raise CorpusError(
                f"page abstract must be a string, got {abstract!r}"
            )
        tags = data.get("tags", [])
        if not isinstance(tags, list) or not all(
            isinstance(tag, str) for tag in tags
        ):
            raise CorpusError(
                f"page tags must be a list of strings, got {tags!r}"
            )
        infobox = data.get("infobox", [])
        if not isinstance(infobox, list):
            raise CorpusError(
                f"page infobox must be a list of triples, got {infobox!r}"
            )
        return cls(
            page_id=page_id,
            title=title,
            bracket=bracket,
            abstract=abstract,
            infobox=tuple(Triple.from_dict(triple) for triple in infobox),
            tags=tuple(tags),
        )


@dataclass
class DumpStats:
    """Aggregate counts matching how the paper describes its input dump."""

    n_pages: int = 0
    n_abstracts: int = 0
    n_triples: int = 0
    n_tags: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "pages": self.n_pages,
            "abstracts": self.n_abstracts,
            "triples": self.n_triples,
            "tags": self.n_tags,
        }


@dataclass(frozen=True)
class DumpDiff:
    """Page-level difference between two dumps (old → new).

    ``added`` are page_ids only the new dump has, ``removed`` only the
    old one, ``changed`` are present in both with different per-page
    digests.  All three are sorted tuples, so a diff is deterministic
    and serialisable.  This is the currency the incremental build path
    consumes: generation work is re-run only for ``added`` + ``changed``
    pages, and ``removed`` pages' contributions fall out of the merge.
    """

    added: tuple[str, ...] = ()
    changed: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.changed or self.removed)

    @property
    def n_touched(self) -> int:
        return len(self.added) + len(self.changed) + len(self.removed)

    def regenerate_ids(self) -> frozenset[str]:
        """Pages of the *new* dump whose extraction must be re-run."""
        return frozenset(self.added) | frozenset(self.changed)

    def as_dict(self) -> dict[str, list[str]]:
        return {
            "added": list(self.added),
            "changed": list(self.changed),
            "removed": list(self.removed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DumpDiff":
        return cls(
            added=tuple(data.get("added", ())),
            changed=tuple(data.get("changed", ())),
            removed=tuple(data.get("removed", ())),
        )


def diff_dumps(old: "EncyclopediaDump", new: "EncyclopediaDump") -> DumpDiff:
    """Page-level :class:`DumpDiff` between *old* and *new*.

    Compares per-page content digests, so reordering pages alone yields
    an empty diff (page identity is ``page_id``, not position).
    """
    old_digests = old.page_digests()
    new_digests = new.page_digests()
    added = sorted(set(new_digests) - set(old_digests))
    removed = sorted(set(old_digests) - set(new_digests))
    changed = sorted(
        page_id
        for page_id, digest in new_digests.items()
        if page_id in old_digests and old_digests[page_id] != digest
    )
    return DumpDiff(
        added=tuple(added), changed=tuple(changed), removed=tuple(removed)
    )


class EncyclopediaDump:
    """An in-memory collection of pages with id lookup."""

    def __init__(self, pages: list[EncyclopediaPage] | None = None) -> None:
        self._pages: list[EncyclopediaPage] = []
        self._by_id: dict[str, EncyclopediaPage] = {}
        self._fingerprint: str | None = None
        self._page_digests: dict[str, str] | None = None
        for page in pages or []:
            self.add(page)

    def add(self, page: EncyclopediaPage) -> None:
        if page.page_id in self._by_id:
            raise CorpusError(f"duplicate page_id {page.page_id!r}")
        self._pages.append(page)
        self._by_id[page.page_id] = page
        self._fingerprint = None
        self._page_digests = None

    def page_digests(self) -> dict[str, str]:
        """``page_id → content digest`` for every page, in dump order.

        The per-page granularity of :meth:`fingerprint`: this is what
        :func:`diff_dumps` compares to name exactly the pages an
        incremental rebuild must revisit.  Memoised until the next
        :meth:`add`; the returned mapping must be treated as read-only.
        """
        if self._page_digests is None:
            self._page_digests = {
                page.page_id: page.digest() for page in self._pages
            }
        return self._page_digests

    def fingerprint(self) -> str:
        """Stable content hash of every page, for rebuild caching.

        Two dumps with the same pages in the same order share a
        fingerprint; any added or edited page changes it.  Derived from
        the per-page digests (so the two can never disagree), computed
        lazily and memoised until the next :meth:`add`.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for page_id, page_digest in self.page_digests().items():
                digest.update(page_id.encode("utf-8"))
                digest.update(b"\x00")
                digest.update(page_digest.encode("ascii"))
                digest.update(b"\x00")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def diff(self, newer: "EncyclopediaDump") -> DumpDiff:
        """:func:`diff_dumps` from this dump (old) to *newer*."""
        return diff_dumps(self, newer)

    def get(self, page_id: str) -> EncyclopediaPage | None:
        return self._by_id.get(page_id)

    def __len__(self) -> int:
        return len(self._pages)

    def __iter__(self) -> Iterator[EncyclopediaPage]:
        return iter(self._pages)

    def __contains__(self, page_id: str) -> bool:
        return page_id in self._by_id

    @property
    def pages(self) -> tuple[EncyclopediaPage, ...]:
        return tuple(self._pages)

    def stats(self) -> DumpStats:
        stats = DumpStats(n_pages=len(self._pages))
        for page in self._pages:
            if page.has_abstract:
                stats.n_abstracts += 1
            stats.n_triples += len(page.infobox)
            stats.n_tags += len(page.tags)
        return stats

    def text_corpus(self) -> Iterator[str]:
        """Yield every free-text snippet: abstracts, brackets, tag strings.

        This is the "Chinese text corpus" used for PMI and NE support
        statistics.  Delegates to :meth:`EncyclopediaPage.text_snippets`
        so the per-page slicing the incremental build relies on can
        never drift from the flat corpus.
        """
        for page in self._pages:
            yield from page.text_snippets()

"""The paper's three public APIs, as Table II counts them.

Table II of the paper reports per-API call counts after six months on
Aliyun (men2ent 43.9M, getConcept 13.8M, getEntity 25.8M).  The
lookups themselves are methods of the taxonomy
(:class:`~repro.taxonomy.store.Taxonomy` and its frozen
:class:`~repro.taxonomy.store.ReadOptimizedTaxonomy`), served with
validation and accounting by every front of
:class:`~repro.taxonomy.service.BatchedServingAPI`.  This module keeps
the call mix the workload library samples from
(:class:`~repro.workloads.sampling.TableIICallStream`).
"""

from __future__ import annotations

# Call mix from Table II, normalised.
PAPER_API_CALLS = {
    "men2ent": 43_896_044,
    "getConcept": 13_815_076,
    "getEntity": 25_793_372,
}
_TOTAL_PAPER_CALLS = sum(PAPER_API_CALLS.values())
PAPER_API_MIX = {
    name: count / _TOTAL_PAPER_CALLS for name, count in PAPER_API_CALLS.items()
}

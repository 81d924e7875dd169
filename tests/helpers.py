"""Hand-wiring a :class:`PartitionWorker` outside a driver: every worker
needs a stripe over a shared base dictionary, and every batch it is fed
is id-encoded."""

from __future__ import annotations

import numpy as np

from repro.parallel import EncodedBatch, build_base_dictionary
from repro.rdf.dictionary import PartitionDictionary, encode_rows


def stripes(k, *graphs, rules=()):
    """One :class:`PartitionDictionary` per node over a base holding the
    terms of ``graphs`` and ``rules``."""
    base = build_base_dictionary(graphs, rules=rules)
    return [PartitionDictionary(base, i, k) for i in range(k)]


def wire_batch(dictionary, sender, dest, round_no, triples):
    """``triples`` as the peer owning ``dictionary`` would ship them:
    encoded (minting in its stripe as needed), with every non-base id's
    term in the delta-dictionary."""
    s, p, o = encode_rows(dictionary, triples)
    ids = np.unique(np.concatenate([s, p, o])).tolist()
    delta = tuple((i, dictionary.decode(i)) for i in ids
                  if i >= dictionary.base_size)
    return EncodedBatch(sender, dest, round_no, s, p, o, delta)


def decoded(store):
    """Whether a term-graph snapshot of ``store`` has been decoded."""
    return any(key[0] == "term_graph" for key, _ in store._cached_items())

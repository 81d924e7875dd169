"""Streaming data partitioning over N-Triples files.

Section III-A's scalability argument for the hash and domain-specific
policies is that they "can be implemented as a streaming algorithm, i.e.,
the whole data graph need not be loaded into the memory".  This module is
that implementation: one pass over an N-Triples file, one output file per
partition, constant memory beyond the output buffers (plus, for the domain
policy, the group-assignment table, which is tiny — one entry per
*cluster*, not per resource).

The graph policy cannot stream (it needs the whole structure); asking for
it here raises, pointing at the in-memory path.

Group balancing note: the in-memory domain policy balances groups by their
*final* sizes, which a single pass cannot know in advance; the streaming
version assigns each new group to the lightest partition *by running
triple count* — fully streaming, slightly less balanced.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TextIO

from repro.owl.vocabulary import RDF, is_schema_triple
from repro.partitioning.base import HashOwner
from repro.rdf.ntriples import (
    NTriplesParseError,
    parse_ntriples_line,
    triple_to_ntriples,
)
from repro.rdf.terms import Term, is_resource
from repro.util.timing import Stopwatch


@dataclass
class StreamingReport:
    """Outcome of a streaming partition run."""

    k: int
    policy: str
    triples_read: int
    triples_written: int
    lines_skipped: int
    partition_files: list[Path] = field(default_factory=list)
    triples_per_partition: list[int] = field(default_factory=list)
    schema_file: Path | None = None
    schema_triples: int = 0
    elapsed: float = 0.0

    @property
    def replication(self) -> float:
        """Written / instance-read ratio (1.0..2.0): the streaming
        analogue of IR (schema lines excluded from the denominator)."""
        data = self.triples_read - self.schema_triples
        return self.triples_written / data if data else 1.0


class _PartitionWriters:
    """One buffered output file per partition."""

    def __init__(self, directory: Path, k: int, prefix: str) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = [directory / f"{prefix}{i:04d}.nt" for i in range(k)]
        self._handles: list[TextIO] = [
            path.open("w", encoding="utf-8") for path in self.paths
        ]
        self.counts = [0] * k

    def write(self, pid: int, line: str) -> None:
        self._handles[pid].write(line)
        self.counts[pid] += 1

    def close(self) -> None:
        for handle in self._handles:
            handle.close()


def stream_partition(
    source: str | os.PathLike,
    out_dir: str | os.PathLike,
    k: int,
    group_of: Callable[[Term], str | None] | None = None,
    salt: int = 0,
    prefix: str = "part",
    strict: bool = True,
) -> StreamingReport:
    """Partition an N-Triples file into ``k`` per-partition files in one
    streaming pass (Algorithm 1 with a hash or domain owner).

    ``group_of=None`` selects the hash policy; a grouper function selects
    the domain policy (new groups are assigned to the lightest partition
    on first sight).  Placement follows Algorithm 1: the line is written to
    the owner of the subject and (when different) the owner of the object;
    literal objects are subject-only.

    ``strict=False`` skips malformed lines (counted in the report) instead
    of raising — the forgiving mode for scraped web data.

    Differences from the in-memory :func:`partition_data`, both inherent
    to streaming:

    * schema triples are diverted to ``<out_dir>/schema.nt`` as they are
      recognized (every node later loads that file in full);
    * ``rdf:type`` triples are placed on the subject's owner only — the
      streaming approximation of the vocabulary rule (a class URI's owner
      cannot be consulted because class-ness is only known from the whole
      stream; subject-only placement is sound for the compiled rule set
      for the same reason the vocabulary rule is).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    source = Path(source)
    watch = Stopwatch()

    hash_owner = HashOwner(k, salt=salt)
    group_part: dict[str, int] = {}
    part_load = [0] * k

    def owner(term: Term) -> int:
        if group_of is None:
            return hash_owner(term)
        group = group_of(term)
        if group is None:
            return hash_owner(term)
        pid = group_part.get(group)
        if pid is None:
            pid = min(range(k), key=part_load.__getitem__)
            group_part[group] = pid
        return pid

    out_path = Path(out_dir)
    writers = _PartitionWriters(out_path, k, prefix)
    read = written = skipped = schema_count = 0
    schema_path = out_path / "schema.nt"
    try:
        with source.open("r", encoding="utf-8") as fh, \
                schema_path.open("w", encoding="utf-8") as schema_out:
            for lineno, line in enumerate(fh, start=1):
                try:
                    triple = parse_ntriples_line(line, lineno)
                except NTriplesParseError:
                    if strict:
                        raise
                    skipped += 1
                    continue
                if triple is None:
                    continue
                read += 1
                out_line = triple_to_ntriples(triple) + "\n"
                if is_schema_triple(triple):
                    schema_out.write(out_line)
                    schema_count += 1
                    continue
                subject_owner = owner(triple.s)
                writers.write(subject_owner, out_line)
                written += 1
                part_load[subject_owner] += 1
                if (
                    triple.p != RDF.type
                    and is_resource(triple.o)
                ):
                    object_owner = owner(triple.o)
                    if object_owner != subject_owner:
                        writers.write(object_owner, out_line)
                        written += 1
                        part_load[object_owner] += 1
    finally:
        writers.close()

    return StreamingReport(
        k=k,
        policy="domain" if group_of is not None else "hash",
        triples_read=read,
        triples_written=written,
        lines_skipped=skipped,
        partition_files=writers.paths,
        triples_per_partition=list(writers.counts),
        schema_file=schema_path,
        schema_triples=schema_count,
        elapsed=watch.elapsed(),
    )

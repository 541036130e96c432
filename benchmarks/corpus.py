"""The exhaustive input corpus shared by the generate, verify-corpus and
reduce workloads, and the expected answers recorded with it.

`corpus.txt` holds every connected simple subcubic planar graph with
n <= 10 (class `s`, 2,463 graphs) and every connected subcubic planar
multigraph with n <= 8 (class `m`, 1,853 graphs), in generation order.
Each line is `<class> <n> <edges> <verify fingerprint>`, where <edges> lists
each edge as two vertex digits (`-` when there is none) and the fingerprint
is `checks.record_fingerprint` of the graph's `verify` record.

The inputs are stored rather than generated during set-up so that they stay
the same when the generator changes; the generate workload checks the
generator against this file.  Rebuild it from the current code with

    PYTHONPATH=src python3 benchmarks/corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

CORPUS_FILE = Path(__file__).with_name("corpus.txt")
CLASSES = {"s": ("subcubic-planar-simple", 10), "m": ("subcubic-planar-multi", 8)}


def encode_edges(edges) -> str:
    return "".join(f"{u}{v}" for u, v in edges) or "-"


def decode_edges(text: str) -> list[tuple[int, int]]:
    if text == "-":
        return []
    return [(int(text[i]), int(text[i + 1])) for i in range(0, len(text), 2)]


def load() -> list[tuple[str, int, list[tuple[int, int]], str]]:
    """(class tag, n, edges, verify fingerprint) for every corpus graph."""
    out = []
    for line in CORPUS_FILE.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        tag, n, edges, fp = line.split()
        out.append((tag, int(n), decode_edges(edges), fp))
    return out


def _rebuild() -> None:
    from jonescheck import harness

    from checks import record_fingerprint

    lines = ["# class n edges verify-fingerprint; see corpus.py"]
    for tag, (cls, max_n) in CLASSES.items():
        for g in harness.generate_corpus(harness.CorpusSpec(cls, max_n)):
            rec = json.loads(harness.run_checks(g).to_json())
            lines.append(f"{tag} {g.n} {encode_edges(g.edges)} {record_fingerprint(rec)}")
    CORPUS_FILE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _rebuild()

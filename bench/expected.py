"""Rewrite ``near_miss_expected.json`` from the near-miss structure seed.

Usage: python3 bench/expected.py

Every pair of SCCs of the near-miss corpus (template form) is compared
with the exhaustive reference closeness; a pair is expected when both
closeness components reach the workload's threshold of 1/2.
"""

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import corpora  # noqa: E402
import reference  # noqa: E402


def compute() -> dict:
    text, _ = corpora.near_miss_text(None)
    corpus = corpora.Corpus({"near.pl": text, "recall.pl": corpora.RECALL_FIXTURE}, [])
    sccs = corpora.intended_sccs(corpus)
    ref = reference.Reference()
    pairs = []
    for a, b in itertools.combinations(sorted(sccs), 2):
        n_a = reference.self_similarity(sccs[a])
        n_b = reference.self_similarity(sccs[b])
        floor = (max(n_a, n_b) + 1) // 2  # both sigma/N reach 1/2
        sigma = ref.sigma(sccs[a], sccs[b], floor=floor)
        if sigma is not None:
            (left,), (right,) = a, b
            pairs.append([left, right, sigma, n_a, n_b])
    return {"structure_seed": corpora.NEAR_MISS_STRUCTURE_SEED,
            "predicates": corpora.NEAR_MISS_PREDICATES,
            "threshold": "1/2",
            "pairs": pairs}


def dump(data: dict) -> str:
    """JSON with one pair per line."""
    head = {k: v for k, v in data.items() if k != "pairs"}
    lines = [json.dumps(pair) for pair in data["pairs"]]
    return (json.dumps(head)[:-1] + ', "pairs": [\n ' + ",\n ".join(lines) + "\n]}\n")


if __name__ == "__main__":
    with open(corpora.NEAR_MISS_EXPECTED, "w") as handle:
        handle.write(dump(compute()))
    print(f"wrote {corpora.NEAR_MISS_EXPECTED}")

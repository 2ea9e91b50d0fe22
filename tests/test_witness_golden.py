"""Recorded distances and least-index witnesses of random pairs.

witness_golden.json holds, for every pair in PAIRS, d_I with its type
and str() of every entry of the witness interleaving_distance returns,
one string per matrix row. The search scans candidates in a fixed order
and returns the least-index witness, so any change to the enumeration
kernel must reproduce these exactly. The pairs are tests/conftest.random_presentation pairs drawn
from one rng per seed (M first, then N), each with as many generators as
relations. The set includes every seed of the n=2 F2 7x7 tier, and pairs
whose search scans 50 or more candidates over its probes: F2 7x7 seeds
12 (8209) and 15 (130), F3 n=2 4x4 seed 28 (170), F3 n=2 5x5 seeds 15
(82) and 25 (840), F5 n=2 4x4 seeds 9 (3164), 11 (60), 15 (126) and 26
(254), F3 n=3 4x4 seeds 3 (142) and 9 (82), F2 n=3 5x5 seed 18 (148),
and F2 n=2 5x5 seeds 6 (245), 7 (208) and 10 (110). For each finite
witness it also holds the characterize output on the minimized pair at
d_I: serialize_pair of the compatible pair and serialize of both
induced presentations, whose relation names r1..rk follow the order of
their sort. After an intended change of answers, re-record with

    PYTHONPATH=src python tests/test_witness_golden.py
"""

import json
from pathlib import Path

from pmod import (interleaving_distance, compatible_presentations, minimize,
                  serialize, serialize_pair)

from conftest import F2, F3, F5, random_presentation, rng_for

GOLDEN = Path(__file__).with_name("witness_golden.json")

FIELDS = {2: F2, 3: F3, 5: F5}

# (p, n, generators = relations, seeds)
PAIRS = [
    (2, 2, 7, range(20)),
    (3, 2, 4, (1, 2, 11, 18, 28)),
    (3, 2, 5, (0, 3, 7, 12, 15, 25)),
    (5, 2, 4, (9, 11, 15, 26, 27, 29)),
    (3, 3, 4, (1, 3, 9, 17)),
    (5, 3, 3, (0, 1, 14)),
    (2, 3, 5, (8, 13, 18)),
    (2, 2, 5, (6, 7, 10)),
]


def _answers():
    out = {}
    for p, n, size, seeds in PAIRS:
        for seed in seeds:
            rng = rng_for(seed)
            M, N = (random_presentation(rng, FIELDS[p], n, size, size,
                                        size, size, name=name)
                    for name in "MN")
            d, w = interleaving_distance(M, N)
            entry = out[f"F{p} n={n} {size}x{size} seed {seed}"] = {
                "d": f"{type(d).__name__} {d}",
                "witness": None if w is None else {
                    name: [" ".join(map(str, row)) for row in mat.entries]
                    for name, mat in (("A", w.A), ("B", w.B))},
            }
            if w is not None:
                pair, ind_M, ind_N = compatible_presentations(
                    minimize(M), minimize(N), w, d)
                entry["pair"] = serialize_pair(pair).splitlines()
                entry["induced"] = [serialize(P).splitlines()
                                    for P in (ind_M, ind_N)]
    return out


def test_distances_and_witnesses_unchanged():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _answers()
    assert sorted(got) == sorted(golden)
    changed = [key for key in got if got[key] != golden[key]]
    assert not changed, changed


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_answers(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")

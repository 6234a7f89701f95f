#!/usr/bin/env python3
"""Write the frozen instance suites of the benchmark.

    python3 perfbench/gen.py --seed 1      # the suite the benchmark runs
    python3 perfbench/gen.py --seed 2      # the unseen suite for claims

Each workload gets ``suites/<workload>-<seed>.json``; the same seed always
gives the same bytes.  Every drawn instance is kept: nothing is selected
by passing it through the library.  Each instance carries its expected
verdict:

* squares of seeded graphs are realizable by construction;
* the "reject" mutations of ``screen`` are infeasible by a stated
  identity (odd trace, four-cycle sum not divisible by 4, or a common
  neighbour count above a degree), re-checked here with plain arithmetic;
* single-swap perturbations get their verdict from an uncapped search
  with the current library, re-verified with this benchmark's own A² and,
  for n <= 6, against a brute-force list of every square on n vertices;
* duplication families get their witness and class counts from an
  uncapped ``realize_all`` plus ``are_isomorphic`` classification.
"""

from __future__ import annotations

import argparse
import itertools
import random
from functools import lru_cache

from check import check_witness, component_signature, square_of
from suite import dump_suite, import_program, instance_rows, suite_path

# Per-search node caps used when the benchmark runs (never while generating).
NODE_CAPS = {"screen": 1_000_000, "hard": 150_000, "duplication": 1_500_000}

UNCAPPED = 10**15

BASES = {
    "K3": (3, [(0, 1), (0, 2), (1, 2)]),
    "C5": (5, [(i, (i + 1) % 5) for i in range(5)]),
    "Petersen": (
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    ),
}


def gnp_edges(rng: random.Random, n: int, p: float) -> list[list[int]]:
    return [[i, j] for i, j in itertools.combinations(range(n), 2) if rng.random() < p]


def swap_changes(rng: random.Random, rows) -> list[list[int]]:
    """Exchange two off-diagonal entries that differ (mirrored to keep S
    symmetric); raise one entry by 1 if every off-diagonal entry is equal."""
    n = len(rows)
    pairs = list(itertools.combinations(range(n), 2))
    i, j = rng.choice(pairs)
    others = [(k, l) for k, l in pairs if rows[k][l] != rows[i][j]]
    if not others:
        return [[i, j, rows[i][j] + 1]]
    k, l = rng.choice(others)
    return [[i, j, rows[k][l]], [k, l, rows[i][j]]]


def reject_changes(rng: random.Random, rows) -> tuple[str, list[list[int]]]:
    """A mutation that provably leaves no graph square, and its reason."""
    n = len(rows)
    kind = rng.choice(("odd_trace", "c4_sum", "cn_bound"))
    odd = [(i, j) for i, j in itertools.combinations(range(n), 2) if rows[i][j] % 2]
    if kind == "c4_sum" and odd:
        # C(s+1,2) - C(s,2) = s, counted for (i,j) and (j,i): the pair sum
        # moves by 2s = 2 (mod 4), but for a square it is 4 * #C4
        i, j = rng.choice(odd)
        return kind, [[i, j, rows[i][j] + 1]]
    if kind == "cn_bound":
        # i and j cannot share more neighbours than either has
        i, j = rng.sample(range(n), 2)
        return kind, [[i, j, min(rows[i][i], rows[j][j]) + 1]]
    # trace(A²) = 2|E| is even
    i = rng.randrange(n)
    return "odd_trace", [[i, i, rows[i][i] + 1]]


def proves_infeasible(proof: str, rows) -> bool:
    n = len(rows)
    if proof == "odd_trace":
        return sum(rows[i][i] for i in range(n)) % 2 == 1
    if proof == "c4_sum":
        pair_sum = sum(s * (s - 1) // 2 for i, r in enumerate(rows) for j, s in enumerate(r) if i != j)
        return pair_sum % 4 != 0
    return any(rows[i][j] > min(rows[i][i], rows[j][j]) for i in range(n) for j in range(n) if i != j)


@lru_cache(maxsize=None)
def all_squares(n: int) -> frozenset:
    pairs = list(itertools.combinations(range(n), 2))
    return frozenset(
        tuple(map(tuple, square_of(n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1])))
        for mask in range(1 << len(pairs))
    )


def searched_verdict(tw, rows, what: str) -> str:
    """Verdict of an uncapped search, re-checked independently."""
    n = len(rows)
    out = tw.realize(tw.IntMatrix.from_rows(rows), tw.SearchBudget(max_nodes=UNCAPPED, max_seconds=None))
    verdict = out.verdict.value
    if verdict == "aborted":
        raise RuntimeError(f"{what}: uncapped search aborted")
    if verdict == "realized":
        check_witness(rows, n, sorted(out.witness.edges), what)
    if n <= 6 and (tuple(map(tuple, rows)) in all_squares(n)) != (verdict == "realized"):
        raise RuntimeError(f"{what}: search and brute force disagree")
    return verdict


def square_instance(id_, family, n, edges, ladder=False):
    return {"id": id_, "family": family, "n": n, "edges": edges, "changes": [],
            "expected": "realized", "ladder": ladder}


def swap_instance(tw, rng, id_, family, n, edges):
    inst = square_instance(id_, family, n, edges)
    inst["changes"] = swap_changes(rng, square_of(n, edges))
    inst["expected"] = searched_verdict(tw, instance_rows(inst), id_)
    return inst


def screen_suite(tw, rng):
    out = []
    for t in range(1000):
        n = rng.randint(5, 9)
        out.append(square_instance(f"sq{t}", "square", n, gnp_edges(rng, n, rng.uniform(0.2, 0.8)), ladder=True))
    for t in range(800):
        n = rng.randint(5, 9)
        out.append(swap_instance(tw, rng, f"sw{t}", "swap", n, gnp_edges(rng, n, rng.uniform(0.2, 0.8))))
    for t in range(60):
        n = rng.randint(10, 60)
        inst = square_instance(f"rj{t}", "reject", n, gnp_edges(rng, n, rng.uniform(0.1, 0.5)))
        inst["proof"], inst["changes"] = reject_changes(rng, square_of(n, inst["edges"]))
        inst["expected"] = "infeasible"
        if not proves_infeasible(inst["proof"], instance_rows(inst)):
            raise RuntimeError(f"rj{t}: mutation does not prove {inst['proof']}")
        out.append(inst)
    return out


def hard_suite(tw, rng):
    out = []
    for n in range(10, 17):
        for d in range(2):
            out.append(square_instance(f"half{n}.{d}", "gnp_half", n, gnp_edges(rng, n, 0.5), ladder=True))
    for n in range(18, 25):
        for d in range(2):
            out.append(square_instance(f"fifth{n}.{d}", "gnp_fifth", n, gnp_edges(rng, n, 0.2)))
    for n in range(10, 13):
        for d in range(4):
            out.append(swap_instance(tw, rng, f"swap{n}.{d}", "swap", n, gnp_edges(rng, n, 0.35)))
    return out


def classify(tw, witnesses):
    reps = []
    for w in witnesses:
        if not any(tw.are_isomorphic(w, r) is not None for r in reps):
            reps.append(w)
    return len(reps)


def duplication_suite(tw, rng):
    out = []
    for name, (n, edges) in BASES.items():
        p = list(range(n))
        rng.shuffle(p)
        relabeled = sorted((min(p[i], p[j]), max(p[i], p[j])) for i, j in edges)
        for k in (2, 3, 4):
            inst = {"id": f"{name}.k{k}", "family": "duplication", "base": name, "n": n,
                    "edges": [list(e) for e in relabeled], "k": k,
                    "enumerate": (name, k) == ("C5", 2), "ladder": True}
            if inst["enumerate"]:
                shared = tw.duplication_family(tw.graph_from_edges(n, relabeled), k).shared_square
                enum = tw.realize_all(shared, budget=tw.SearchBudget(max_nodes=UNCAPPED, max_seconds=None))
                rows = [list(r) for r in shared.rows]
                for w in enum.witnesses:
                    check_witness(rows, shared.n, sorted(w.edges), inst["id"])
                inst["witnesses"] = len(enum.witnesses)
                inst["classes"] = classify(tw, enum.witnesses)
                if len({component_signature(shared.n, w.edges) for w in enum.witnesses}) < k + 1:
                    raise RuntimeError(f"{inst['id']}: fewer than k+1 separable classes")
            out.append(inst)
    a, b = tw.similar_square_pair()
    out.append({"id": "pair12", "family": "similar_pair", "n": a.n,
                "edges": [list(e) for e in sorted(a.edges)],
                "edges_b": [list(e) for e in sorted(b.edges)],
                "similar": True, "isomorphic": False, "ladder": False})
    return out


BUILDERS = {"screen": screen_suite, "hard": hard_suite, "duplication": duplication_suite}


def build_suite(tw, workload: str, seed: int) -> dict:
    # one stream per (seed, workload), so suites are independent of each other
    rng = random.Random(f"{seed}/{workload}")
    return {"workload": workload, "seed": seed, "node_cap": NODE_CAPS[workload],
            "instances": BUILDERS[workload](tw, rng)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=sorted(BUILDERS), action="append")
    args = ap.parse_args()
    tw = import_program()
    for workload in args.workload or BUILDERS:
        path = suite_path(workload, args.seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text(dump_suite(build_suite(tw, workload, args.seed)))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

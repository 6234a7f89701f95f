"""The traced replay of ``realize`` runs the kernel that ``realize`` runs."""

import types

from suite import import_program, load_suite
from workloads import Tracer, Workload, kernel_for

tw = import_program()
import twowalk._search_py as pure  # noqa: E402


def compiled_stand_in():
    """A kernel that claims to be the compiled one and, like it, refuses
    matrices larger than ``MAX_N``; within that it runs the pure search."""

    def run_search(n, rows, max_nodes, time_limit, witness_limit):
        if n > 64:
            raise ValueError(f"compiled kernel supports n <= 64, got {n}")
        return pure.run_search(n, rows, max_nodes, time_limit, witness_limit)

    return types.SimpleNamespace(KERNEL_NAME="compiled", MAX_N=64, run_search=run_search)


def test_compiled_backend_hands_large_matrices_to_the_pure_kernel():
    compiled = compiled_stand_in()
    assert kernel_for(compiled, pure, 64) is compiled
    assert kernel_for(compiled, pure, 80) is pure
    assert kernel_for(pure, pure, 80) is pure


def test_replay_under_a_compiled_backend_at_n_80():
    wl_suite = load_suite("duplication", 1)
    wl = Workload(tw, wl_suite)
    wl.kernel = compiled_stand_in()
    inst = next(i for i in wl_suite["instances"] if i["id"] == "Petersen.k4")
    base = tw.graph_from_edges(inst["n"], [tuple(e) for e in inst["edges"]])
    S = tw.duplication_family(base, inst["k"]).shared_square
    assert S.n == 80
    tracer = Tracer()
    wl.replay_realize(tracer, S, tw.realize(S, wl.budget), "petersen k=4")
    assert tracer.kernel_runs[0][4], "the replay found no witness"

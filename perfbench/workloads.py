"""The benchmark's three workloads, each a closed loop of calls into
``twowalk``: one call starts when the previous one has returned.

A *call* is what a user waits for.  On ``screen`` and ``hard`` it is one
candidate matrix through the whole pipeline (parse the text, run the
analysis set, realize); on ``duplication`` it is one public library call.
Every answer is checked with ``check`` after the call's clock stops.

With a ``Tracer``, the calls are wrapped in per-layer spans and every
``realize``/``realize_all`` is replayed step by step afterwards:
``necessary_conditions``, ``run_search`` of the kernel ``realize`` picks
(``kernel_for``), then ``verify``.
The replay must reproduce the library's verdict, witnesses and node
count exactly; it runs outside the calls, so it is not in the call times.
"""

from __future__ import annotations

import importlib
import random
from contextlib import nullcontext
from time import perf_counter

from check import (
    WrongAnswer,
    check_class_count,
    check_isomorphism,
    check_similarity,
    check_verdict,
    check_witness,
    component_signature,
    edgelist_text,
    matrix_text,
    relabel,
    square_of,
)
from suite import instance_rows

_NO_SPAN = nullcontext()


class NoTracer:
    """Untraced run: spans cost nothing and nothing is replayed."""

    active = False

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    """Spans kept in memory as (layer name, start, end)."""

    active = True

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        # one entry per kernel run in a replay: (seconds, nodes, status, witness_limit, found)
        self.kernel_runs: list[tuple[float, int, int, int, bool]] = []
        self.replays = 0
        self.battery_rejects = 0

    def span(self, name: str):
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1 in self.spans if n == name]


class _Span:
    __slots__ = ("tracer", "name", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.t0 = perf_counter()

    def __exit__(self, *exc):
        self.tracer.spans.append((self.name, self.t0, perf_counter()))
        return False


def kernel_for(kernel, pure, n: int):
    """The kernel ``realize`` runs on an n-vertex matrix: the compiled one
    only up to its ``MAX_N``, the pure one beyond."""
    if kernel.KERNEL_NAME == "compiled" and n > kernel.MAX_N:
        return pure
    return kernel


class Pass:
    """What one pass over a workload did.  ``signature`` lists every
    verdict and node count in order, so passes can be compared exactly."""

    def __init__(self):
        self.latencies: list[float] = []
        self.witnesses = 0
        self.nodes = 0
        self.aborted = 0
        self.raised = 0
        self.signature: list = []
        self.ladder: list[tuple[int, bool]] = []

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def outcome(self) -> tuple:
        """What every pass over the same inputs must repeat exactly."""
        return self.signature, self.aborted, self.raised


class Workload:
    """Shared machinery: timed calls, realize checks and replays."""

    def __init__(self, tw, suite: dict):
        self.tw = tw
        self.budget = tw.SearchBudget(max_nodes=suite["node_cap"], max_seconds=None)
        self.cap = suite["node_cap"]
        self.pure = importlib.import_module("twowalk._search_py")
        self.kernel = importlib.import_module("twowalk._search_c") if tw.search_backend() == "compiled" else self.pure

    def call(self, p: Pass, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        p.latencies.append(perf_counter() - t0)
        return out

    def analyze(self, span, S) -> None:
        """The ``twowalk analyze`` set."""
        tw = self.tw
        with span("analysis.battery"):
            tw.necessary_conditions(S)
        with span("analysis.report"):
            tw.row_sum_report(S)
            tw.support_components(S)
            tw.count_c4(S)

    def record_realize(self, p: Pass, out, rows, expected: str, ladder: bool, what: str) -> None:
        verdict = out.verdict.value
        check_verdict(expected, verdict, what)
        if verdict == "realized":
            check_witness(rows, len(rows), sorted(out.witness.edges), what)
            p.witnesses += 1
        p.aborted += verdict == "aborted"
        p.nodes += out.nodes_explored
        p.signature.append((what, verdict, out.nodes_explored))
        if ladder:
            p.ladder.append((len(rows), verdict == "realized"))

    def replay(self, tracer: Tracer, S, witness_limit: int):
        """``realize`` (limit 1) or ``realize_all`` (limit 0) step by step.
        Returns (verdict, witness edge lists, nodes, complete)."""
        tw = self.tw
        tracer.replays += 1
        with tracer.span("analysis.battery"):
            passed = tw.necessary_conditions(S).overall
        if not passed:
            tracer.battery_rejects += 1
            return "infeasible", [], 0, True
        kernel = kernel_for(self.kernel, self.pure, S.n)
        t0 = perf_counter()
        status, raw, nodes = kernel.run_search(S.n, S.to_lists(), self.cap, 0.0, witness_limit)
        t1 = perf_counter()
        tracer.spans.append(("kernel", t0, t1))
        tracer.kernel_runs.append((t1 - t0, nodes, status, witness_limit, bool(raw)))
        for edges in raw:
            G = tw.graph_from_edges(S.n, edges)
            with tracer.span("realize.verify"):
                ok = tw.verify(G, S)
            if not ok:
                raise WrongAnswer("replayed kernel returned a witness that verify rejects")
        st = self.pure
        complete = status in (st.EXHAUSTED, st.HIT_WITNESS_LIMIT)
        verdict = "realized" if raw else "infeasible" if status == st.EXHAUSTED else "aborted"
        return verdict, [[tuple(e) for e in w] for w in raw], nodes, complete

    def replay_realize(self, tracer: Tracer, S, out, what: str) -> None:
        verdict, raw, nodes, _ = self.replay(tracer, S, 1)
        mine = [sorted(out.witness.edges)] if out.witness is not None else []
        if (verdict, raw, nodes) != (out.verdict.value, mine, out.nodes_explored):
            raise WrongAnswer(f"{what}: step-by-step replay differs from realize")


class Screen(Workload):
    """``screen`` and ``hard``: candidate matrices as text, each parsed,
    analyzed and realized.  Matrices keep their frozen labeling, since node
    counts depend on it; the seed only shuffles the order."""

    def __init__(self, tw, suite: dict, rng: random.Random):
        super().__init__(tw, suite)
        self.items = []
        for inst in suite["instances"]:
            rows = instance_rows(inst)
            self.items.append((inst, rows, matrix_text(rows)))
        rng.shuffle(self.items)

    def pipeline(self, span, text):
        tw = self.tw
        with span("formats.parse"):
            S = tw.parse_matrix_text(text)
        self.analyze(span, S)
        with span("realize"):
            out = tw.realize(S, self.budget)
        return S, out

    def run_pass(self, tracer) -> Pass:
        p = Pass()
        for inst, rows, text in self.items:
            S, out = self.call(p, self.pipeline, tracer.span, text)
            self.record_realize(p, out, rows, inst["expected"], inst["ladder"], inst["id"])
            if tracer.active:
                self.replay_realize(tracer, S, out, inst["id"])
        return p


class Duplication(Workload):
    """Duplication families built, enumerated and certified end to end."""

    def __init__(self, tw, suite: dict, rng: random.Random):
        super().__init__(tw, suite)
        self.families = []
        self.pair = None
        for inst in suite["instances"]:
            n, edges = inst["n"], [tuple(e) for e in inst["edges"]]
            if inst["family"] == "similar_pair":
                b_edges = [tuple(e) for e in inst["edges_b"]]
                sa, sb = square_of(n, edges), square_of(n, b_edges)
                self.pair = (inst, edgelist_text(n, edges), edgelist_text(n, b_edges),
                             tw.IntMatrix.from_rows(sa), tw.IntMatrix.from_rows(sb), sa, sb)
                continue
            k = inst["k"]
            union = [(i + b * n, j + b * n) for b in range(2 * k) for i, j in edges]
            shared = square_of(2 * k * n, union)
            perm = list(range(2 * k * n))
            rng.shuffle(perm)
            target = relabel(shared, perm)
            self.families.append((inst, edgelist_text(n, edges), shared, target,
                                  tw.IntMatrix.from_rows(target)))
        rng.shuffle(self.families)

    def layer_call(self, p: Pass, tracer, layer: str, fn, *args):
        with tracer.span(layer):
            return self.call(p, fn, *args)

    def similar(self, p: Pass, tracer, s1, s2, rows1, rows2, what: str) -> None:
        try:
            q = self.layer_call(p, tracer, "iso", self.tw.permutation_similar, s1, s2)
        except self.tw.BudgetExhausted:
            p.raised += 1
            return
        if q is None:
            raise WrongAnswer(f"{what}: similar matrices reported not permutation-similar")
        check_similarity(rows1, rows2, q.mapping, what)

    def family(self, p: Pass, tracer, inst, text, shared, target_rows, target) -> None:
        tw, what, k = self.tw, inst["id"], inst["k"]
        base = self.layer_call(p, tracer, "formats.parse", tw.parse_edgelist, text)
        fam = self.layer_call(p, tracer, "construct", tw.duplication_family, base, k)
        S = fam.shared_square
        if [list(r) for r in S.rows] != shared:
            raise WrongAnswer(f"{what}: shared square is not the square of 2k base copies")
        signatures = set()
        for m in fam.members:
            edges = sorted(m.edges)
            check_witness(shared, S.n, edges, what)
            signatures.add(component_signature(S.n, edges))
        if len(fam.members) != k + 1 or len(signatures) != k + 1:
            raise WrongAnswer(f"{what}: members are not k+1 separable graphs")
        self.call(p, self.analyze, tracer.span, S)

        out = self.layer_call(p, tracer, "realize", tw.realize, S, self.budget)
        self.record_realize(p, out, shared, "realized", inst["ladder"], what)
        if tracer.active:
            self.replay_realize(tracer, S, out, what)

        if inst["enumerate"]:
            self.enumerate(p, tracer, inst, S, shared)
        self.similar(p, tracer, S, target, shared, target_rows, f"{what} relabeled")

    def enumerate(self, p: Pass, tracer, inst, S, shared) -> None:
        tw, what, k = self.tw, inst["id"], inst["k"]
        enum = self.layer_call(p, tracer, "realize", tw.realize_all, S, None, self.budget)
        p.nodes += enum.nodes_explored
        p.signature.append((what, "all", len(enum.witnesses), enum.nodes_explored))
        if tracer.active:
            _, raw, nodes, complete = self.replay(tracer, S, 0)
            mine = [sorted(w.edges) for w in enum.witnesses]
            if (raw, nodes, complete) != (mine, enum.nodes_explored, enum.complete):
                raise WrongAnswer(f"{what}: step-by-step replay differs from realize_all")
        if not enum.complete:
            p.aborted += 1
            return
        if len(enum.witnesses) != inst["witnesses"]:
            raise WrongAnswer(f"{what}: {len(enum.witnesses)} witnesses, expected {inst['witnesses']}")
        if len({w.edges for w in enum.witnesses}) != len(enum.witnesses):
            raise WrongAnswer(f"{what}: realize_all repeated a witness")
        for w in enum.witnesses:
            check_witness(shared, S.n, sorted(w.edges), what)
        p.witnesses += len(enum.witnesses)

        reps, unsure = [], False
        for w in enum.witnesses:
            for r in reps:
                try:
                    q = self.layer_call(p, tracer, "iso", tw.are_isomorphic, w, r)
                except tw.BudgetExhausted:
                    p.raised += 1
                    unsure = True
                    continue
                if q is not None:
                    check_isomorphism(S.n, sorted(w.edges), sorted(r.edges), q.mapping, what)
                    break
            else:
                reps.append(w)
        if not unsure:
            sigs = [component_signature(S.n, w.edges) for w in enum.witnesses]
            check_class_count(inst["classes"], k, len(reps), sigs, what)

    def similar_pair(self, p: Pass, tracer) -> None:
        inst, text_a, text_b, sa, sb, rows_a, rows_b = self.pair
        tw = self.tw
        a = self.layer_call(p, tracer, "formats.parse", tw.parse_edgelist, text_a)
        b = self.layer_call(p, tracer, "formats.parse", tw.parse_edgelist, text_b)
        self.similar(p, tracer, sa, sb, rows_a, rows_b, inst["id"])
        try:
            q = self.layer_call(p, tracer, "iso", tw.are_isomorphic, a, b)
        except tw.BudgetExhausted:
            p.raised += 1
            return
        if (q is not None) != inst["isomorphic"]:
            raise WrongAnswer(f"{inst['id']}: isomorphism verdict differs from the frozen one")

    def run_pass(self, tracer) -> Pass:
        p = Pass()
        for fam in self.families:
            self.family(p, tracer, *fam)
        self.similar_pair(p, tracer)
        return p


WORKLOADS = {"screen": Screen, "hard": Screen, "duplication": Duplication}

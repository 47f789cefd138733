"""The benchmark workloads.

Each workload builds its inputs from the seed, makes its end-to-end
calls into rightq, checks the outputs against exact gates and
references, and can repeat the same work one public call at a time
inside spans, checking that the decomposed results equal the end-to-end
ones.  README.md says why each workload is here.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from rightq import Biword, Expression, SYSTEM_S, SYSTEM_SQ
from rightq import basis_oracle, macmahon, rewrite, weight

import references


class Gates:
    """Every check a run makes, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{name}: got {got!r}, expected {want!r}")

    def expect_each(self, name: str, got: list, want: list) -> None:
        """One check per position, for long lists of verdicts."""
        self.expect(f"{name}.count", len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            self.expect(f"{name}[{i}]", g, w)


class Spans:
    """Busy seconds per layer, summed over the spans around its calls."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


def memo_entries() -> int:
    """Entries in the process-global normal-form memo of rightq.rewrite."""
    return sum(len(cache) for cache in rewrite._NF_CACHES.values())


class Workload:
    """Defaults: inputs that do not depend on the seed, no once-per-run checks."""

    def build(self, seed: int):
        return None

    def reference_check(self, inputs, outcomes: list[dict], gates: Gates) -> None:
        """Checks too costly to repeat per pass, made once per run."""


class Qmm(Workload):
    """qmm_check(r, max_degree, variant): series, product, split, reduce."""

    unit = "rewrites/s"

    def __init__(self, r: int, max_degree: int, variant: str):
        self.r, self.max_degree, self.variant = r, max_degree, variant

    def run(self, inputs) -> dict:
        report = macmahon.qmm_check(self.r, self.max_degree, self.variant)
        return {"report": report}

    def work(self, outcome: dict) -> int:
        return sum(row.rewrite_steps for row in outcome["report"].per_degree)

    def check(self, inputs, outcome: dict, want: dict, gates: Gates) -> None:
        rows = outcome["report"].per_degree
        degrees = list(range(self.max_degree + 1))
        gates.expect("qmm.degrees", [row.degree for row in rows], degrees)
        gates.expect(
            "qmm.steps_per_degree",
            [row.rewrite_steps for row in rows],
            want["steps_per_degree"],
        )
        gates.expect(
            "qmm.terms_per_degree",
            [row.term_count_before_reduction for row in rows],
            want["terms_per_degree"],
        )
        gates.expect(
            "qmm.measure_checks", outcome["measure_checks"], want["measure_checks"]
        )
        gates.expect("qmm.ok", outcome["report"].ok, True)
        for row in rows:
            # Degree 0 must reduce to the unit e and every other degree to 0.
            gates.expect(
                f"qmm.degree{row.degree}.normal_form",
                _shape(row.normal_form),
                "unit" if row.degree == 0 else "zero",
            )

    def traced(self, inputs, outcome, want, spans: Spans, gates: Gates) -> dict:
        weighted = self.variant == "q"
        series = "q" if weighted else "one"
        system = SYSTEM_SQ if weighted else SYSTEM_S
        degrees = range(self.max_degree + 1)
        with spans("macmahon.series_s"):
            f = macmahon.ferm(self.r, series)
            b = macmahon.bos(self.r, self.max_degree, series)
        with spans("expressions.product_s"):
            product = f.product(b, max_degree=self.max_degree)
        with spans("expressions.split_s"):
            components = [product.homogeneous_component(d) for d in degrees]
        checks_before = rewrite.measure_check_count()
        reports = []
        for degree, component in zip(degrees, components):
            top = degree == self.max_degree
            span = "rewrite.reduce_top_degree_s" if top else "rewrite.reduce_lower_s"
            with spans(span):
                reports.append(rewrite.reduce(component, system))
        measure_checks = rewrite.measure_check_count() - checks_before

        rows = outcome["report"].per_degree
        gates.expect(
            "trace.product_terms", len(product), sum(want["terms_per_degree"])
        )
        gates.expect(
            "trace.terms_per_degree",
            [len(c) for c in components],
            [row.term_count_before_reduction for row in rows],
        )
        gates.expect(
            "trace.steps_per_degree",
            [rep.rewrite_steps for rep in reports],
            [row.rewrite_steps for row in rows],
        )
        gates.expect_each(
            "trace.normal_forms",
            [rep.normal_form for rep in reports],
            [row.normal_form for row in rows],
        )
        peak = max(rep.max_intermediate_terms for rep in reports)
        gates.expect("trace.peak_terms", peak, want["peak_terms"])
        gates.expect("trace.measure_checks", measure_checks, want["measure_checks"])
        steps = sum(rep.rewrite_steps for rep in reports)
        reduce_s = (
            spans.seconds["rewrite.reduce_lower_s"]
            + spans.seconds["rewrite.reduce_top_degree_s"]
        )
        return {
            "rewrite.reduce_s": reduce_s,
            "rewrite.steps_per_s": steps / reduce_s,
            "expressions.product_terms": len(product),
            "rewrite.steps": steps,
            "rewrite.peak_terms": peak,
            "rewrite.measure_checks": measure_checks,
        }


def _shape(nf: Expression) -> str:
    """'zero', 'unit' (the empty biword with coefficient 1), or a term count."""
    terms = nf.terms()
    if not terms:
        return "zero"
    (biword, coefficient), *rest = terms
    if not rest and len(biword) == 0 and coefficient.monomials() == [(0, 1)]:
        return "unit"
    return f"{len(terms)} terms"


class Basis(Workload):
    """check_basis_dimension(r, n, q) at q = 1 and at a generic rational q."""

    unit = "rows/s"
    points = ("one", Fraction(3, 5))

    def __init__(self, r: int, n: int):
        self.r, self.n = r, n

    def run(self, inputs) -> dict:
        return {
            "reports": [
                basis_oracle.check_basis_dimension(self.r, self.n, q)
                for q in self.points
            ]
        }

    def rows_per_point(self) -> int:
        """Placements of a reducible pair between a left and a right context."""
        r, n = self.r, self.n
        pairs = (r * (r - 1) // 2) * (r * (r + 1) // 2)
        return (n - 1) * pairs * r ** (2 * (n - 2))

    def work(self, outcome: dict) -> int:
        return self.rows_per_point() * len(outcome["reports"])

    def check(self, inputs, outcome: dict, want: dict, gates: Gates) -> None:
        dimension = references.koszul_dimension(self.r, self.n)
        reports = outcome["reports"]
        gates.expect(
            "basis.points", [rep.q_value for rep in reports], list(want["points"])
        )
        for rep in reports:
            point = want["points"].get(rep.q_value, {})
            name = f"basis.q={rep.q_value}"
            gates.expect(f"{name}.ambient_dim", rep.ambient_dim, self.r ** (2 * self.n))
            gates.expect(
                f"{name}.relation_rank", rep.relation_rank, point.get("relation_rank")
            )
            gates.expect(
                f"{name}.irreducible_count",
                rep.irreducible_count,
                point.get("irreducible_count"),
            )
            gates.expect(f"{name}.match", rep.match, True)
            gates.expect(f"{name}.quotient_dim_vs_koszul", rep.quotient_dim, dimension)
            gates.expect(
                f"{name}.irreducible_count_vs_koszul", rep.irreducible_count, dimension
            )

    def traced(self, inputs, outcome, want, spans: Spans, gates: Gates) -> dict:
        rows_total = nnz_total = 0
        for q, rep in zip(self.points, outcome["reports"]):
            with spans("basis_oracle.matrix_s"):
                rows = basis_oracle.relation_matrix(self.r, self.n, q)
            with spans("basis_oracle.priority_s"):
                priority = basis_oracle._measure_priority(self.r, self.n)
            with spans("basis_oracle.rank_s"):
                relation_rank = basis_oracle.rank(rows, priority)
            with spans("basis_oracle.count_s"):
                count = basis_oracle.count_irreducible(self.r, self.n)
            nnz = sum(len(row) for row in rows)
            point = want["points"].get(rep.q_value, {})
            name = f"trace.q={rep.q_value}"
            gates.expect(f"{name}.rows", len(rows), self.rows_per_point())
            gates.expect(f"{name}.nnz", nnz, point.get("nnz"))
            gates.expect(f"{name}.relation_rank", relation_rank, rep.relation_rank)
            gates.expect(
                f"{name}.quotient_dim",
                rep.ambient_dim - relation_rank,
                rep.quotient_dim,
            )
            gates.expect(f"{name}.irreducible_count", count, rep.irreducible_count)
            rows_total += len(rows)
            nnz_total += nnz
        return {
            "basis_oracle.rows": rows_total,
            "basis_oracle.nnz": nnz_total,
            "basis_oracle.rank": relation_rank,
        }


# The eighteen length-2 biwords (x y / a b) over 1..3 with x > y and a >= b.
_PAIRS = [
    ((x, y), (a, b))
    for x in range(1, 4)
    for y in range(1, x)
    for a in range(1, 4)
    for b in range(1, a + 1)
]


class Fuzz(Workload):
    """Seeded confluence fuzz, membership-transport checks, spanning rank."""

    unit = "checks/s"

    def __init__(self, confluence, checks: int, max_len: int, spanning):
        self.confluence = confluence  # (r, max_len, trials)
        self.checks = checks
        self.max_len = max_len
        self.spanning = spanning  # (r, n)

    def build(self, seed: int) -> dict:
        rng = random.Random(seed)
        exprs, members, supports = [], [], []
        for i in range(self.checks):
            terms, member = self._relation(rng, i)
            exprs.append(Expression(terms))
            members.append(member)
            supports.append([(bw.top, bw.bottom) for bw in terms])
        return {"seed": seed, "exprs": exprs, "members": members, "supports": supports}

    def _relation(self, rng: random.Random, i: int) -> tuple[dict, bool]:
        """Check i: a context-wrapped relation u (pair - replacement) v.

        Length, pair and context split cycle with i.  The seed draws the
        context letters, redrawing until the relation's leftmost closure
        (the memo entries it needs) falls in the same size bucket as a
        seed-independent template's, so that every seed gets inputs of
        the same difficulty.  Odd checks add one irreducible biword
        outside the support, which takes them out of the ideal.
        """
        length = 2 + i % (self.max_len - 1)
        left = (i // (self.max_len - 1)) % (length - 1)
        pair = _PAIRS[i % len(_PAIRS)]
        target = _difficulty(_wrapped_relation(random.Random(i), pair, left, length))
        while True:
            relation = _wrapped_relation(rng, pair, left, length)
            if _difficulty(relation, target) == target:
                break
        terms = {Biword(top, bottom): c for top, bottom, c in relation}
        member = i % 2 == 0
        if not member:
            while True:
                top = tuple(rng.randint(1, 3) for _ in range(length))
                bottom = tuple(rng.randint(1, 3) for _ in range(length))
                offset = Biword(top, bottom)
                irreducible = references.first_double_descent(top, bottom) < 0
                if irreducible and offset not in terms:
                    break
            terms[offset] = 1
        return terms, member

    def _confluence(self, seed: int):
        r, max_len, trials = self.confluence
        return rewrite.check_confluence_fuzz(r, max_len, trials, seed, SYSTEM_S)

    def run(self, inputs: dict) -> dict:
        # The spanning rank goes first, into an empty memo, so that its
        # cost does not depend on what the seed's inputs left in the heap.
        spanning = basis_oracle.spanning_rank(*self.spanning)
        confluence = self._confluence(inputs["seed"])
        latencies, principle, membership = [], [], []
        for expr in inputs["exprs"]:
            start = perf_counter()
            principle.append(weight.check_principle(expr))
            latencies.append(perf_counter() - start)
            membership.append(rewrite.in_ideal(expr, SYSTEM_S))
        return {
            "counterexamples": list(confluence.counterexamples),
            "principle": principle,
            "membership": membership,
            "latencies": latencies,
            "spanning_rank": spanning,
            "memo_entries": memo_entries(),
        }

    def work(self, outcome: dict) -> int:
        return self.confluence[2] + len(outcome["principle"]) + 1

    def check(self, inputs, outcome: dict, want: dict, gates: Gates) -> None:
        spanning = outcome["spanning_rank"]
        gates.expect("fuzz.confluence_counterexamples", outcome["counterexamples"], [])
        gates.expect_each("fuzz.principle", outcome["principle"], [True] * self.checks)
        gates.expect_each(
            "fuzz.membership_vs_construction",
            outcome["membership"],
            inputs["members"],
        )
        gates.expect("fuzz.spanning_rank", spanning, want["spanning_rank"])
        gates.expect(
            "fuzz.spanning_rank_vs_koszul",
            spanning,
            references.koszul_dimension(*self.spanning),
        )

    def traced(self, inputs, outcome, want, spans: Spans, gates: Gates) -> dict:
        checks_before = rewrite.measure_check_count()
        with spans("basis_oracle.spanning_rank_s"):
            spanning = basis_oracle.spanning_rank(*self.spanning)
        with spans("rewrite.confluence_s"):
            confluence = self._confluence(inputs["seed"])
        principle, membership = [], []
        for expr in inputs["exprs"]:
            with spans("weight.phi_s"):
                image = weight.phi(expr)
            with spans("rewrite.in_ideal_s"):
                plain = rewrite.in_ideal(expr, SYSTEM_S)
                weighted = rewrite.in_ideal(image, SYSTEM_SQ)
            principle.append(plain == weighted)
            membership.append(plain)
        measure_checks = rewrite.measure_check_count() - checks_before
        entries = memo_entries()
        gates.expect(
            "trace.confluence_counterexamples",
            list(confluence.counterexamples),
            outcome["counterexamples"],
        )
        gates.expect_each("trace.principle", principle, outcome["principle"])
        gates.expect_each("trace.membership", membership, outcome["membership"])
        gates.expect("trace.spanning_rank", spanning, outcome["spanning_rank"])
        gates.expect("trace.memo_entries", entries, outcome["memo_entries"])
        return {
            "rewrite.memo_entries": entries,
            "rewrite.measure_checks": measure_checks,
        }

    def reference_check(self, inputs, outcomes: list[dict], gates: Gates) -> None:
        """The memo must hold exactly what leftmost rewriting reaches."""
        supports = [bw for support in inputs["supports"] for bw in support]
        plain = references.confluence_draws(*self.confluence, inputs["seed"])
        plain += supports
        plain += [
            (bw.top, bw.bottom)
            for bw in basis_oracle.enumerate_biwords(*self.spanning)
        ]
        expected = references.leftmost_closure(plain)
        expected += references.leftmost_closure(supports)
        for outcome in outcomes:
            gates.expect(
                "fuzz.memo_entries_vs_closure", outcome["memo_entries"], expected
            )


def _wrapped_relation(rng: random.Random, pair, left: int, length: int) -> list:
    """u (pair - replacement) v for random contexts u, v over 1..3."""
    (x, y), (a, b) = pair
    right = length - 2 - left
    ut = tuple(rng.randint(1, 3) for _ in range(left))
    ub = tuple(rng.randint(1, 3) for _ in range(left))
    vt = tuple(rng.randint(1, 3) for _ in range(right))
    vb = tuple(rng.randint(1, 3) for _ in range(right))
    return [
        (ut + top + vt, ub + bottom + vb, c)
        for top, bottom, c in references.relation_terms(x, y, a, b)
    ]


def _difficulty(relation: list, target: int | None = None) -> int:
    """Size bucket, a factor 1.5 wide, of the relation's leftmost closure.

    Given a target bucket, stops counting once the closure outgrows it.
    """
    limit = None if target is None else int(1.5 ** (target + 1))
    starts = [(top, bottom) for top, bottom, _c in relation]
    return int(math.log(references.leftmost_closure(starts, limit), 1.5))


WORKLOADS = {
    "qmm_strong": Qmm(4, 7, "strong"),
    "qmm_q": Qmm(3, 9, "q"),
    "basis": Basis(2, 8),
    "fuzz": Fuzz(confluence=(3, 6, 8000), checks=1000, max_len=8, spanning=(2, 7)),
}

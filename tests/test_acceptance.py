"""Acceptance criteria, one printed PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
Every check is exact and seeded.  The parenthesized time is the wall
time of the criterion body and is asserted against the stated budget
where one exists.
"""

import random
import time
from fractions import Fraction

from rightq import (
    Biword,
    Expression,
    Laurent,
    ParseError,
    SYSTEM_S,
    SYSTEM_SQ,
    bos,
    check_ambiguity,
    check_basis_dimension,
    check_confluence_fuzz,
    enumerate_biwords,
    ferm,
    in_ideal,
    measure_check_count,
    parse_expression,
    phi,
    phi_inv,
    print_expression,
    qmm_check,
    reduce,
    rewrite_at,
    spanning_rank,
)
from rightq.cli import main

_MEASURE_BASELINE = measure_check_count()

GOLDEN_5 = "123/122 + 123/212 - 213/122 + 123/221 - 231/212"
GOLDEN_15 = (
    "-1*231/312 - 312/231 + 123/123 + 123/213 - 213/123 + 123/132 + 123/312"
    " - 213/132 + 123/231 + 123/321 - 132/123 - 132/213 + 312/123 + 231/123"
    " - 321/123"
)


def _criterion(capsys, number, name, budget, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except Exception as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    if failure is None and budget is not None and elapsed > budget:
        failure = AssertionError(f"over budget: {elapsed:.2f}s > {budget:g}s")
    status = "PASS" if failure is None else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s)")
    if failure is not None:
        raise failure


def test_01_golden_normal_form_15_terms(capsys):
    def body():
        golden = parse_expression(GOLDEN_15)
        assert len(golden) == 15
        single = Expression.single(Biword((3, 2, 1), (3, 2, 1)))
        assert reduce(single, SYSTEM_S).normal_form == golden
        assert main(["normalize", "321/321"]) == 0
        out = capsys.readouterr().out
        table = dict(line.split("\t", 1) for line in out.splitlines())
        assert parse_expression(table["normal-form"]) == golden
        assert table["rewrite-steps"] == "9"

    _criterion(capsys, 1, "golden-normal-form-321/321", 1.0, body)


def test_02_golden_normal_form_5_terms(capsys):
    def body():
        golden = parse_expression(GOLDEN_5)
        assert len(golden) == 5
        single = Expression.single(Biword((3, 2, 1), (2, 2, 1)))
        assert reduce(single, SYSTEM_S).normal_form == golden

    _criterion(capsys, 2, "golden-normal-form-321/221", 1.0, body)


def test_03_overlap_resolution(capsys):
    def body():
        checked = 0
        for system in (SYSTEM_S, SYSTEM_SQ):
            for a in range(1, 4):
                for b in range(1, a + 1):
                    for c in range(1, b + 1):
                        assert check_ambiguity(3, 2, 1, a, b, c, system)
                        checked += 1
        assert checked == 20

    _criterion(capsys, 3, "overlap-resolution", 5.0, body)


def test_04_confluence_fuzz(capsys):
    def body():
        plain = check_confluence_fuzz(3, 6, 1000, 20260819, SYSTEM_S)
        assert plain.ok and plain.trials == 1000
        weighted = check_confluence_fuzz(2, 5, 500, 8254, SYSTEM_SQ)
        assert weighted.ok and weighted.trials == 500

    _criterion(capsys, 4, "confluence-fuzz", 120.0, body)


def test_05_termination_accounting(capsys):
    # Rule-level drop amounts are context independent: a rewrite touches
    # two adjacent columns only, so every other inversion pair survives.
    def body():
        rng = random.Random(20260819)
        for system in (SYSTEM_S, SYSTEM_SQ):
            for _ in range(200):
                x = rng.randint(2, 4)
                y = rng.randint(1, x - 1)
                a = rng.randint(1, 4)
                b = rng.randint(1, a)
                k = rng.randint(0, 3)
                m = rng.randint(0, 3)
                top = tuple(rng.randint(1, 4) for _ in range(k)) + (x, y)
                bottom = tuple(rng.randint(1, 4) for _ in range(k)) + (a, b)
                top += tuple(rng.randint(1, 4) for _ in range(m))
                bottom += tuple(rng.randint(1, 4) for _ in range(m))
                parent = Biword(top, bottom)
                level = parent.inv_plus()
                drops = {}
                for child in rewrite_at(parent, k + 1, system).support():
                    key = (child.top[k : k + 2], child.bottom[k : k + 2])
                    drops[key] = level - child.inv_plus()
                if a == b:
                    assert drops == {((y, x), (a, a)): 1}
                else:
                    assert drops == {
                        ((y, x), (b, a)): 2,
                        ((y, x), (a, b)): 1,
                        ((x, y), (b, a)): 1,
                    }
        assert measure_check_count() > _MEASURE_BASELINE

    _criterion(capsys, 5, "termination-accounting", None, body)


def test_06_basis_dimension_oracle(capsys):
    def body():
        rng = random.Random(6)
        points = ["one"]
        while len(points) < 4:
            qv = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if qv not in (-1, 0, 1) and qv not in points:
                points.append(qv)
        for r, top_degree in ((2, 5), (3, 3)):
            for n in range(top_degree + 1):
                for qv in points:
                    assert check_basis_dimension(r, n, qv).match
        spot = check_basis_dimension(2, 2)
        assert spot.ambient_dim == 16
        assert spot.relation_rank == 3
        assert spot.quotient_dim == 13
        assert spot.irreducible_count == 13

    _criterion(capsys, 6, "basis-dimension-oracle", 300.0, body)


def test_07_spanning_cross_check(capsys):
    def body():
        for n in range(5):
            assert spanning_rank(2, n) == check_basis_dimension(2, n).quotient_dim

    _criterion(capsys, 7, "spanning-cross-check", 120.0, body)


def test_08_master_identity_strong(capsys):
    def body():
        for r, max_degree in ((2, 6), (3, 4)):
            report = qmm_check(r, max_degree, "strong")
            assert [row.ok for row in report.per_degree] == [True] * (max_degree + 1)
            assert report.ok

    _criterion(capsys, 8, "master-identity-strong", 600.0, body)


def test_09_master_identity_weighted(capsys):
    def body():
        for r, max_degree in ((2, 6), (3, 4)):
            report = qmm_check(r, max_degree, "q")
            assert report.system == "sq"
            assert [row.ok for row in report.per_degree] == [True] * (max_degree + 1)
            assert report.ok

    _criterion(capsys, 9, "master-identity-weighted", 900.0, body)


def test_10_membership_transport(capsys):
    def body():
        rng = random.Random(10)
        pairs = [bw for bw in enumerate_biwords(3, 2) if not bw.is_irreducible()]

        def rand_word(n: int) -> tuple:
            return tuple(rng.randint(1, 3) for _ in range(n))

        def wrapped_relation() -> Expression:
            g = pairs[rng.randrange(len(pairs))]
            k = rng.randint(0, 3)
            m = rng.randint(0, 3 - k)
            left = Biword(rand_word(k), rand_word(k))
            right = Biword(rand_word(m), rand_word(m))
            relation = Expression.single(g) - rewrite_at(g, 1, SYSTEM_S)
            out = Expression.single(left) * relation * Expression.single(right)
            return out.scale(rng.choice((-2, -1, 1, 2)))

        for _ in range(500):
            member = wrapped_relation()
            if rng.random() < 0.5:
                member = member + wrapped_relation()
            assert in_ideal(member, SYSTEM_S)
            assert in_ideal(phi(member), SYSTEM_SQ)

        def rand_expr() -> Expression:
            acc = Expression.zero()
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(0, 4)
                single = Expression.single(Biword(rand_word(n), rand_word(n)))
                acc = acc + single.scale(
                    Laurent.q_power(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
                )
            return acc

        checked = 0
        while checked < 500:
            e = rand_expr()
            if in_ideal(e, SYSTEM_S):
                continue  # accidental member, resample
            assert not in_ideal(phi(e), SYSTEM_SQ)
            checked += 1

    _criterion(capsys, 10, "membership-transport", 300.0, body)


def test_11_weight_map_structure(capsys):
    def body():
        rng = random.Random(11)

        def rand_coeff() -> Laurent:
            return Laurent(
                {
                    rng.randint(-3, 3): rng.randint(-6, 6)
                    for _ in range(rng.randint(1, 2))
                }
            )

        def rand_expr() -> Expression:
            acc = {}
            for _ in range(rng.randint(0, 4)):
                n = rng.randint(0, 4)
                top = tuple(rng.randint(1, 3) for _ in range(n))
                bottom = tuple(rng.randint(1, 3) for _ in range(n))
                acc[Biword(top, bottom)] = rand_coeff()
            return Expression(acc)

        for _ in range(1000):
            e = rand_expr()
            assert phi(phi_inv(e)) == e
            assert phi_inv(phi(e)) == e

        def rand_circular() -> Expression:
            acc = {}
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(0, 4)
                bottom = tuple(rng.randint(1, 3) for _ in range(n))
                top = list(bottom)
                rng.shuffle(top)
                acc[Biword(tuple(top), bottom)] = rand_coeff()
            return Expression(acc)

        for _ in range(500):
            a, b = rand_circular(), rand_circular()
            assert phi(a * b) == phi(a) * phi(b)

        for r in (2, 3):
            assert phi(ferm(r, "one")) == ferm(r, "q")
            assert phi(bos(r, 6, "one")) == bos(r, 6, "q")

    _criterion(capsys, 11, "weight-map-structure", 120.0, body)


MALFORMED = [
    ("", 0),
    ("   ", 3),
    ("q^", 2),
    ("21/", 3),
    ("21//12", 3),
    ("3*", 2),
    ("21/12 21/12", 6),
    ("x", 0),
    ("(1,2/(1,2)", 4),
    ("+", 0),
    ("2q", 1),
    ("21/1", 0),
    ("101/111", 1),
]


def test_12_parser_round_trip(capsys):
    def body():
        rng = random.Random(12)
        for _ in range(1000):
            acc = {}
            for _ in range(rng.randint(0, 4)):
                n = rng.randint(0, 3)
                top = tuple(rng.randint(1, 12) for _ in range(n))
                bottom = tuple(rng.randint(1, 12) for _ in range(n))
                acc[Biword(top, bottom)] = Laurent(
                    {
                        rng.randint(-3, 3): rng.randint(-9, 9)
                        for _ in range(rng.randint(1, 2))
                    }
                )
            e = Expression(acc)
            assert parse_expression(print_expression(e)) == e
        for text, position in MALFORMED:
            try:
                parse_expression(text)
            except ParseError as exc:
                assert exc.position == position, (text, exc.position)
            else:
                raise AssertionError(f"no ParseError for {text!r}")

    _criterion(capsys, 12, "parser-round-trip", 30.0, body)

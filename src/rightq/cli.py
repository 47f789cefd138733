"""Command line front end.

Output is line oriented: machine-readable lines are key<TAB>value, and
report files written via --report hold such lines in blank-line
separated blocks.  Exit status 0 means success and every requested
check passed, 1 means some verification failed, 2 means a usage or
parse error or a --report path that cannot be written.  Setting
RIGHTQ_VERBOSE=1 adds progress notes from check principle on stderr.
"""

import argparse
import contextlib
import os
import random
import re
import stat
import sys
import tempfile
from fractions import Fraction
from itertools import combinations_with_replacement

from .basis_oracle import _as_q, check_basis_dimension
from .expressions import Expression
from .laurent import Laurent
from .macmahon import _VARIANTS, qmm_check
from .rewrite import (
    DEFAULT_TERM_CAP,
    LEFTMOST,
    SYSTEM_S,
    SYSTEM_SQ,
    Strategy,
    TermCapExceeded,
    _random_rows,
    check_ambiguity,
    check_confluence_fuzz,
    reduce,
    rewrite_at,
)
from .textform import ParseError, parse_biword, parse_expression, print_expression
from .weight import check_principle, phi, phi_inv
from .words import Biword, _at_least

# The one place a system is named: --system's choices and lookups read it.
_SYSTEMS = {system.tag: system for system in (SYSTEM_S, SYSTEM_SQ)}


def _verbose() -> bool:
    return os.environ.get("RIGHTQ_VERBOSE", "") not in ("", "0")


def _note(msg: str) -> None:
    if _verbose():
        print(msg, file=sys.stderr)


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(key: str, value) -> None:
    print(f"{key}\t{_text(value)}")


def _strategy_arg(text: str) -> Strategy:
    kind, colon, seed = text.partition(":")
    try:
        return Strategy(kind, int(seed) if colon else None)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected leftmost, rightmost or random:<seed>, got {text!r}"
        ) from None


def _q_arg(text: str) -> Fraction:
    try:
        return _as_q(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad q {text!r}: {exc}") from exc


def _cmd_normalize(args) -> int:
    expr = parse_expression(args.expr)
    report = reduce(
        expr,
        _SYSTEMS[args.system],
        args.strategy,
        term_cap=args.term_cap,
    )
    _emit("normal-form", print_expression(report.normal_form))
    _emit("rewrite-steps", report.rewrite_steps)
    _emit("max-intermediate-terms", report.max_intermediate_terms)
    return 0


def _cmd_trace(args) -> int:
    bw = parse_biword(args.biword)
    report = reduce(Expression.single(bw), SYSTEM_S, keep_trace=True)
    for step in report.trace:
        replacement = rewrite_at(step.biword, step.position, SYSTEM_S)
        print(
            f"STEP {step.biword} @ {step.position} -> "
            f"{print_expression(replacement)}"
        )
    _emit("normal-form", print_expression(report.normal_form))
    _emit("rewrite-steps", report.rewrite_steps)
    return 0


def _cmd_stats(args) -> int:
    from .words import imv, inv

    bw = parse_biword(args.biword)
    _emit("inv", inv(bw.top))
    _emit("imv", imv(bw.bottom))
    _emit("inv-", bw.inv_minus())
    _emit("inv+", bw.inv_plus())
    _emit("double-descents", ",".join(map(str, bw.double_descents())))
    _emit("irreducible", bw.is_irreducible())
    _emit("circuit", bw.is_circuit())
    return 0


def _cmd_phi(args) -> int:
    expr = parse_expression(args.expr)
    image = phi_inv(expr) if args.inverse else phi(expr)
    print(print_expression(image))
    return 0


def _cmd_check_ambiguities(args) -> int:
    systems = [_SYSTEMS[args.system]] if args.system else _SYSTEMS.values()
    failures = 0
    checked = 0
    for system in systems:
        for a, b, c in sorted(combinations_with_replacement((3, 2, 1), 3)):
            ok = check_ambiguity(3, 2, 1, a, b, c, system)
            checked += 1
            if not ok:
                failures += 1
            _emit("overlap", f"{system.tag} 321/{a}{b}{c} {'ok' if ok else 'FAIL'}")
    _emit("checked", checked)
    _emit("failures", failures)
    return 0 if failures == 0 else 1


def _cmd_check_confluence(args) -> int:
    report = check_confluence_fuzz(
        args.r, args.max_len, args.trials, args.seed, _SYSTEMS[args.system]
    )
    _emit("system", report.system)
    _emit("trials", report.trials)
    _emit("reducible", report.reducible)
    _emit("counterexamples", len(report.counterexamples))
    for bw in report.counterexamples[:20]:
        _emit("counterexample", bw)
    _emit("ok", report.ok)
    return 0 if report.ok else 1


def _random_ideal_member(rng: random.Random, r: int, max_len: int) -> Expression:
    """1 to 3 multiples of w - (w rewritten once), w a random reducible biword."""
    acc = Expression.zero()
    for _ in range(rng.randint(1, 3)):
        w = Biword._make((), ())
        while not w.double_descents():  # ends as r >= 2 and max_len >= 2
            w = Biword._make(*_random_rows(rng, r, max_len))
        position = rng.choice(w.double_descents())
        relation = Expression.single(w) - rewrite_at(w, position, SYSTEM_S)
        acc = acc + relation.scale(rng.choice((-3, -2, -1, 1, 2, 3)))
    return acc


def _random_expression(rng: random.Random, r: int, max_len: int) -> Expression:
    acc: dict[Biword, Laurent] = {}
    for _ in range(rng.randint(1, 4)):
        bw = Biword._make(*_random_rows(rng, r, max_len))
        c = Laurent.q_power(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
        acc[bw] = acc.get(bw, Laurent.integer(0)) + c
    return Expression(acc)


def _cmd_check_principle(args) -> int:
    _at_least(2, r=args.r)  # one letter has no reducible pair to build on
    _at_least(1, trials=args.trials)
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        if trial % 2 == 0:
            expr = _random_ideal_member(rng, args.r, 5)
        else:
            expr = _random_expression(rng, args.r, 4)
        if not check_principle(expr):
            failures += 1
        if trial % 50 == 49:
            _note(f"principle: {trial + 1}/{args.trials} trials")
    _emit("trials", args.trials)
    _emit("failures", failures)
    _emit("ok", failures == 0)
    return 0 if failures == 0 else 1


def _new_file_mode(path: str) -> int:
    """The permission bits that open(path, "w") leaves path with."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


@contextlib.contextmanager
def _report(path: "str | None"):
    """A save(blocks) for the --report path, or one that does nothing if None.

    A temporary file beside path (beside its target, if path is a symlink)
    is made on entry, so a path that cannot be written, or whose target is
    not a regular file, fails before any work.  It replaces that file when
    the block completes, so a symlink stays a link as under open(path, "w"),
    and is removed if the block raises, so a check that stops leaves no
    file behind and any earlier report as it was.
    """
    if path is None:
        yield lambda blocks: None
        return
    if not path:  # realpath would read "" as the working directory
        raise OSError("the --report path is empty")
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{path} is not a regular file")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield lambda blocks: _write_report(handle, blocks)
        os.chmod(tmp, _new_file_mode(path))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_report(handle, blocks: list[list[tuple[str, object]]]) -> None:
    for k, block in enumerate(blocks):
        if k:
            handle.write("\n")
        for key, value in block:
            handle.write(f"{key}\t{_text(value)}\n")


def _cmd_qmm(args) -> int:
    with _report(args.report) as save:
        report = qmm_check(args.r, args.max_degree, args.variant, args.term_cap)
        header = [
            ("r", report.r),
            ("max-degree", report.max_degree),
            ("system", report.system),
            ("variant", report.variant),
        ]
        for key, value in header:
            _emit(key, value)
        print("degree\tterms\tsteps\tok")
        for row in report.per_degree:
            print(
                f"{row.degree}\t{row.term_count_before_reduction}"
                f"\t{row.rewrite_steps}\t{_text(row.ok)}"
            )
        _emit("ok", report.ok)
        blocks = [header + [("ok", report.ok)]]
        for row in report.per_degree:
            blocks.append(
                [
                    ("degree", row.degree),
                    ("term-count", row.term_count_before_reduction),
                    ("rewrite-steps", row.rewrite_steps),
                    ("ok", row.ok),
                    ("normal-form", print_expression(row.normal_form)),
                ]
            )
        save(blocks)
    return 0 if report.ok else 1


def _cmd_basis(args) -> int:
    with _report(args.report) as save:
        report = check_basis_dimension(args.r, args.degree, args.q)
        pairs = [
            ("r", report.r),
            ("degree", report.degree),
            ("q", report.q_value),
            ("ambient-dim", report.ambient_dim),
            ("relation-rank", report.relation_rank),
            ("quotient-dim", report.quotient_dim),
            ("irreducible-count", report.irreducible_count),
            ("closed-form-count", report.closed_form_count),
            ("match", report.match),
        ]
        for key, value in pairs:
            _emit(key, value)
        save([pairs])
    return 0 if report.match else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a signed value such as -21/12, -q*21/12 or -7/2 as a value.

    argparse takes an argument that starts with '-' for an option unless
    it matches _negative_number_matcher, a private attribute that by
    default matches only negative decimals.  This one also matches a '-'
    followed by anything a term or a rational can start with; no option
    of this program starts that way.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.qe(]")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="rightq",
        description="Normal forms, weight transport and identity checks "
        "for biword expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="reduce an expression to normal form")
    p.add_argument("--system", choices=list(_SYSTEMS), default="s")
    p.add_argument("--strategy", type=_strategy_arg, default=LEFTMOST)
    p.add_argument("--term-cap", type=int, default=DEFAULT_TERM_CAP)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("trace", help="show each rewrite of one biword")
    p.add_argument("biword")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("stats", help="print the statistics of one biword")
    p.add_argument("biword")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("phi", help="apply the q-weighting (or its inverse)")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_phi)

    check = sub.add_parser("check", help="verification commands")
    check_sub = check.add_subparsers(dest="check_command", required=True)

    p = check_sub.add_parser(
        "ambiguities", help="resolve all overlaps over letters 1..3 both ways"
    )
    p.add_argument("--system", choices=list(_SYSTEMS))
    p.set_defaults(func=_cmd_check_ambiguities)

    p = check_sub.add_parser(
        "confluence", help="fuzz leftmost vs random rewrite order"
    )
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--system", choices=list(_SYSTEMS), default="s")
    p.set_defaults(func=_cmd_check_confluence)

    p = check_sub.add_parser(
        "principle", help="fuzz ideal-membership transport through phi"
    )
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_check_principle)

    p = sub.add_parser("qmm", help="verify the master identity degreewise")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--variant", choices=_VARIANTS, default="strong")
    p.add_argument("--term-cap", type=int, default=DEFAULT_TERM_CAP)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_qmm)

    p = sub.add_parser("basis", help="dimension oracle for one degree")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--q", type=_q_arg, default="one")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_basis)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except TermCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # OSError: a --report path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

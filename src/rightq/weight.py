"""The q-weight isomorphism between the plain and q-weighted quotients.

phi rescales each biword alpha by q to the power inv(bottom) - inv(top).
It maps the defining ideal of the plain system onto that of the
q-weighted system, so membership questions transfer verbatim between
q = 1 and generic q.  On circular expressions (every biword a circuit)
phi is multiplicative; on general expressions it is not.
"""

from .expressions import Expression
from .rewrite import SYSTEM_S, SYSTEM_SQ, in_ideal
from .words import inv


class NotCircular(ValueError):
    """Raised when a circuit-only check receives a non-circular expression."""


def _rescale(expr: Expression, sign: int) -> Expression:
    """Each term alpha of expr times q^(sign * inv_minus(alpha))."""
    terms = expr._terms.items()
    return Expression._make(
        {(t, b): c.shift(sign * (inv(b) - inv(t))) for (t, b), c in terms}
    )


def phi(expr: Expression) -> Expression:
    """Rescale each term alpha by q^(inv_minus(alpha))."""
    return _rescale(expr, 1)


def phi_inv(expr: Expression) -> Expression:
    """Inverse rescaling by q^(-inv_minus(alpha))."""
    return _rescale(expr, -1)


def check_principle(expr: Expression) -> bool:
    """Verify on expr that ideal membership transfers through phi.

    True when expr lies in the plain ideal exactly if phi(expr) lies in
    the q-weighted one.
    """
    return in_ideal(expr, SYSTEM_S) == in_ideal(phi(expr), SYSTEM_SQ)


def check_circuit_multiplicativity(e: Expression, f: Expression) -> bool:
    """Verify phi(e * f) = phi(e) * phi(f) for circular e and f."""
    if not e.is_circular():
        raise NotCircular("left factor is not a circular expression")
    if not f.is_circular():
        raise NotCircular("right factor is not a circular expression")
    return phi(e.product(f)) == phi(e).product(phi(f))

"""Scalar reference helpers shared by the test oracles."""

from pointspec.coords import TOL_EQ, is_exact_coord


def coord_eq(c1, c2, tol: float = TOL_EQ) -> bool:
    """Equality: exact when both coordinates are exact, |.| <= tol otherwise."""
    if is_exact_coord(c1) and is_exact_coord(c2):
        return c1 == c2
    return abs(float(c1) - float(c2)) <= tol

"""Scalar references shared by the test modules."""


def poly_eval(f, fx, x):
    """fx at x by scalar Horner steps: the reference for the array routes."""
    acc = 0
    for c in reversed(fx):
        acc = f.add(f.mul(acc, x), c)
    return acc

"""Exception types shared across the package."""

import numpy as np


class MatbodyError(Exception):
    """Base class for all package errors.

    A check over a batch sets ``index``: the batch index of the first
    offending element.
    """

    index = None


def first_true(bad, shape: tuple) -> tuple:
    """Batch index of the first True entry of ``bad`` broadcast to ``shape``."""
    return np.unravel_index(int(np.argmax(np.broadcast_to(bad, shape))), shape)


def with_index(exc: MatbodyError, index: tuple) -> MatbodyError:
    """``exc`` tagged with the batch index of the element that raised it."""
    exc.index = index
    return exc


class SourceTargetMismatch(MatbodyError):
    """Jet composition attempted with non-matching source/target points."""


class SingularMatrix(MatbodyError):
    """A matrix that must be invertible has |det| below tolerance."""


class OutOfDomain(MatbodyError):
    """A point (or a finite-difference stencil) leaves the body's chart box."""


class NonFiniteResponse(MatbodyError, ValueError):
    """A body's response evaluated to inf or NaN."""


class GridTooSmall(MatbodyError):
    """Grid derivative requested on a lattice with fewer than 3 points per axis."""


class NotUniform(MatbodyError):
    """Operation requires anchor rank 3 at every grid point."""


class NotFlat(MatbodyError):
    """Chart construction requires curvature and torsion below tolerance."""


class NotMorphism(MatbodyError):
    """Groupoid section violates the composition law on sampled triples."""


class LeftDomain(MatbodyError):
    """An integrated trajectory exited the field's domain."""


class StepTooLarge(MatbodyError):
    """Integrator step size exceeds the allowed maximum."""


class ConfigError(MatbodyError):
    """Analysis configuration is malformed or inconsistent."""

"""Exception types shared across the package.

Domain errors subclass ValueError so callers can catch broadly; the one
runtime failure, divergence, subclasses RuntimeError because it signals a
failed computation rather than bad input.
"""


class NonFiniteCoordinate(ValueError):
    """A point contains NaN or Inf. Carries the first offending index."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"non-finite coordinate at point index {index}")


class DistanceOverflow(ValueError):
    """Squared distances between the points could overflow float64."""


class EmptySet(ValueError):
    def __init__(self, what="point set"):
        super().__init__(f"empty {what} not allowed here")


class SizeMismatch(ValueError):
    def __init__(self, na, nb):
        self.na = na
        self.nb = nb
        super().__init__(f"size mismatch (|a|={na}, |b|={nb})")


class InstanceTooLarge(ValueError):
    def __init__(self, size, limit):
        super().__init__(f"instance size {size} exceeds exact-solver limit {limit}")


class KOutOfRange(ValueError):
    def __init__(self, k, n, name="k"):
        super().__init__(f"{name}={k} out of range for set of size {n}")


class ParseError(ValueError):
    """Malformed document. line is 1-based."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class DimensionMismatch(ValueError):
    pass


class UnknownFamily(ValueError):
    def __init__(self, family, known):
        super().__init__(f"unknown family {family!r}; expected one of {sorted(known)}")


class InvalidParameter(ValueError):
    pass


class PointOutsideGrid(ValueError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"point index {index} lies outside the grid volume")


class InvalidThreshold(ValueError):
    def __init__(self, threshold):
        super().__init__(f"threshold {threshold} not in [0, 1]")


class GridMismatch(ValueError):
    pass


class NonBinaryGrid(ValueError):
    pass


class DivergenceDetected(RuntimeError):
    def __init__(self, step, loss, initial):
        super().__init__(
            f"loss diverged at step {step}: {loss:g} exceeds 1e6 x initial {initial:g}")

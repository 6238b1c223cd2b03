"""Exception types shared across the package."""


class VolterraLabError(Exception):
    """Base class for all package-specific errors."""


class InputError(VolterraLabError, ValueError):
    """Malformed or out-of-contract input data."""


class TrajectoryOverflowError(VolterraLabError, OverflowError):
    """A recursion produced a non-finite value at a specific index."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(
            message or f"non-finite value first produced at index {index}"
        )


class NonlinearityError(VolterraLabError):
    """A nonlinearity returned a non-finite value for a finite input."""


class SingularMultiplierError(VolterraLabError):
    """The symbol g vanished at lambda, so the growth multiplier
    L(lambda) = 1/g(lambda) is undefined; a summable r(j) lambda^j rules
    this out, since g then has no zero in |z| <= lambda."""


class ParameterError(VolterraLabError, ValueError):
    """Invalid model, catalogue, or distribution parameter."""


class UndefinedRatioError(VolterraLabError):
    """Consecutive-ratio estimation hit zero values on the tail window."""


class ConfigError(VolterraLabError, ValueError):
    """Experiment configuration failed schema validation."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")

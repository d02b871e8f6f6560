"""The error of an adaptive integral that cannot meet its accuracy."""


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance cannot be met."""

"""The error of a numerical integral that cannot meet its accuracy, raised
by the adaptive quadrature and by the CDF arbiter's trapezoid sum."""


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance cannot be met."""

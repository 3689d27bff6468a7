"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid configuration or input data (CLI exit code 2)."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class CausalityError(ValidationError):
    """Wait time T too small for the fields to be causally decoupled."""


class ResolutionError(ValidationError):
    """Grid too coarse to resolve the field's spectral content."""


class LightConeError(ValidationError):
    """Point evaluation requested on the light cone, where the kernel is distributional."""


class DegenerateFieldError(ValidationError):
    """An operation profile with zero norm makes the protocol undefined."""


class ToleranceFailure(RuntimeError):
    """A numerical result missed its requested tolerance (CLI exit code 3)."""

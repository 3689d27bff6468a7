"""The package's two exception types, one per CLI exit code; exit 4 is any OSError."""


class ValidationError(ValueError):
    """Invalid configuration or input data (CLI exit code 2)."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ToleranceFailure(RuntimeError):
    """A numerical result missed its requested tolerance (CLI exit code 3)."""

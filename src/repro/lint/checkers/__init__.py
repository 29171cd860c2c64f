"""Built-in checkers. Importing this package registers all of them."""

from repro.lint.checkers import (  # noqa: F401  (imported for registration)
    counters,
    fingerprint,
    imports,
    locks,
    rng,
    wire_schema,
)

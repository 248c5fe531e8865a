"""Inert names kept only for the host-time benchmark's tracer.

``hostbench/tracer.py`` wraps these two functions as its ``sim.lower``
span and reads ``Engine._lowering``. Nothing in the package calls them;
they go with the next change to the benchmark.
"""


def lower_program(*args: object, **kwargs: object) -> None:
    """No-op."""


def lower_spawned(*args: object, **kwargs: object) -> None:
    """No-op."""

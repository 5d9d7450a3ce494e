"""Base class for simulated hardware/software components."""

from __future__ import annotations

from typing import Callable

from .kernel import Simulator


class Component:
    """A named component bound to a :class:`Simulator`.

    Provides the scheduling shorthand every model block uses and a stable
    ``name`` for tracing.
    """

    __slots__ = ("sim", "name")

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name

    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self.sim.cycle

    def after(self, delay: int, fn: Callable[..., None], *args) -> None:
        """Schedule ``fn(*args)`` ``delay`` cycles in the future (hot,
        non-cancellable path — see :meth:`Simulator.schedule`)."""
        self.sim.schedule(delay, fn, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"

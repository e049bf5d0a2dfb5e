"""Verdicts as named conditions, each passed or failed with its witnesses.

``notes`` say what a check could not examine; ``data`` holds what it found
on the way (a common lattice, an observed weight)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Condition:
    name: str
    passed: bool
    details: str = ""
    witnesses: list = field(default_factory=list)


@dataclass
class Report:
    conditions: list
    notes: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def __bool__(self) -> bool:
        return self.passed

    def condition(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def witness(self):
        """The first witness of the first failed condition, or None."""
        failed = [c for c in self.conditions if not c.passed]
        return failed[0].witnesses[0] if failed and failed[0].witnesses else None

    def summary(self) -> str:
        lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.details}" for c in self.conditions]
        return "\n".join(lines + [f"note: {n}" for n in self.notes])

"""Verdicts as named conditions, each passed or failed with its witnesses.

``notes`` say what a check could not examine; ``data`` holds what it found
on the way (a common lattice, an observed weight)."""

from __future__ import annotations


class Condition:
    __slots__ = ("name", "passed", "details", "witnesses")

    def __init__(self, name: str, passed: bool, details: str = "", witnesses: list | None = None):
        self.name = name
        self.passed = passed
        self.details = details
        self.witnesses = [] if witnesses is None else witnesses

    def __eq__(self, other):
        if type(other) is not Condition:
            return NotImplemented
        return (self.name, self.passed, self.details, self.witnesses) == (
            other.name, other.passed, other.details, other.witnesses)


class Report:
    __slots__ = ("conditions", "notes", "data")

    def __init__(self, conditions: list, notes: list | None = None, data: dict | None = None):
        self.conditions = conditions
        self.notes = [] if notes is None else notes
        self.data = {} if data is None else data

    def __eq__(self, other):
        if type(other) is not Report:
            return NotImplemented
        return (self.conditions, self.notes, self.data) == (
            other.conditions, other.notes, other.data)

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

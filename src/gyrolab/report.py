"""Check reports: the uniform pass/fail/skip record emitted by every verifier."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolated


@dataclass
class CheckReport:
    """Outcome of one named check.

    status is "pass", "fail" or "skipped".  A failing report always carries a
    witness (a tuple of element indices, possibly tagged with a short label).
    timing is wall-clock seconds and is deliberately left out of serialized
    reports so that repeated runs stay byte-identical.
    """

    check_id: str
    statement: str
    status: str
    witness: tuple | None = None
    witness_names: tuple | None = None
    reason: str | None = None
    details: dict | None = None
    timing: float | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skipped"):
            raise InvariantViolated(f"check {self.check_id} has status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise InvariantViolated(f"failing check {self.check_id} lacks a witness")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "status": self.status,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_names": list(self.witness_names) if self.witness_names is not None else None,
            "reason": self.reason,
            "details": self.details,
        }


def passed(check_id: str, statement: str, details: dict | None = None) -> CheckReport:
    return CheckReport(check_id, statement, "pass", details=details)


def failed(check_id: str, statement: str, witness: tuple,
           names: tuple | None = None, details: dict | None = None) -> CheckReport:
    return CheckReport(check_id, statement, "fail", witness=tuple(witness),
                       witness_names=names, details=details)


def skipped(check_id: str, statement: str, reason: str) -> CheckReport:
    return CheckReport(check_id, statement, "skipped", reason=reason)


def summarize(reports: list[CheckReport]) -> dict:
    return {
        "pass": sum(r.status == "pass" for r in reports),
        "fail": sum(r.status == "fail" for r in reports),
        "skipped": sum(r.status == "skipped" for r in reports),
    }

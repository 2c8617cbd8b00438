"""Verification reports: one record per checked case, deterministic order."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
EXPECTED_MISMATCH = "expected-mismatch"

_STATUSES = (PASS, FAIL, EXPECTED_MISMATCH)


@dataclass
class CaseRecord:
    id: str
    params: dict
    status: str
    detail: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


@dataclass
class Report:
    suite: str
    cases: list = field(default_factory=list)

    def add(self, id: str, params: dict, status: str, detail: str = "") -> None:
        self.cases.append(CaseRecord(id, params, status, detail))

    def check(self, id: str, params: dict, ok: bool, detail: str = "", *values) -> None:
        """Record a case that passes, with no detail, when ok and that fails
        otherwise with detail.format(*values), or with `detail` as it is when
        no values are given.  A passing case formats nothing."""
        if ok:
            self.add(id, params, PASS)
        else:
            self.add(id, params, FAIL, detail.format(*values) if values else detail)

    def extend(self, other: "Report") -> None:
        self.cases.extend(other.cases)

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "expected_mismatch": 0}
        for c in self.cases:
            out[c.status.replace("-", "_")] += 1
        return out

    @property
    def failures(self) -> int:
        return sum(1 for c in self.cases if c.status == FAIL)

    def ok(self) -> bool:
        """True when nothing failed (expected mismatches do not count)."""
        return self.failures == 0

    def format_lines(self) -> list:
        width = max((len(c.status) for c in self.cases), default=4)
        lines = [
            f"[{c.status:<{width}}] {c.id}" + (f"  {c.detail}" if c.detail else "")
            for c in self.cases
        ]
        s = self.summary()
        lines.append(
            f"suite {self.suite}: {s['pass']} pass, {s['fail']} fail, "
            f"{s['expected_mismatch']} expected-mismatch"
        )
        return lines

    def __str__(self):
        return "\n".join(self.format_lines())

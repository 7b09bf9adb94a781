"""The one report type every verifier returns.

A ``Report`` records checks in order, each under a label, and keeps the
first failure's operands as a JSON witness.  The exact identity checks
record every check under the name of its claim; a check whose label
states the violation itself (with measured values in it) is recorded only
when it fails.  Either way ``failures`` lists the failing labels in order
and ``ok`` holds exactly when there are none.
"""

from __future__ import annotations

import json
from typing import Optional

from .polyring import MultiPoly, UniPoly


def _serialize(p) -> list:
    if isinstance(p, MultiPoly):
        return p.to_records()
    if isinstance(p, UniPoly):
        return p.to_strings()
    return p


class Report:
    """Pass/fail evidence for one claim over a parameter range.

    ``status`` maps each recorded label to whether it passed, in recording
    order; ``margins`` holds measured values by name, such as how far the
    zeros keep from the edge of a strict locus condition.
    """

    def __init__(self, param_range: str):
        self.param_range = param_range
        self.status: dict[str, bool] = {}
        self.witness: Optional[str] = None
        self.margins: dict[str, float] = {}

    @property
    def ok(self) -> bool:
        return all(self.status.values())

    @property
    def failures(self) -> list[str]:
        return [label for label, passed in self.status.items() if not passed]

    def record(self, label: str, passed: bool, lhs=None, rhs=None) -> None:
        self.status[label] = passed
        if not passed and self.witness is None:
            payload = {"check": label}
            if lhs is not None:
                payload["lhs"] = _serialize(lhs)
            if rhs is not None:
                payload["rhs"] = _serialize(rhs)
            self.witness = json.dumps(payload)

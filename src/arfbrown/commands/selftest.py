"""`arfbrown selftest`: the cross-module consistency checks."""

from __future__ import annotations

from ..cli import Emitter

__all__ = ["cmd_selftest"]


def cmd_selftest(emitter: Emitter) -> int:
    from ..tqft import consistency_report

    report = consistency_report()
    for check in report.checks:
        emitter.emit(
            {
                "record": "selftest",
                "name": check.name,
                "passed": check.passed,
                "detail": check.detail,
            },
            lambda: [
                f"check {check.name}:"
                f" {'pass' if check.passed else 'FAIL'} ({check.detail})"
            ],
        )
    if emitter.fmt == "human":
        print(
            "all checks passed" if report.all_passed else "some checks FAILED",
            file=emitter.stream,
        )
    return 0 if report.all_passed else 1

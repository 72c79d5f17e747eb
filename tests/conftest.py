"""Shared pytest wiring: the acceptance tests tag themselves with a
criterion number and description via the `criterion` fixture; the terminal
summary prints one pass/fail line per criterion so the gate is readable at a
glance even in a long -v run.

The tag goes straight onto the test's user_properties rather than through
pytest's record_property, which warns under junit_family xunit2 (pytest's
default) whenever --junitxml is given, and the warnings policy turns that
into a failure."""

import pytest

_criteria_results = []


@pytest.fixture
def criterion(request):
    def tag(number, description):
        request.node.user_properties.append(("criterion", (number, description)))

    return tag


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    for name, value in report.user_properties:
        if name == "criterion":
            number, description = value
            _criteria_results.append((number, description, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _criteria_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, description, outcome in sorted(_criteria_results):
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{word}] {description}")

import pytest

from subpart.verify import run_verification


@pytest.fixture(scope="session")
def full_run():
    """One ``--level full`` run of the verify registry, by check name."""
    return {r.name: r for r in run_verification("full")}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion after the run."""
    reports = []
    for key in ("passed", "failed", "error"):
        reports.extend(terminalreporter.stats.get(key, []))
    acc = [
        r
        for r in reports
        if "test_acceptance" in r.nodeid and getattr(r, "when", "call") == "call"
    ]
    if not acc:
        return
    terminalreporter.section("acceptance criteria")
    for r in sorted(acc, key=lambda r: r.nodeid):
        word = "PASS" if r.passed else "FAIL"
        terminalreporter.write_line(f"{word}  {r.nodeid.split('::')[-1]}")

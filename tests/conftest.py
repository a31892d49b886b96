"""Test-suite configuration.

Hypothesis runs derandomized so the suite is reproducible end to end —
appropriate for a reproduction repository where "tests pass" should mean
the same thing on every machine.  Remove the profile locally to fuzz.
"""

import pytest
from hypothesis import settings

settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


@pytest.fixture
def timing_audit():
    """Audit every DRAM command the test issues against JEDEC timing.

    The independent auditor (:mod:`repro.dram.audit`) replays each
    channel's command log; the test fails at teardown on any violation.
    """
    from tests.dram.issue_log import IssueRecorder

    with IssueRecorder() as recorder:
        yield recorder
    assert not recorder.violations, recorder.report()

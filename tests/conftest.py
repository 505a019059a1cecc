import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import acceptance_report
from hypothesis import settings

# Derandomized, so every run draws the same examples and tier-1 stays
# reproducible; no deadline, because shared hosts stall at random.
settings.register_profile("amodsim", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("amodsim")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)

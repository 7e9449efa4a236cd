"""The paper-scale testbed the figure and claim tests share.

The paper's setup — the 600-node transit-stub network and 1000 stock
subscriptions — with 600 events a scenario, built once a session.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig, build_testbed

#: The paper's configuration, events trimmed to 600: every curve the
#: tests read is stable at that count.
PAPER_CONFIG = ExperimentConfig(num_events=600)


@pytest.fixture(scope="session")
def paper_config():
    return PAPER_CONFIG


@pytest.fixture(scope="session")
def paper_testbed():
    return build_testbed(PAPER_CONFIG)

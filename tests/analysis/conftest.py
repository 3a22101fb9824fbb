"""Session-wide gate results over the live tree.

The full gate over ``src/repro`` and the project model it builds are
the expensive parts of this suite, so each is computed once per session;
the live-tree tests read these fixtures and filter by rule id.
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import GateReport, ProjectModel, analyze_project_paths

SRC_REPRO = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="session")
def src_repro_gate() -> GateReport:
    """One full-catalog gate run over ``src/repro``."""
    return analyze_project_paths([SRC_REPRO])


@pytest.fixture(scope="session")
def src_repro_model() -> ProjectModel:
    """The whole-program model of ``src/repro``."""
    return ProjectModel.from_paths([SRC_REPRO])

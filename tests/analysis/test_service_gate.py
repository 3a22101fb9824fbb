"""The analysis gate applied to the service layer specifically.

``repro.service`` is the library's most concurrency-heavy package, so it
must not just be violation-free under the full gate — the lock-discipline
analysis (REPRO-LOCK001/002) must actually *see* its worker fan-out.
The scheduler submits a module-level entry point precisely so the
submit-root finder resolves it; these tests pin that contract so a
refactor to an unanalyzable fan-out (lambda, bound method on an opaque
receiver) fails loudly instead of silently shrinking gate coverage.
"""

from pathlib import Path

import repro
from repro.analysis import analyze_project_paths

SRC_REPRO = Path(repro.__file__).resolve().parent
SERVICE_DIR = SRC_REPRO / "service"

WORKER_ROOT = "repro.service.scheduler._run_worker"


def test_scheduler_fan_out_is_a_visible_submit_root(src_repro_model):
    roots = {root.qualname for root in src_repro_model.submit_roots}
    assert WORKER_ROOT in roots, (
        "the scheduler's pool.submit(_run_worker, ...) is no longer "
        "resolvable by REPRO-LOCK001/002; keep the worker entry point "
        f"module-level (found roots: {sorted(roots)})"
    )


def test_service_package_is_file_level_clean(src_repro_gate):
    reports = [
        report
        for report in src_repro_gate.file_reports
        if SERVICE_DIR in Path(report.path).parents
    ]
    assert reports, "the gate saw no file in repro.service"
    found = [violation for report in reports for violation in report.violations]
    rendered = "\n".join(v.format() for v in found)
    assert not found, f"repro-lint violations in repro.service:\n{rendered}"


def test_service_package_passes_the_project_gate_standalone():
    # The service files must hold up even when analyzed as their own
    # project scope (no other module's context to lean on).
    report = analyze_project_paths([SERVICE_DIR])
    rendered = "\n".join(v.format() for v in report.violations)
    assert not report.violations, f"gate violations:\n{rendered}"
    assert not report.has_syntax_errors

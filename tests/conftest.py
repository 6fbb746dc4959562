"""Shared test configuration: numpy-optional collection.

numpy is an optional dependency of the simulator (it powers trace
*generation*; the replay loop in ``Processor.run`` and every design
model are pure Python).  On an interpreter without numpy this
conftest keeps the suite green in the honest way:

* test modules that import numpy at module level are not collected;
* tests that die on the package's own typed "requires numpy"
  ``ImportError`` are converted to skips, whether the import failure
  happens in setup (fixtures) or in the test body.

Everything else — and that is most of the suite's pure-model tests —
still runs and must pass, which is exactly what the no-numpy CI job
enforces.  With numpy installed this file changes nothing.
"""

import pytest

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

collect_ignore = []
if not HAVE_NUMPY:
    collect_ignore = [
        # module-level `import numpy`
        "test_synthetic.py",
        "test_tline_extraction.py",
        "test_tline_wave.py",
        # drive simulations through an HTTP service whose worker-side
        # numpy failures surface as opaque 500s, not ImportErrors
        "test_service.py",
        "test_service_chaos.py",
    ]


def _numpy_import_error(excinfo) -> bool:
    exc_type, exc, _tb = excinfo
    if issubclass(exc_type, ImportError) and "numpy" in str(exc):
        return True
    # The resilient executor wraps worker errors (e.g. CellFailure); the
    # package's typed refusal message survives into the wrapper text.
    return "requires numpy, which is not installed" in str(exc)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    outcome = yield
    if not HAVE_NUMPY and outcome.excinfo is not None \
            and _numpy_import_error(outcome.excinfo):
        outcome.force_exception(
            pytest.skip.Exception(f"requires numpy: {outcome.excinfo[1]}"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    outcome = yield
    if not HAVE_NUMPY and outcome.excinfo is not None \
            and _numpy_import_error(outcome.excinfo):
        outcome.force_exception(
            pytest.skip.Exception(f"requires numpy: {outcome.excinfo[1]}"))

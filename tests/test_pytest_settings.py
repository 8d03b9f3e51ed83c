"""The suite's pytest settings keep a failing property test readable."""

from pathlib import Path

import pytest

pytest_plugins = ("pytester",)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_given_test_reports_one_failure_under_the_suite_settings(pytester):
    """The suite turns every warning into an error. With libcst installed,
    hypothesis's report of a failing @given test raises mypy_extensions'
    TypedDict DeprecationWarning, which, unless ignored, turns the failure
    into an INTERNALERROR that hides the falsifying example."""
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 5
        """
    )
    result = pytester.runpytest_subprocess("test_fails.py")
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")

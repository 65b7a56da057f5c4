from hypothesis import settings


def test_property_tests_run_derandomized_without_a_database():
    # conftest.py loads this profile; a new property test inherits it.
    assert settings.default.derandomize is True
    assert settings.default.database is None
    assert settings.default.deadline is None

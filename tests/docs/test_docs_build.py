"""The documentation site must build clean in strict mode.

This is the same invocation CI's ``docs`` job runs; a broken internal
link, an orphaned page, or a public symbol losing its docstring fails
here first.
"""

import importlib.util
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).parents[2]


@pytest.fixture(scope="module")
def build_module():
    spec = importlib.util.spec_from_file_location(
        "docs_build", REPO / "docs" / "build.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def site(build_module, tmp_path_factory):
    output = tmp_path_factory.mktemp("site")
    code = build_module.main(["--output", str(output), "--strict"])
    assert code == 0, "strict docs build reported warnings"
    return output


def test_strict_build_succeeds(site):
    assert (site / "index.html").exists()
    assert (site / "style.css").exists()


def test_api_pages_cover_all_packages(build_module, site):
    for module_name in ("repro", "repro.core", "repro.engine",
                        "repro.library", "repro.spice", "repro.timing",
                        "repro.models", "repro.analysis"):
        page = site / "api" / f"{module_name}.html"
        assert page.exists(), f"missing API page for {module_name}"
        assert module_name in build_module.API_MODULES


def test_api_reference_mentions_key_symbols(site):
    engine = (site / "api" / "repro.engine.html").read_text()
    for symbol in ("DelayEngine", "VectorizedEngine", "get_engine",
                   "available_engines"):
        assert symbol in engine
    library = (site / "api" / "repro.library.html").read_text()
    for symbol in ("GateDelayTable", "GateLibrary",
                   "characterize_library", "verify_table"):
        assert symbol in library


def test_guides_link_to_api(site):
    architecture = (site / "architecture.html").read_text()
    assert 'href="api/repro.engine.html"' in architecture


def test_broken_link_is_detected(build_module, tmp_path):
    """The link checker must actually catch a dangling reference."""
    builder = build_module.Builder()
    builder._links = {"index.md": ["no-such-page.md"]}
    builder._check_links(tmp_path, [])
    assert any("broken internal link" in warning
               for warning in builder.warnings)


def test_missing_docstring_is_detected(build_module):
    builder = build_module.Builder()

    class Undocumented:
        pass

    Undocumented.__doc__ = None
    builder._docstring_block(Undocumented, "repro.Ghost", True)
    assert any("missing docstring" in warning
               for warning in builder.warnings)

"""The documentation suite stays present and lint-clean.

Mirrors the CI "Documentation check" step inside tier-1, so docstring
coverage on the documented hot modules and the README/docs link graph
cannot rot between CI configurations.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_required_documents_exist():
    assert (REPO / "README.md").exists()
    assert (REPO / "docs" / "architecture.md").exists()


def test_readme_has_quickstart_code():
    text = (REPO / "README.md").read_text()
    assert "```python" in text
    assert "Repose.build(" in text


def test_docs_lint_passes():
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


def test_hot_traversal_modules_are_documented():
    """The traversal's hot modules stay under the docstring lint."""
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    for module in ("src/repro/core/bounds.py", "src/repro/core/search.py",
                   "src/repro/distances/kernels/runs.py"):
        assert module in check_docs.DOC_MODULES


def test_ci_kernel_cache_key_hashes_all_c_source():
    """The Actions cache of compiled kernels is keyed by a hash of the
    files that hold C source; one it misses would let a stale shared
    object outlive a source change."""
    import re
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    patterns = re.findall(r"hashFiles\('([^']+)'\)", workflow)
    assert patterns
    hashed = {path for pattern in patterns for path in REPO.glob(pattern)}
    holders = {path for path in (REPO / "src").rglob("*.py")
               if "#include <" in path.read_text()}
    assert holders and holders <= hashed

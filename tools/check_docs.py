#!/usr/bin/env python3
"""Documentation lint: docstring coverage plus markdown link checking.

Dependency-free stand-in for ``interrogate``/``pydocstyle`` (the CI
image only ships numpy + pytest), enforcing two things:

1. **Docstring coverage** on the hot modules this repo documents as
   API surface (``repro.distances.batch``, the kernel tier,
   ``repro.core.store``, ``repro.core.bounds``, ``repro.core.search``,
   ``repro.cluster.*``): the module itself and every public class,
   function and method must carry a docstring.  Coverage below
   ``THRESHOLD`` fails the build.
2. **Markdown links**: every relative link target in ``README.md`` and
   ``docs/*.md`` must exist in the repository.

Run from anywhere: paths resolve relative to the repository root
(this file's parent's parent).  Exit code 0 on success, 1 with a
per-violation report otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Modules whose public API must be fully documented.
DOC_MODULES = [
    "src/repro/distances/batch.py",
    "src/repro/distances/kernels/__init__.py",
    "src/repro/distances/kernels/cnative.py",
    "src/repro/distances/kernels/runs.py",
    "src/repro/core/store.py",
    "src/repro/core/bounds.py",
    "src/repro/core/search.py",
    "src/repro/cluster/engine.py",
    "src/repro/cluster/planner.py",
    "src/repro/cluster/driver.py",
    "src/repro/cluster/batch.py",
    "src/repro/cluster/rdd.py",
    "src/repro/cluster/service.py",
    "src/repro/cluster/query_index.py",
    "src/repro/testing/faults.py",
    "src/repro/testing/clock.py",
]

#: Minimum fraction of public objects (module included) with docstrings.
THRESHOLD = 1.0

#: Markdown files whose relative links must resolve.
DOC_FILES = ["README.md"]
DOC_GLOBS = ["docs/*.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _doc_targets(tree: ast.Module):
    """Yield (qualified name, node) for the module and every public
    class, function and method."""
    yield "<module>", tree
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            yield node.name, node
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and (_is_public(sub.name) or sub.name == "__init__")):
                    # __init__ may document itself through the class
                    # docstring (numpy style); only plain publics count.
                    if sub.name == "__init__":
                        continue
                    yield f"{node.name}.{sub.name}", sub


def check_docstrings() -> list[str]:
    problems = []
    for rel in DOC_MODULES:
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: module missing")
            continue
        tree = ast.parse(path.read_text())
        targets = list(_doc_targets(tree))
        missing = [name for name, node in targets
                   if not ast.get_docstring(node)]
        covered = len(targets) - len(missing)
        coverage = covered / len(targets) if targets else 1.0
        if coverage < THRESHOLD:
            for name in missing:
                problems.append(f"{rel}: missing docstring on {name}")
            problems.append(
                f"{rel}: docstring coverage {coverage:.0%} "
                f"< required {THRESHOLD:.0%}")
    return problems


def _markdown_files() -> list[Path]:
    files = [REPO / name for name in DOC_FILES]
    for pattern in DOC_GLOBS:
        files.extend(sorted(REPO.glob(pattern)))
    return [f for f in files if f.exists()]


def check_links() -> list[str]:
    problems = []
    required = [REPO / "README.md", REPO / "docs" / "architecture.md"]
    for path in required:
        if not path.exists():
            problems.append(
                f"{path.relative_to(REPO)}: required document missing")
    for path in _markdown_files():
        text = path.read_text()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO)}: broken link -> {target}")
    return problems


def main() -> int:
    problems = check_docstrings() + check_links()
    if problems:
        print("documentation check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    modules = ", ".join(DOC_MODULES)
    print(f"documentation check passed ({modules}; markdown links ok)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

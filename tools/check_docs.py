#!/usr/bin/env python
"""Documentation lint: markdown link targets + module docstring policy.

Run from the repository root (CI does):

    python tools/check_docs.py

Checks:

1. Every relative markdown link in README.md and docs/*.md points at a
   file or directory that exists (external http(s) links are skipped).
2. Every module under src/repro/ has a module docstring, and modules in
   the experiments/ and workloads/ packages state which paper artifact
   they serve (a "Fig.", "§" or "Table" reference), matching the style of
   engine.py / saath.py.
3. Every public class in the modules listed in PUBLIC_API_MODULES —
   currently the topology subsystem — carries a docstring: these modules
   are the extension surface users subclass, so an undocumented class is
   an API regression.
4. Every backticked identifier with an underscore (``snake_case`` or
   ``UPPER_CASE``) in README.md and docs/*.md still names something: it
   must occur as an identifier in src/, tests/, tools/, benchmarks/,
   examples/ or the CI workflow, or as a file or directory name in the
   repository. Renamed or deleted code thus cannot linger in the docs.
   NAME_ALLOWLIST holds the few names the docs use for things outside the
   repository or as placeholders.

Exits non-zero with a summary of violations.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
#: Packages whose modules must cite the paper artifact they reproduce.
PAPER_REF_PACKAGES = ("src/repro/experiments", "src/repro/workloads")
PAPER_REF_RE = re.compile(r"Fig\.?\s*\d|§\s*\d|Table\s*\d")
#: Modules whose public classes must all carry docstrings (the
#: user-subclassable extension surface).
PUBLIC_API_MODULES = ("src/repro/simulator/topology.py",)
#: Where a documented identifier may be defined or used.
NAME_SOURCES = ("src", "tests", "tools", "benchmarks", "examples",
                ".github/workflows")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
FENCE_RE = re.compile(r"^```.*?^```", re.M | re.S)
INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
#: Documented names that are not the repository's own: setuptools'
#: ``build_ext`` command, a CPython bytecode op, and two placeholders.
NAME_ALLOWLIST = frozenset({
    "build_ext", "BINARY_SUBSCR", "figN_short_name", "test_bench_figN",
})


def check_markdown_links() -> list[str]:
    errors = []
    for md in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        if not md.exists():
            errors.append(f"{md.relative_to(ROOT)}: file missing")
            continue
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                target = target.split("#", 1)[0].strip()
                if not target or target.startswith(("http://", "https://",
                                                    "mailto:")):
                    continue
                resolved = (md.parent / target).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{md.relative_to(ROOT)}:{lineno}: broken link "
                        f"-> {target}"
                    )
    return errors


def check_module_docstrings() -> list[str]:
    errors = []
    for py in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rel = py.relative_to(ROOT)
        doc = ast.get_docstring(ast.parse(py.read_text()))
        if not doc:
            errors.append(f"{rel}: missing module docstring")
            continue
        needs_ref = (
            any(str(rel).startswith(pkg) for pkg in PAPER_REF_PACKAGES)
            and py.name != "__init__.py"
        )
        if needs_ref and not PAPER_REF_RE.search(doc):
            errors.append(
                f"{rel}: module docstring should state the paper "
                f"figure/section it reproduces (no Fig./§/Table reference)"
            )
    return errors


def check_public_classes() -> list[str]:
    """Public classes in PUBLIC_API_MODULES must have docstrings."""
    errors = []
    for rel in PUBLIC_API_MODULES:
        py = ROOT / rel
        if not py.exists():
            errors.append(f"{rel}: file missing (PUBLIC_API_MODULES)")
            continue
        tree = ast.parse(py.read_text())
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("_"):
                continue
            if not ast.get_docstring(node):
                errors.append(
                    f"{rel}:{node.lineno}: public class {node.name} "
                    f"lacks a docstring"
                )
    return errors


def _known_names() -> set[str]:
    """Identifiers in the source trees plus every file and directory name
    (with and without its suffix) in the repository."""
    names: set[str] = set()
    for top in NAME_SOURCES:
        for path in (ROOT / top).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                try:
                    text = path.read_text()
                except (UnicodeDecodeError, OSError):
                    continue
                names.update(IDENT_RE.findall(text))
    for path in ROOT.rglob("*"):
        if ".git" in path.parts:
            continue
        names.add(path.name)
        names.add(path.stem)
    return names


def check_documented_names() -> list[str]:
    """Backticked underscore identifiers in the docs must still exist."""
    known = _known_names()
    errors = []
    for md in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        if not md.exists():
            continue
        # Blank out fenced blocks, keeping their newlines for line numbers.
        text = FENCE_RE.sub(lambda m: "\n" * m.group(0).count("\n"),
                            md.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            for span in INLINE_CODE_RE.findall(line):
                for name in IDENT_RE.findall(span):
                    if ("_" not in name.strip("_") or name in known
                            or name in NAME_ALLOWLIST):
                        continue
                    errors.append(
                        f"{md.relative_to(ROOT)}:{lineno}: `{name}` names "
                        f"nothing in the repository"
                    )
    return errors


def main() -> int:
    errors = (check_markdown_links() + check_module_docstrings()
              + check_public_classes() + check_documented_names())
    for error in errors:
        print(error)
    if errors:
        print(f"\n{len(errors)} documentation problem(s)")
        return 1
    print("docs lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

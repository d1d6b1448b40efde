#!/usr/bin/env python3
"""Public-surface gate: examples and docs import only the stable API,
and the stable API is there for more than its own tests.

``repro.runtime`` re-exports its supported surface in ``__all__``; the
submodules behind it (``executor``, ``transport``, ``coordinator``,
``chaos``, ...) are implementation detail that may move between
releases.  This gate scans ``examples/*.py`` and every fenced python
code block in ``README.md`` and ``docs/*.md`` and fails when either

* a ``repro.runtime.<submodule>`` deep import appears, or
* a ``from repro.runtime import X`` pulls a name missing from
  ``repro.runtime.__all__``.

Tests and benchmarks are deliberately out of scope — they are allowed
to reach into internals.

It also fails on any name in the ``__all__`` of ``repro.runtime``,
``repro.ckks``, ``repro.nums``, ``repro.rns`` or ``repro.transforms``
whose only referrers sit under ``tests/`` (or that nothing refers to at
all), unless :data:`TEST_ONLY_ALLOWED` says why it stays.  A referrer is
any ``.py`` file in the repository, or any python block in ``README.md``
/ ``docs/*.md``, other than the module that defines the name and the
package ``__init__``; a reference is the name as a whole word.

Usage::

    PYTHONPATH=src python scripts/check_public_api.py
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

_FENCE_RE = re.compile(r"```(?:python|py)\n(.*?)```", re.DOTALL)

_PACKAGES = (
    "repro.runtime",
    "repro.ckks",
    "repro.nums",
    "repro.rns",
    "repro.transforms",
)

# Exported names only tests reach, each with the reason it stays.
_CAUGHT = "an exception type callers catch"
_SECURITY = "the parameter-security check for callers picking their own ring"
_SEEDED = "CTS2, pinned by the golden bytes; serving it is a parked ROADMAP item"
_PACKING = "the reference for the residue-row packing docs/formats.md specifies"
_TWIDDLES = "the Sec. IV-B on-the-fly twiddle model, not yet wired into BatchNtt"
TEST_ONLY_ALLOWED: dict[str, str] = {
    "repro.runtime.TraceError": _CAUGHT,
    "repro.runtime.PlanFormatError": _CAUGHT,
    "repro.runtime.Span": "the record type Telemetry.spans() returns",
    "repro.ckks.ChebyshevSeries": "the type sine_mod_series returns",
    "repro.ckks.SecurityReport": "the type check_parameters returns",
    "repro.ckks.check_parameters": _SECURITY,
    "repro.ckks.estimate_security_bits": _SECURITY,
    "repro.ckks.max_modulus_bits": _SECURITY,
    "repro.ckks.serialize_seeded": _SEEDED,
    "repro.ckks.deserialize_seeded": _SEEDED,
    "repro.ckks.pack_residues": _PACKING,
    "repro.ckks.unpack_residues": _PACKING,
    "repro.transforms.OnTheFlyTwiddleGenerator": _TWIDDLES,
    "repro.transforms.StageSeed": _TWIDDLES,
}


def _python_sources() -> list[tuple[str, str]]:
    """(label, source) pairs: example scripts plus doc code blocks."""
    sources: list[tuple[str, str]] = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        sources.append((str(path.relative_to(ROOT)), path.read_text()))
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    for path in docs:
        for i, match in enumerate(_FENCE_RE.finditer(path.read_text())):
            label = f"{path.relative_to(ROOT)} (python block {i + 1})"
            sources.append((label, match.group(1)))
    return sources


def _violations(label: str, source: str, public: set[str]) -> list[str]:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # doc snippets must at least parse
        return [f"{label}: code does not parse: {exc}"]
    bad: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.runtime."):
                    bad.append(
                        f"{label}:{node.lineno}: deep import "
                        f"'import {alias.name}' — use 'from repro.runtime "
                        "import ...'"
                    )
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod.startswith("repro.runtime."):
                bad.append(
                    f"{label}:{node.lineno}: deep import 'from {mod} "
                    "import ...' — import from repro.runtime instead"
                )
            elif mod == "repro.runtime":
                for alias in node.names:
                    if alias.name not in public:
                        bad.append(
                            f"{label}:{node.lineno}: '{alias.name}' is not "
                            "in repro.runtime.__all__ — export it or use a "
                            "supported name"
                        )
    return bad


def _defining_modules(package: str) -> dict[str, Path]:
    """Exported name -> the file of the submodule the package
    ``__init__`` imports it from."""
    init = ROOT / "src" / Path(*package.split(".")) / "__init__.py"
    where: dict[str, Path] = {}
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = ROOT / "src" / Path(*node.module.split("."))
            for alias in node.names:
                where[alias.asname or alias.name] = module.with_suffix(".py")
    return where


def _referrer_words() -> dict[Path, set[str]]:
    """Every file that can refer to an exported name -> its words; a doc
    counts through its python blocks only."""
    words: dict[Path, set[str]] = {}
    for path in ROOT.rglob("*.py"):
        rel = path.relative_to(ROOT)
        if rel.parts[0].startswith(".") or path == Path(__file__).resolve():
            continue
        words[rel] = set(re.findall(r"\w+", path.read_text()))
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        blocks = " ".join(_FENCE_RE.findall(path.read_text()))
        words[path.relative_to(ROOT)] = set(re.findall(r"\w+", blocks))
    return words


def names_only_tests_use() -> list[str]:
    """``package.name`` for every exported name that no file outside
    ``tests/`` refers to, allow-listed or not."""
    words = _referrer_words()
    found = []
    for package in _PACKAGES:
        defined_in = _defining_modules(package)
        init = Path("src", *package.split("."), "__init__.py")
        for name in importlib.import_module(package).__all__:
            skip = {init, defined_in[name].relative_to(ROOT)}
            users = [p for p, w in words.items() if name in w and p not in skip]
            if all(p.parts[0] == "tests" for p in users):
                found.append(f"{package}.{name}")
    return found


def main() -> int:
    import repro.runtime as runtime

    public = set(runtime.__all__)
    missing = [name for name in public if not hasattr(runtime, name)]
    if missing:
        print("repro.runtime.__all__ names missing attributes:", missing)
        return 1
    problems: list[str] = []
    checked = 0
    for label, source in _python_sources():
        checked += 1
        problems.extend(_violations(label, source, public))
    test_only = names_only_tests_use()
    for name in test_only:
        if name not in TEST_ONLY_ALLOWED:
            problems.append(
                f"{name}: only tests refer to it — give it a user, delete "
                "it, or allow-list it in TEST_ONLY_ALLOWED with a reason"
            )
    for name in sorted(set(TEST_ONLY_ALLOWED) - set(test_only)):
        problems.append(f"{name}: allow-listed as test-only but has a user now")
    if problems:
        print(f"{len(problems)} public-surface violation(s):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(
        f"checked {checked} source(s): examples and docs import only the "
        f"stable repro.runtime surface ({len(public)} exported names); "
        f"{len(test_only)} name(s) exported by {', '.join(_PACKAGES)} only "
        "tests use, each allow-listed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Documentation integrity check (CI's `docs` job).

Two gates over ``README.md`` and every ``docs/*.md``, and one over code:

1. **Internal links resolve.** Every relative markdown link target
   (``[text](docs/ARCHITECTURE.md)``, ``[x](../README.md#quickstart)``)
   must point at a file that exists, and a ``#fragment`` — including
   same-file ``[x](#section)`` links — must match a heading in the
   target file (GitHub slug rules: lowercase, spaces to dashes,
   punctuation dropped). External ``http(s)``/``mailto`` links are
   left alone: CI has no network and availability is not this job's
   business.
2. **Quickstart commands are real.** Every ``--flag`` inside a fenced
   ``bash`` block's ``repro`` / ``python -m repro`` invocation must be
   an option the live CLI parser actually defines and documents
   (``repro.cli.build_parser()``, subcommands included), so a renamed
   or removed flag breaks the docs job instead of the first reader
   who copy-pastes the recipe. A flag hidden from ``--help``
   (``help=argparse.SUPPRESS``: a retired, accepted no-op) counts as
   removed.
3. **Code cites docs that exist.** Every ``*.md`` path cited in a
   ``.py`` file under ``src/``, ``tools/`` or ``benchmarks/`` (a
   docstring's "see docs/ARCHITECTURE.md") must name a file that
   exists, relative to the repository root or to the citing file.

Usage: ``python tools/check_docs.py`` (repo root). Exits non-zero
listing every broken link / unknown flag / dangling citation.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: ``[text](target)`` — target captured without the closing paren;
#: images (``![alt](...)``) are matched too and checked the same way.
_LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_FLAG_RE = re.compile(r"(--[a-z][a-z0-9-]*)")
#: A markdown file path cited in code, with or without directories or a
#: leading ``../``; not the tail of a URL and not a bare suffix.
_MD_CITE_RE = re.compile(r"(?<![\w./:-])([\w.-][\w./-]*\.md)\b")
#: Code directories whose ``.py`` files' doc citations are checked.
CODE_DIRS = ("src", "tools", "benchmarks")


def doc_files():
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def github_slug(heading: str) -> str:
    """GitHub's heading-anchor slug: strip markdown emphasis/code
    ticks, lowercase, drop punctuation, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"\s+", "-", text.strip())


def heading_slugs(path: pathlib.Path):
    slugs = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if match:
            slugs.add(github_slug(match.group(1)))
    return slugs


def strip_fences(text: str) -> str:
    """Markdown with fenced code blocks blanked, so a ``[x](y)`` inside
    example code is not link-checked."""
    out, in_fence = [], False
    for line in text.splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            out.append("")
            continue
        out.append("" if in_fence else line)
    return "\n".join(out)


def check_links(path: pathlib.Path):
    """Yield error strings for unresolvable relative links in ``path``."""
    for target in _LINK_RE.findall(strip_fences(path.read_text())):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        dest = (path.parent / base).resolve() if base else path
        if not dest.exists():
            yield f"{path.relative_to(REPO_ROOT)}: broken link -> {target}"
            continue
        if fragment and dest.suffix == ".md":
            if fragment not in heading_slugs(dest):
                yield (
                    f"{path.relative_to(REPO_ROOT)}: link -> {target} "
                    f"(no heading #{fragment} in "
                    f"{dest.relative_to(REPO_ROOT)})"
                )


def check_code_citations():
    """Yield error strings for ``*.md`` paths cited in code that name no
    existing file."""
    for top in CODE_DIRS:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for cited in _MD_CITE_RE.findall(line):
                    if not any(
                        (base / cited).exists()
                        for base in (REPO_ROOT, path.parent)
                    ):
                        yield (
                            f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                            f"cites {cited}, which does not exist"
                        )


def bash_blocks(path: pathlib.Path):
    """Yield each fenced ``bash``/``sh``/``console`` block's text."""
    block, lang, in_fence = [], "", False
    for line in path.read_text().splitlines():
        match = _FENCE_RE.match(line)
        if match:
            if in_fence:
                if lang in ("bash", "sh", "shell", "console"):
                    yield "\n".join(block)
                block, in_fence = [], False
            else:
                lang, in_fence = match.group(1), True
            continue
        if in_fence:
            block.append(line)


def cli_option_strings():
    """Every ``--flag`` the live CLI documents, across all subcommands
    (hidden flags — ``help=argparse.SUPPRESS`` — are left out)."""
    import argparse

    from repro.cli import build_parser

    flags = set()
    stack = [build_parser()]
    while stack:
        parser = stack.pop()
        for action in parser._actions:
            if action.help != argparse.SUPPRESS:
                flags.update(
                    s for s in action.option_strings if s.startswith("--")
                )
            choices = getattr(action, "choices", None)
            if isinstance(choices, dict):  # a subparsers action
                stack.extend(
                    c for c in choices.values() if hasattr(c, "_actions")
                )
    return flags


def repro_commands(block: str):
    """The ``repro`` CLI invocations in one bash block, with backslash
    continuations joined (``$`` prompts stripped)."""
    joined = re.sub(r"\\\n\s*", " ", block)
    for line in joined.splitlines():
        command = line.strip().lstrip("$").strip()
        if re.search(r"(^|\s)(python\s+-m\s+)?repro(\s|$)", command):
            yield command


def main() -> int:
    errors = []
    known_flags = cli_option_strings()
    if not known_flags:
        print("FAIL: could not harvest any CLI option strings")
        return 1
    files = doc_files()
    commands_checked = 0
    errors.extend(check_code_citations())
    for path in files:
        errors.extend(check_links(path))
        for block in bash_blocks(path):
            for command in repro_commands(block):
                commands_checked += 1
                for flag in _FLAG_RE.findall(command):
                    if flag not in known_flags:
                        errors.append(
                            f"{path.relative_to(REPO_ROOT)}: bash block "
                            f"uses unknown CLI flag {flag} in: {command}"
                        )
    if errors:
        for error in errors:
            print(f"FAIL: {error}")
        return 1
    print(
        f"OK: {len(files)} doc file(s) checked — links resolve, "
        f"{commands_checked} repro command(s) use only real CLI flags "
        f"({len(known_flags)} known); every doc cited in "
        f"{'/, '.join(CODE_DIRS)}/ exists"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check relative markdown links (and their #anchors) in the docs tree.

Scans README.md and docs/**/*.md for inline links, resolves relative targets
against the linking file, and fails when a target file — or a heading
anchor within it — does not exist.  External (http/mailto) links are not
fetched: CI must not flake on the network.  Stdlib only.

Usage: python scripts/check_links.py [root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Inline markdown links, skipping images; code spans are stripped first.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_CODE_RE = re.compile(r"`[^`]*`")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces to dashes."""
    text = _CODE_RE.sub(lambda m: m.group(0).strip("`"), heading.strip())
    text = re.sub(r"[^\w\- ]", "", text.lower(), flags=re.UNICODE)
    return text.replace(" ", "-")


def anchors_in(path: Path, cache: dict[Path, set[str]]) -> set[str]:
    if path not in cache:
        text = path.read_text(encoding="utf-8")
        slugs: set[str] = set()
        seen: dict[str, int] = {}
        for match in _HEADING_RE.finditer(text):
            slug = github_slug(match.group(1))
            n = seen.get(slug, 0)
            seen[slug] = n + 1
            slugs.add(slug if n == 0 else f"{slug}-{n}")
        # Explicit <a name="..."> anchors also resolve.
        slugs.update(re.findall(r"<a\s+(?:name|id)=\"([^\"]+)\"", text))
        cache[path] = slugs
    return cache[path]


def check(root: Path) -> list[str]:
    sources = [root / "README.md", *sorted((root / "docs").rglob("*.md"))]
    errors: list[str] = []
    cache: dict[Path, set[str]] = {}
    for source in sources:
        if not source.is_file():
            continue
        body = _CODE_RE.sub("", source.read_text(encoding="utf-8"))
        for lineno, line in enumerate(body.splitlines(), 1):
            for match in _LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                where = f"{source.relative_to(root)}:{lineno}"
                path_part, _, anchor = target.partition("#")
                dest = (
                    source if not path_part else (source.parent / path_part).resolve()
                )
                if not dest.exists():
                    errors.append(f"{where}: broken link {target!r} (no such file)")
                    continue
                if anchor and dest.suffix == ".md":
                    if anchor not in anchors_in(dest, cache):
                        errors.append(
                            f"{where}: broken anchor {target!r} "
                            f"(no heading slugs to #{anchor})"
                        )
    return errors


def main() -> int:
    default_root = Path(__file__).resolve().parents[1]
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else default_root
    errors = check(root)
    for error in errors:
        print(error, file=sys.stderr)
    sources = [root / "README.md", *sorted((root / "docs").rglob("*.md"))]
    checked = sum(1 for p in sources if p.is_file())
    print(f"checked {checked} file(s): {len(errors)} broken link(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

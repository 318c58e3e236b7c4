#!/usr/bin/env python3
"""Documentation checker for README.md and docs/*.md (stdlib only).

Checks every inline Markdown link (``[text](target)``) in the tracked
documentation set:

* **relative file links** must point at an existing file or directory
  (resolved from the linking file's own directory);
* **anchor fragments** (``file.md#section`` or ``#section``) must match
  a heading in the target file, using GitHub's slug rules (lowercase,
  spaces to hyphens, punctuation stripped);
* **external links** (http/https/mailto) are recognised but not
  fetched -- CI must not depend on the network.

It also checks that every E17 figure ``docs/performance.md`` quotes
(the vector-DES throughput ratios and tick costs) matches the
committed ``benchmarks/BENCH_sim.json`` it was read from, so a bench
rerun that moves a figure fails here until the prose follows.

Exit code 0 when every link resolves and every figure matches, 1
otherwise (one line per problem).  Run from the repository root::

    python scripts/check_docs.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` -- target captured up to the closing paren.
#: Images (``![alt](...)``) are matched by the same pattern and
#: checked the same way.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
_INLINE_CODE = re.compile(r"`[^`\n]+`")
_EXTERNAL = ("http://", "https://", "mailto:")


def doc_files() -> list[Path]:
    """The documentation set: README.md plus every docs/*.md."""
    return [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug (ASCII subset).

    Lowercase, strip everything but word characters, spaces and
    hyphens, then turn spaces into hyphens.  Inline code and link
    syntax inside the heading contribute their text only.
    """
    text = _INLINE_CODE.sub(lambda m: m.group(0).strip("`"), heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    """Every anchor a Markdown file exposes (headings, slugged)."""
    text = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for match in _HEADING.finditer(text):
        slug = github_slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_file(path: Path) -> list[str]:
    """Return one error string per broken link in ``path``."""
    errors: list[str] = []
    text = _CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL):
            continue
        base, _, fragment = target.partition("#")
        rel = path.relative_to(ROOT)
        if base:
            dest = (path.parent / base).resolve()
            if not dest.exists():
                errors.append(f"{rel}: broken link -> {target}")
                continue
        else:
            dest = path
        if fragment:
            if dest.is_dir() or dest.suffix.lower() not in (".md", ""):
                continue
            if dest.suffix.lower() == ".md" and \
                    fragment not in anchors_of(dest):
                errors.append(f"{rel}: missing anchor -> {target}")
    return errors


def e17_figures(bench: dict) -> list[tuple[str, list[str]]]:
    """Each E17 sentence of docs/performance.md as a pattern (a space
    matches any whitespace run) with one group per figure, and the
    figures ``BENCH_sim.json`` says it must quote."""
    corpus, scaling, packed = (bench["corpus"], bench["scaling"],
                               bench["packed"])
    combos = [combo["throughput_x"] for combo in corpus["combos"].values()]
    widths = scaling["widths"]
    ratio = packed["throughput_x"]
    tick_us = packed["us_per_tick"]
    return [
        (r"\*\*([\d.]+)x replication throughput\*\*",
         [f"{corpus['throughput_x']:.2f}"]),
        (r"([\d.]+)–([\d.]+)x per combination",
         [f"{min(combos):.2f}", f"{max(combos):.2f}"]),
        (r"\(([\d.]+)x at 32 reps → ([\d.]+)x at 512",
         [f"{widths['32']['throughput_x']:.2f}",
          f"{widths['512']['throughput_x']:.2f}"]),
        (r"at a median \*\*([\d.]+)x\*\*", [f"{ratio['median']:.2f}"]),
        (r"\(([\d.]+)–([\d.]+)x over five alternating pairs",
         [f"{ratio['min']:.2f}", f"{ratio['max']:.2f}"]),
        (r"takes ([\d,]+) ticks at a median ([\d.]+) µs per tick",
         [f"{packed['ticks']:,}", f"{tick_us['median']:.0f}"]),
        (r"([\d.]+) µs per tick at 32 lanes and ([\d.]+) µs at 512",
         [f"{widths['32']['us_per_tick']:.0f}",
          f"{widths['512']['us_per_tick']:.0f}"]),
    ]


def check_figures(path: Path, bench_path: Path) -> list[str]:
    """Return one error string per E17 figure in ``path`` that is
    missing or differs from ``bench_path``."""
    rel = path.relative_to(ROOT)
    text = path.read_text(encoding="utf-8")
    errors: list[str] = []
    for pattern, expected in e17_figures(json.loads(bench_path.read_text())):
        match = re.search(pattern.replace(" ", r"\s+"), text)
        if match is None:
            errors.append(f"{rel}: E17 figure missing -> /{pattern}/ "
                          f"(expected {', '.join(expected)})")
        elif list(match.groups()) != expected:
            errors.append(f"{rel}: E17 figure drifted -> quotes "
                          f"{', '.join(match.groups())}, "
                          f"{bench_path.name} gives {', '.join(expected)}")
    return errors


def main() -> int:
    """Check the documentation set; print failures; return exit code."""
    errors: list[str] = []
    for path in doc_files():
        errors.extend(check_file(path))
    links = len(errors)
    errors.extend(check_figures(ROOT / "docs" / "performance.md",
                                ROOT / "benchmarks" / "BENCH_sim.json"))
    for line in errors:
        print(line)
    checked = len(doc_files())
    if errors:
        print(f"check_docs: {links} broken link(s) and "
              f"{len(errors) - links} drifted figure(s) "
              f"across {checked} files")
        return 1
    print(f"check_docs: all links and E17 figures ok across "
          f"{checked} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

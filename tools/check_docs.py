#!/usr/bin/env python3
"""Validate intra-repo markdown links, docs reachability, code symbols and
documented paths.

Four checks. The first two run over every *.md file in the repository:

1. **Link resolution** — every relative (intra-repo) markdown link must
   point at a file or directory that exists. External links (http/https/
   mailto) and pure in-page anchors (#section) are ignored; a relative
   link's "#fragment" suffix is stripped before the existence check.

2. **Docs reachability** — every page under docs/ must be reachable
   from README.md by following intra-repo markdown links. A docs page
   nobody links to is dead weight: either link it from the docs map in
   README.md (directly or via another reachable page) or delete it.

3. **Code symbols** - in README.md and docs/*.md, every backticked
   `Type::member` reference (a CamelCase type, so `std::` and other
   namespaces are skipped) must name identifiers that both occur in the
   tracked C++/Python sources (`git ls-files`). A struct or member that
   was renamed or deleted leaves its reference unresolved.

4. **Repository paths** - in README.md and docs/*.md, every backticked
   path under src/, tests/, tools/, bench/, examples/, docs/ or
   perfbench/ (such as `src/sim/router.hpp`, also inside a longer span
   like `python3 perfbench/run.py`) must exist. A deleted or moved file
   cannot stay documented.

Exit codes:
  0  all links resolve, every docs/*.md page is reachable, and every
     Type::member reference and repository path resolves
  1  at least one broken link, unreachable docs page, unresolved
     reference or missing path (each problem is printed with its file
     and line number)

No dependencies beyond the Python standard library and git; CI runs it
without building anything (the "doc-check" job in
.github/workflows/ci.yml).
"""

import os
import re
import subprocess
import sys

#: Inline markdown links: [text](target). Images ![alt](target) match
#: too via the optional bang. Targets containing spaces or parentheses
#: are not used in this repo, so the simple no-close-paren class is
#: enough - tighten here if that ever changes.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: Schemes that mark a link as external (never checked on disk).
EXTERNAL_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")

#: Directories never scanned for markdown (build trees, VCS internals).
SKIP_DIRS = {".git", "build", ".github"}

#: Fenced code blocks and inline code spans.
FENCE_RE = re.compile(r"^(```|~~~).*?^\1\s*$", re.DOTALL | re.MULTILINE)
INLINE_CODE_RE = re.compile(r"`[^`\n]*`")

#: A qualified C++ name inside inline code: Type::member.
SYMBOL_RE = re.compile(r"\b([A-Z]\w*)::([A-Za-z_]\w*)")

#: A repository path inside inline code, under one of the source trees.
PATH_RE = re.compile(r"(?<![\w./-])(?:src|tests|tools|bench|examples|docs|"
                     r"perfbench)/[\w./-]*")

#: Sources whose identifiers the documented symbols must name.
SOURCE_PATTERNS = ("*.cpp", "*.hpp", "*.h", "*.py")


def find_markdown_files(root):
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in SKIP_DIRS and not d.startswith("build")]
        for name in filenames:
            if name.endswith(".md"):
                found.append(os.path.relpath(os.path.join(dirpath, name),
                                             root))
    return sorted(found)


def blank(match):
    """A match's text with every character but newlines blanked."""
    return re.sub(r"[^\n]", " ", match.group(0))


def strip_code(text):
    """Blanks out fenced and inline code so example links are not checked.

    Line structure is preserved (newlines survive) so reported line
    numbers stay correct.
    """
    return INLINE_CODE_RE.sub(blank, FENCE_RE.sub(blank, text))


def inline_code(md_text):
    """Yields (line_number, code) for every inline code span outside
    fenced blocks."""
    lines = FENCE_RE.sub(blank, md_text).splitlines()
    for line_no, line in enumerate(lines, 1):
        for match in INLINE_CODE_RE.finditer(line):
            yield line_no, match.group(0)[1:-1]


def source_identifiers(root):
    """Every identifier occurring in the tracked C++ and Python sources."""
    listed = subprocess.run(["git", "ls-files", *SOURCE_PATTERNS], cwd=root,
                            capture_output=True, text=True, check=True)
    names = set()
    for rel in listed.stdout.splitlines():
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            names.update(re.findall(r"[A-Za-z_]\w*", f.read()))
    return names


def extract_links(md_text):
    """Yields (line_number, raw_target) for every inline link."""
    for line_no, line in enumerate(strip_code(md_text).splitlines(), 1):
        for match in LINK_RE.finditer(line):
            yield line_no, match.group(1)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    md_files = find_markdown_files(root)
    if "README.md" not in md_files:
        print("error: no README.md at the repository root", file=sys.stderr)
        return 1

    problems = []
    # md file -> set of md files it links to (for the reachability walk).
    md_links = {path: set() for path in md_files}

    for path in md_files:
        with open(os.path.join(root, path), encoding="utf-8") as f:
            text = f.read()
        base_dir = os.path.dirname(path)
        for line_no, target in extract_links(text):
            if EXTERNAL_RE.match(target) or target.startswith("#"):
                continue
            rel = os.path.normpath(
                os.path.join(base_dir, target.split("#", 1)[0]))
            if rel.startswith(".."):
                problems.append(f"{path}:{line_no}: link escapes the "
                                f"repository: {target}")
                continue
            if not os.path.exists(os.path.join(root, rel)):
                problems.append(f"{path}:{line_no}: broken link: {target} "
                                f"(resolved to {rel})")
                continue
            if rel in md_links:
                md_links[path].add(rel)

    # Breadth-first walk of the markdown link graph from README.md.
    reachable = set()
    frontier = ["README.md"]
    while frontier:
        page = frontier.pop()
        if page in reachable:
            continue
        reachable.add(page)
        frontier.extend(md_links.get(page, ()))

    for path in md_files:
        if path.startswith("docs" + os.sep) and path not in reachable:
            problems.append(f"{path}: not reachable from README.md via "
                            f"markdown links - add it to the docs map")

    identifiers = source_identifiers(root)
    symbols = 0
    paths = 0
    for path in md_files:
        if path != "README.md" and not path.startswith("docs" + os.sep):
            continue
        with open(os.path.join(root, path), encoding="utf-8") as f:
            text = f.read()
        for line_no, code in inline_code(text):
            for match in SYMBOL_RE.finditer(code):
                symbols += 1
                missing = [name for name in match.groups()
                           if name not in identifiers]
                if missing:
                    problems.append(
                        f"{path}:{line_no}: `{match.group(0)}` names "
                        f"{', '.join(missing)}, found in no tracked "
                        f"C++/Python source")
            for match in PATH_RE.finditer(code):
                paths += 1
                if not os.path.exists(os.path.join(root, match.group(0))):
                    problems.append(f"{path}:{line_no}: `{match.group(0)}` "
                                    f"does not exist in the repository")

    if problems:
        print(f"{len(problems)} documentation problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    docs_pages = sum(1 for p in md_files if p.startswith("docs" + os.sep))
    print(f"doc-check: {len(md_files)} markdown files, all intra-repo "
          f"links resolve, {docs_pages} docs pages reachable from "
          f"README.md, {symbols} Type::member references and {paths} "
          f"repository paths resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Keep the documentation honest: dead links and CLI drift fail CI.

Two checks, both run by the CI `docs` job:

1. Markdown link check — every relative link in README.md, ROADMAP.md,
   and docs/*.md must point at a file (or file#anchor whose file) that
   exists in the repo. External http(s)/mailto links are not fetched.

2. CLI drift check — docs/CLI.md is compared against the live `--help`
   output of ssresf, in both directions: a flag the binary advertises but
   the page never mentions is missing documentation; a flag the page
   mentions but the binary does not advertise is stale documentation.
   Either direction fails.

Usage: check_docs.py [--repo-root DIR] [--ssresf BIN] [--skip-cli]

--skip-cli runs only the link check (for doc edits without a build).
"""

import argparse
import pathlib
import re
import subprocess
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")


def check_links(root):
    """Returns a list of 'file: broken link' strings."""
    pages = [root / "README.md", root / "ROADMAP.md"]
    pages += sorted((root / "docs").glob("*.md"))
    failures = []
    for page in pages:
        if not page.exists():
            failures.append(f"{page}: page listed for checking does not exist")
            continue
        text = page.read_text(encoding="utf-8")
        # Fenced code blocks routinely contain array-index or shell text
        # that parses like a markdown link; links don't belong there anyway.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure same-page anchor: #section
                continue
            resolved = (page.parent / path).resolve()
            if not resolved.exists():
                failures.append(f"{page.relative_to(root)}: broken link "
                                f"'{target}'")
    return failures


def help_flags(binary):
    """Flags advertised by `binary --help` (it exits non-zero on some CLIs;
    only the text matters)."""
    proc = subprocess.run([binary, "--help"], capture_output=True, text=True)
    text = proc.stdout + proc.stderr
    if "usage:" not in text:
        raise RuntimeError(f"{binary} --help produced no usage text")
    return set(FLAG_RE.findall(text))


def check_cli(root, binary):
    page = root / "docs" / "CLI.md"
    documented = set(FLAG_RE.findall(page.read_text(encoding="utf-8")))
    # The CLI accepts --help without listing it in its usage text.
    advertised = {"--help"} | help_flags(binary)
    failures = []
    for flag in sorted(advertised - documented):
        failures.append(f"docs/CLI.md: flag {flag} is in --help but "
                        "undocumented")
    for flag in sorted(documented - advertised):
        failures.append(f"docs/CLI.md: flag {flag} is documented but "
                        "--help does not advertise it (stale)")
    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repo-root", default=".")
    parser.add_argument("--ssresf", default="build/ssresf")
    parser.add_argument("--skip-cli", action="store_true",
                        help="only run the link check")
    args = parser.parse_args()
    root = pathlib.Path(args.repo_root).resolve()

    failures = check_links(root)
    if not args.skip_cli:
        failures += check_cli(root, args.ssresf)

    if failures:
        print("FAIL: documentation checks:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("OK: links resolve and docs/CLI.md matches --help")
    return 0


if __name__ == "__main__":
    sys.exit(main())

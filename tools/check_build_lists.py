#!/usr/bin/env python3
"""Checks that the test and bench CMake lists match the sources on disk.

Every tests/*_test.cpp needs a `bwaver_test(<name>)` entry in
tests/CMakeLists.txt, every bench/*.cpp a `bwaver_bench(<name>)` or
`add_executable(<name> ...)` entry in bench/CMakeLists.txt, and every entry
must name a file that exists. A forgotten source then fails loudly instead
of silently never building, and a deleted one cannot leave a dangling entry.

Usage: python3 tools/check_build_lists.py [REPO_ROOT]
Exits 1 and lists every mismatch when the lists and the tree disagree.
"""
import re
import sys
from pathlib import Path


def entries(cmake_text, functions):
    """(function, target, sources) for each call of one of `functions`."""
    found = []
    pattern = r"\b(" + "|".join(functions) + r")\(\s*([^)]*)\)"
    for match in re.finditer(pattern, cmake_text):
        words = match.group(2).split()
        if not words:
            continue
        target, rest = words[0], words[1:]
        if "${" in target:
            continue  # the helper functions' own definitions
        if match.group(1) == "add_executable":
            sources = [w for w in rest if w.endswith(".cpp")]
        else:
            sources = [target + ".cpp"]
        found.append((match.group(1), target, sources))
    return found


def check_dir(directory, glob, functions):
    problems = []
    listed = entries((directory / "CMakeLists.txt").read_text(), functions)
    listed_sources = set()
    for function, target, sources in listed:
        for source in sources:
            listed_sources.add(source)
            if not (directory / source).is_file():
                problems.append(
                    f"{directory.name}/CMakeLists.txt: {function}({target}) "
                    f"names missing file {directory.name}/{source}")
    for path in sorted(directory.glob(glob)):
        if path.name not in listed_sources:
            problems.append(f"{directory.name}/{path.name} has no "
                            f"{' / '.join(functions)} entry")
    return problems


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    problems = check_dir(root / "tests", "*_test.cpp", ["bwaver_test"])
    problems += check_dir(root / "bench", "*.cpp", ["bwaver_bench", "add_executable"])
    for problem in problems:
        print(f"error: {problem}")
    if problems:
        return 1
    print("build lists match the test and bench sources")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

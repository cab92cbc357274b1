#!/usr/bin/env python3
"""Find `mv::` functions that the simulator's libraries define and no binary links.

Build every target of each analysis tree with

    -O0 -fno-inline -fkeep-inline-functions -ffunction-sections -fdata-sections

(so every function, header-inline ones included, gets its own section in the
libraries) and link under -Wl,--gc-sections (so each binary keeps only what
it reaches). A function in a `libmv_*.a` that no executable of any given tree
keeps is never linked; one that only executables under a `tests/` directory
keep is test-only. Run from the repository root:

    tools/unlinked_functions.py BUILD_DIR [BUILD_DIR ...]

It prints both sets and exits 1 when a never-linked function is missing from
tools/unlinked_functions.allow, or when an entry there no longer names one.
It needs only `nm` and `c++filt`.
"""

import argparse
import os
import re
import subprocess
import sys

ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "unlinked_functions.allow")

# A function or member declared in namespace mv itself (not a local entity
# such as a lambda's call operator, which is mangled `_ZZ...`).
MV_MANGLED = re.compile(r"^_ZN[VKRO]*2mv")
CTOR_DTOR = re.compile(r"^(?P<cls>.*)::(?P<tilde>~?)(?P<name>\w+)\((?P<args>.*)\)$")
ASSIGN = re.compile(r"^(?P<cls>.*)::operator=\((?P<args>.*)\)$")


def is_elf_executable(path):
    """True for a linked ELF image (ET_EXEC or ET_DYN), not an object file."""
    if not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        header = f.read(18)
    return (len(header) == 18 and header[:4] == b"\x7fELF"
            and header[16] in (2, 3))


def scan(build_dirs):
    """Returns (libraries, binaries); each binary is (path, is_test)."""
    libraries, binaries = [], []
    for build in build_dirs:
        for root, dirs, files in os.walk(build):
            dirs[:] = [d for d in dirs if d != "CMakeFiles"]
            rel = os.path.relpath(root, build).split(os.sep)
            for name in files:
                path = os.path.join(root, name)
                if name.startswith("libmv_") and name.endswith(".a"):
                    libraries.append(path)
                elif is_elf_executable(path):
                    binaries.append((path, "tests" in rel))
    return libraries, binaries


def text_symbols(path):
    """Mangled names of the text symbols `path` defines."""
    out = subprocess.run(["nm", "--defined-only", "--format=posix",
                          "--no-demangle", path],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1] in ("T", "t", "W", "w"):
            names.add(parts[0])
    return names


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         check=True, capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def compiler_generatable(name):
    """A special member whose signature the compiler can generate: default,
    copy and move constructors, the destructor, and copy and move assignment.
    nm cannot tell a written one from a generated one, so all are skipped."""
    m = CTOR_DTOR.match(name)
    if m and re.sub(r"<.*>$", "", m["cls"]).endswith("::" + m["name"]):
        cls = m["cls"]
        return m["tilde"] == "~" or m["args"] in ("", cls + " const&",
                                                 cls + "&&")
    m = ASSIGN.match(name)
    return bool(m) and m["args"] in (m["cls"] + " const&", m["cls"] + "&&")


def user_named(name):
    return ("{lambda(" not in name and "{unnamed type#" not in name
            and not compiler_generatable(name))


def read_allowlist(path):
    """Maps each allowlisted demangled name to its reason."""
    allowed = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition("  # ")
            if not sep or not reason.strip():
                sys.exit(f"{path}:{lineno}: entry gives no reason "
                         "('<function>  # <reason>')")
            allowed[name.strip()] = reason.strip()
    return allowed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dirs", nargs="+")
    args = parser.parse_args()

    libraries, binaries = scan(args.build_dirs)
    if not libraries or not binaries:
        sys.exit("no libmv_*.a or no executables under "
                 + " ".join(args.build_dirs))

    defined = set()
    for lib in libraries:
        defined |= {s for s in text_symbols(lib) if MV_MANGLED.match(s)}
    in_products, in_tests = set(), set()
    for path, is_test in binaries:
        (in_tests if is_test else in_products).update(text_symbols(path))

    names = demangle(defined)
    never = sorted({names[s] for s in defined - in_products - in_tests
                    if user_named(names[s])})
    test_only = sorted({names[s] for s in (defined & in_tests) - in_products
                        if user_named(names[s])})
    allowed = read_allowlist(ALLOWLIST)

    print(f"{len(libraries)} libraries, {len(binaries)} binaries "
          f"({sum(t for _, t in binaries)} tests)")
    print(f"\nlinked only by tests ({len(test_only)}):")
    for name in test_only:
        print(f"  {name}")
    print(f"\nlinked by no binary ({len(never)}):")
    for name in never:
        reason = allowed.get(name)
        print(f"  {name}" + (f"  [allowed: {reason}]" if reason else ""))

    unexpected = [n for n in never if n not in allowed]
    stale = sorted(set(allowed) - set(never))
    for name in unexpected:
        print(f"error: {name} is linked by no binary; delete it, or "
              "allowlist it with a reason", file=sys.stderr)
    for name in stale:
        print(f"error: allowlist entry {name} names no unlinked function; "
              "remove it", file=sys.stderr)
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())

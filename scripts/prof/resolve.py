#!/usr/bin/env python3
"""Turns a sigprof.c sample file into a flat self-time profile.

usage: resolve.py <samples> [top_n]

Each sample is attributed to the mapped file it fell in and, through
`nm`, to the nearest symbol below it. Prints the top-N symbols and the
share of samples per mapped file, with libc's allocator split out.
"""
import bisect
import collections
import os
import re
import subprocess
import sys

# Exported names of glibc's malloc.c. A stripped libc names only its
# exports: its static functions (_int_malloc, _int_free, malloc_consolidate,
# the mem*/str* kernels) fall in the gaps between them and are reported as
# "(static code before <next export>)" — for the allocator's that is
# __default_morecore and __libc_malloc, which this pattern also matches.
ALLOCATOR = re.compile(r"^(__libc_|__default_)?(malloc|calloc|realloc|free|cfree|memalign|morecore)(_\w+)?$")


def symbols(path):
    """Sorted (address, end, name) text symbols of an ELF file, static and dynamic."""
    table = {}
    for flags in (["-n", "-S", "--defined-only", "-C"], ["-n", "-S", "--defined-only", "-C", "-D"]):
        try:
            out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
        except OSError:
            return []
        for line in out.splitlines():
            parts = line.split(None, 3)
            if len(parts) == 4 and parts[2] in "tTwWiI":
                addr, size = int(parts[0], 16), int(parts[1], 16)
                name = re.sub(r"::h[0-9a-f]{16}$", "", parts[3]).split("@")[0]
                table.setdefault(addr, (addr + size, name))
    return [(addr, end, name) for addr, (end, name) in sorted(table.items())]


def resolve(table, addr):
    """Name of the symbol covering `addr`, or of the gap it falls in."""
    at = bisect.bisect_right(table, (addr, float("inf"), "")) - 1
    if at >= 0 and addr < table[at][1]:
        return table[at][2], table[at][2]
    following = table[at + 1][2] if at + 1 < len(table) else "end"
    return f"(static code before {following})", following


def main():
    samples_path = sys.argv[1]
    top_n = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    maps, pcs = [], []
    for line in open(samples_path):
        if line.startswith("M "):
            fields = line[2:].split()
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, fields[1], fields[5] if len(fields) > 5 else "[anon]"))
        elif line.startswith("S "):
            pcs.append(int(line[2:], 16))
    if not pcs:
        sys.exit("no samples (did the program run long enough to tick?)")
    # Load bias of each file: its lowest mapping (position-independent
    # executables and shared objects link at address 0).
    base = {}
    for start, _, _, path in maps:
        base[path] = min(start, base.get(path, start))
    text = [(s, e, p) for s, e, perms, p in maps if "x" in perms]
    tables = {}
    by_symbol, by_file = collections.Counter(), collections.Counter()
    allocator = 0
    for pc in pcs:
        path = next((p for s, e, p in text if s <= pc < e), "[unmapped]")
        by_file[path] += 1
        name = owner = "?"
        if path.startswith("/"):
            if path not in tables:
                tables[path] = symbols(path)
            if tables[path]:
                name, owner = resolve(tables[path], pc - base[path])
        if "libc" in os.path.basename(path) and ALLOCATOR.match(owner):
            allocator += 1
        by_symbol[(os.path.basename(path), name)] += 1
    total = len(pcs)
    print(f"{total} samples")
    print(f"\n{'self %':>7} {'samples':>8}  symbol")
    for (file, name), n in by_symbol.most_common(top_n):
        print(f"{100 * n / total:7.2f} {n:8d}  {name}  [{file}]")
    print(f"\n{'share %':>7} {'samples':>8}  mapped file")
    for path, n in by_file.most_common():
        print(f"{100 * n / total:7.2f} {n:8d}  {path}")
    libc = sum(n for p, n in by_file.items() if "libc" in os.path.basename(p))
    print(f"\nlibc {100 * libc / total:.1f} % of all samples: allocator (malloc.c) "
          f"{100 * allocator / total:.1f} %, the rest (mem*/str* kernels, mostly) "
          f"{100 * (libc - allocator) / total:.1f} %")


if __name__ == "__main__":
    main()

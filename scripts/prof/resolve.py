#!/usr/bin/env python3
"""Turns a sigprof.c sample file into self-time and caller-attributed profiles,
or a heapprof.c site file into live-heap tables.

usage: [UNDER=<regex>] resolve.py <samples> [top_n]

Each sample is a program counter and the call stack above it. Every frame
is attributed to the mapped file it fell in and, through `nm`, to the
nearest symbol below it (a function inlined into its caller counts as the
caller). Prints the top-N symbols by self time and by inclusive time (the
samples with the symbol anywhere on the stack), the share of samples per
mapped file with libc's allocator split out, and — since a stripped libc
cannot say on whose behalf it ran — the first non-libc caller of every
sample that ended in libc (Rust's `raw_vec`/`alloc` plumbing passed over). With UNDER set, only samples with a frame whose
symbol matches the regex are counted: UNDER='host_windows|timed_window'
keeps perfbench's measured windows and drops its set-ups.

A file with `H <bytes> <blocks> <frames>` lines (heapprof.c: what was live
per call site when the heap peaked) is resolved the same way and printed as
MB and blocks by owner — the first frame outside libc, the interposer and
Rust's alloc::/core::/hashbrown:: plumbing — and by the chain of the first
four such frames.
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
# Rust's own allocation plumbing between a libc call and the code that
# wanted the memory: passed over when naming the caller of a libc sample.
PLUMBING = re.compile(r"^(alloc::raw_vec::|alloc::alloc::|__rust_|__rdl_|__rustc)")
# What stands between an allocation and the code that owns the memory in a
# heap profile: the above and every generic container of the standard
# library (`alloc::vec::Vec<T>::push`, `<alloc::… as core::clone::Clone>::clone`,
# `hashbrown::raw::RawTable::reserve_rehash`, ...).
CONTAINERS = re.compile(r"^(<?(alloc|core|hashbrown)::|__rust_|__rdl_|__rustc)")


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


class Resolver:
    """Maps an address to (mapped file, symbol, is-libc, is-allocator), cached."""

    def __init__(self, maps):
        # Load bias of each file: its lowest mapping (position-independent
        # executables and shared objects link at address 0).
        self.base = {}
        for start, _, _, path in maps:
            self.base[path] = min(start, self.base.get(path, start))
        self.text = [(s, e, p) for s, e, perms, p in maps if "x" in perms]
        self.tables, self.cache = {}, {}

    def path_of(self, addr):
        return next((p for s, e, p in self.text if s <= addr < e), "[unmapped]")

    def frame(self, addr):
        if addr not in self.cache:
            path = self.path_of(addr)
            name = owner = "?"
            if path.startswith("/"):
                if path not in self.tables:
                    self.tables[path] = symbols(path)
                if self.tables[path]:
                    name, owner = resolve(self.tables[path], addr - self.base[path])
            libc = "libc" in os.path.basename(path)
            self.cache[addr] = (path, name, libc, libc and bool(ALLOCATOR.match(owner)))
        return self.cache[addr]


def stack_of(fields):
    """Addresses of one sample, innermost first: the interrupted program
    counter, then return addresses moved back into their call instruction."""
    pc, frames = fields[0], fields[1:]
    # The unwinder starts in the signal handler; the interrupted frame is
    # the one it reports at `pc`.
    above = frames[frames.index(pc) + 1:] if pc in frames else frames[2:]
    return [pc] + [ret - 1 for ret in above]


def table(title, counts, total, top_n):
    print(f"\n{title:>7} {'samples':>8}  symbol")
    for (file, name), n in counts.most_common(top_n):
        print(f"{100 * n / total:7.2f} {n:8d}  {name}  [{os.path.basename(file)}]")


def heap_tables(resolver, sites, peak, top_n):
    """Live bytes and blocks per owner and per four-owner chain."""
    owners, chains = collections.Counter(), collections.Counter()
    blocks = collections.Counter()
    for size, count, stack in sites:
        # Return addresses, moved back into their call instruction.
        frames = [resolver.frame(ret - 1) for ret in stack]
        named = [name for path, name, libc, _ in frames
                 if not libc and "heapprof" not in os.path.basename(path) and not CONTAINERS.match(name)]
        owner = named[0] if named else "(no frame outside libc and the containers)"
        chain = " <- ".join(named[:4]) if named else owner
        owners[owner] += size
        chains[chain] += size
        blocks[owner] += count
        blocks[chain] += count
    total = sum(owners.values())
    print(f"{total / 1e6:.1f} MB live in {sum(count for _, count, _ in sites)} blocks "
          f"at {len(sites)} sites when the heap peaked"
          + (f" (interposer's own count: {peak[0] / 1e6:.1f} MB, {peak[1]} blocks)" if peak else ""))
    for title, counts in (("first frame outside libc, alloc::, core::, hashbrown::", owners),
                          ("chain of four such frames, innermost first", chains)):
        print(f"\n{'MB':>8} {'%':>6} {'blocks':>9}  {title}")
        for name, size in counts.most_common(top_n):
            print(f"{size / 1e6:8.2f} {100 * size / total:6.1f} {blocks[name]:9d}  {name}")


def main():
    samples_path = sys.argv[1]
    top_n = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    under = re.compile(os.environ["UNDER"]) if os.environ.get("UNDER") else None
    maps, stacks, sites, peak = [], [], [], None
    for line in open(samples_path):
        if line.startswith("M "):
            fields = line[2:].split()
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, fields[1], fields[5] if len(fields) > 5 else "[anon]"))
        elif line.startswith("S "):
            stacks.append(stack_of([int(x, 16) for x in line[2:].split()]))
        elif line.startswith("H "):
            fields = line[2:].split()
            sites.append((int(fields[0]), int(fields[1]), [int(x, 16) for x in fields[2:]]))
        elif line.startswith("P "):
            peak = tuple(int(x) for x in line[2:].split())
    if sites:
        heap_tables(Resolver(maps), sites, peak, top_n)
        return
    if not stacks:
        sys.exit("no samples (did the program run long enough to tick?)")
    resolver = Resolver(maps)
    resolved = [[resolver.frame(addr) for addr in stack] for stack in stacks]
    print(f"{len(resolved)} samples")
    if under:
        resolved = [frames for frames in resolved if any(under.search(f[1]) for f in frames)]
        print(f"{len(resolved)} of them under a frame matching /{under.pattern}/; shares are of these")
        if not resolved:
            sys.exit("no sample matches UNDER (was the frame inlined away?)")
    total = len(resolved)

    self_time, inclusive, by_file = collections.Counter(), collections.Counter(), collections.Counter()
    callers, allocator_callers = collections.Counter(), collections.Counter()
    allocator = 0
    for frames in resolved:
        file, name, libc, in_allocator = frames[0]
        self_time[(file, name)] += 1
        by_file[file] += 1
        for key in {(f[0], f[1]) for f in frames}:
            inclusive[key] += 1
        if libc:
            caller = next(((f[0], f[1]) for f in frames if not f[2] and not PLUMBING.match(f[1])),
                          ("?", "(no caller outside libc)"))
            callers[caller] += 1
            if in_allocator:
                allocator += 1
                allocator_callers[caller] += 1
    table("self %", self_time, total, top_n)
    table("incl %", inclusive, total, top_n)
    print(f"\n{'share %':>7} {'samples':>8}  mapped file")
    for file, n in by_file.most_common():
        print(f"{100 * n / total:7.2f} {n:8d}  {file}")
    libc = sum(callers.values())
    print(f"\nlibc {100 * libc / total:.1f} % of these samples: allocator (malloc.c) "
          f"{100 * allocator / total:.1f} %, the rest (mem*/str* kernels, mostly) "
          f"{100 * (libc - allocator) / total:.1f} %")
    print(f"\n{'libc %':>7} {'alloc %':>8}  first caller outside libc")
    for caller, n in callers.most_common(top_n):
        print(f"{100 * n / total:7.2f} {100 * allocator_callers[caller] / total:8.2f}  "
              f"{caller[1]}  [{os.path.basename(caller[0])}]")


if __name__ == "__main__":
    main()

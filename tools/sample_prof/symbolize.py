#!/usr/bin/env python3
"""Symbolizes and merges sample_prof profiles.

  tools/sample_prof/symbolize.py PROFILE [PROFILE ...] [--top N]
      [--focus REGEX]

Each PROFILE is a file written by libsample_prof.so (see README.md).
Every file carries its own process's executable mappings, so runs of
the same binary merge even when their address layouts differ. Each
address is mapped to its module and file offset, then to a virtual
address through the module's ELF program headers, and named by the
nearest preceding text symbol from `nm` (debug info is not needed; an
inlined function is counted in the function it was inlined into).

Prints two tables: "self" counts the sampled function (the leaf of each
stack), "total" counts every function on the stack once per sample.
--focus keeps only the samples whose stack has a function matching
REGEX (for example the set-up phase's entry point).
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess
import sys


def read_profile(path):
    """(maps, samples, dropped) of one profile file."""
    maps, samples, dropped = [], [], 0
    with open(path) as f:
        header = f.readline().split()
        if header[:1] != ["sample_prof"]:
            raise SystemExit("%s: not a sample_prof profile" % path)
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "map":
                start, end, offset, module = rest.split(" ", 3)
                maps.append((int(start, 16), int(end, 16), int(offset, 16), module))
            elif kind == "s":
                samples.append([int(a, 16) for a in rest.split()])
            elif kind == "dropped":
                dropped = int(rest)
    maps.sort()
    return maps, samples, dropped


def load_segments(module):
    """[(p_offset, p_vaddr, p_filesz)] of the PT_LOAD segments of a
    64-bit little-endian ELF file, or [] if it cannot be read."""
    try:
        with open(module, "rb") as f:
            ehdr = f.read(64)
            if ehdr[:4] != b"\x7fELF" or ehdr[4] != 2 or ehdr[5] != 1:
                return []
            phoff, = struct.unpack_from("<Q", ehdr, 0x20)
            phentsize, phnum = struct.unpack_from("<HH", ehdr, 0x36)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def load_symbols(module):
    """Sorted ([address], [(name, size)]) of the text symbols of a
    module, from its symbol table and its dynamic symbol table."""
    found = {}
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(["nm", "-C", "-S", "--defined-only"] + extra + [module],
                                 capture_output=True, text=True).stdout
        except OSError:
            return [], []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in ("T", "t", "W", "w", "i"):
                found.setdefault(int(parts[0], 16), (parts[3], int(parts[1], 16)))
    addresses = sorted(found)
    return addresses, [found[a] for a in addresses]


class Symbolizer:
    def __init__(self):
        self.modules = {}  # path -> (segments, addresses, (name, size)s)
        self.cache = {}

    def name(self, maps, address, leaf):
        # A return address points past its call: look up the call itself.
        lookup = address if leaf else address - 1
        i = bisect.bisect_right(maps, (lookup, float("inf"))) - 1
        if i < 0 or not maps[i][0] <= lookup < maps[i][1]:
            return "[unknown]"
        start, _, offset, module = maps[i]
        file_offset = lookup - start + offset
        key = (module, file_offset)
        if key in self.cache:
            return self.cache[key]
        if module not in self.modules:
            segments = load_segments(module)
            self.modules[module] = (segments,) + load_symbols(module) if segments else None
        entry = self.modules[module]
        short = module.rsplit("/", 1)[-1]
        result = short if short.startswith("[") else "[%s]" % short
        if entry is not None:
            segments, addresses, names = entry
            for p_offset, p_vaddr, p_filesz in segments:
                if p_offset <= file_offset < p_offset + p_filesz:
                    vaddr = file_offset - p_offset + p_vaddr
                    j = bisect.bisect_right(addresses, vaddr) - 1
                    if j >= 0:
                        name, size = names[j]
                        # Past the symbol's end: code with no symbol of
                        # its own, as in a stripped library.
                        fits = vaddr < addresses[j] + size
                        result = name if fits else "%s after %s" % (result, name)
                    break
        self.cache[key] = result
        return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("profiles", nargs="+")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--focus", help="keep samples with a frame matching this regex")
    args = parser.parse_args()

    symbolizer = Symbolizer()
    stacks = collections.Counter()
    dropped = 0
    for path in args.profiles:
        maps, samples, lost = read_profile(path)
        dropped += lost
        for sample in samples:
            names = tuple(symbolizer.name(maps, a, i == 0) for i, a in enumerate(sample))
            stacks[names] += 1

    if args.focus:
        focus = re.compile(args.focus)
        stacks = collections.Counter(
            {s: n for s, n in stacks.items() if any(focus.search(f) for f in s)})
    total = sum(stacks.values())
    if dropped:
        print("warning: %d samples dropped (buffer full)" % dropped, file=sys.stderr)
    if total == 0:
        raise SystemExit("no samples")

    self_counts = collections.Counter()
    total_counts = collections.Counter()
    for stack, n in stacks.items():
        self_counts[stack[0]] += n
        for name in set(stack):
            total_counts[name] += n
    print("%d samples from %d profile(s)%s" % (
        total, len(args.profiles), ", focus %r" % args.focus if args.focus else ""))
    for title, counts in (("self", self_counts), ("total", total_counts)):
        print("\n%7s %6s  %s" % (title, "%", "function"))
        for name, n in counts.most_common(args.top):
            print("%7d %6.2f  %s" % (n, 100.0 * n / total, name))


if __name__ == "__main__":
    main()

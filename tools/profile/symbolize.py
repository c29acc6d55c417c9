#!/usr/bin/env python3
"""Report a sigprof profile: self and inclusive shares per function.

Usage:

    tools/profile/symbolize.py sigprof.<pid>.samples [--entry REGEX]
        [--group NAME=REGEX ...] [--top N]

Reads the samples and the /proc/self/maps copy (sigprof.<pid>.maps) that
tools/profile/sigprof.cc wrote, resolves every address with addr2line
(inlined frames included, so a function inlined into its caller still
counts), and keeps the samples whose stack has a frame matching --entry
(by default the engine's query and point-read entry points). Over those
samples it prints:

  * self share: the sample's innermost frame is the function;
  * inclusive share: some frame of the sample is the function;
  * for each --group, the inclusive share of samples with a frame whose
    name matches the group's regex (a stage such as "the dedupe sets").

A return address is looked up one byte back, inside its call instruction.
In a module without debug information (libc, say) addr2line can only name
the nearest exported symbol before the address, which for an internal
function such as malloc's is the wrong one: such frames read
"symbol [module]", and "[module]+offset" when there is no symbol at all.
"""

import argparse
import array
import bisect
import collections
import os
import re
import subprocess
import sys

DEFAULT_ENTRY = r"SecondaryDB::(Lookup|RangeLookup|Get)\("


def read_samples(path):
    words = array.array("Q")
    with open(path, "rb") as f:
        words.frombytes(f.read())
    samples, i = [], 0
    while i < len(words):
        depth = words[i]
        samples.append(tuple(words[i + 1:i + 1 + depth]))
        i += 1 + depth
    return samples


def read_maps(path):
    """Executable file mappings: (start, end, path, load base, is_pie)."""
    rows = []
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or not parts[5].strip().startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            rows.append((start, end, parts[1], int(parts[2], 16),
                         parts[5].strip()))
    base = {}
    for start, _, _, offset, name in rows:
        if offset == 0 and name not in base:
            base[name] = start
    maps = []
    for start, end, perms, _, name in rows:
        if "x" not in perms or not os.path.exists(name):
            continue
        with open(name, "rb") as f:
            header = f.read(18)
        is_pie = len(header) == 18 and header[16] == 3  # ET_DYN
        maps.append((start, end, name, base.get(name, start), is_pie))
    maps.sort()
    return maps


def has_debug_info(module):
    sections = subprocess.run(["readelf", "-S", "-W", module],
                              capture_output=True, text=True).stdout
    return ".debug_info" in sections


def addr2line(module, addrs):
    """{address: [function, ...]} innermost inlined frame first."""
    out = {}
    addrs = sorted(addrs)
    for i in range(0, len(addrs), 4000):
        chunk = addrs[i:i + 4000]
        text = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", module] +
            ["%x" % a for a in chunk],
            capture_output=True, text=True, check=True).stdout.splitlines()
        current = None
        j = 0
        while j < len(text):
            line = text[j]
            if line.startswith("0x"):
                current = int(line, 16)
                out[current] = []
                j += 1
                continue
            if current is not None and line != "??":
                out[current].append(line)
            j += 2  # Function line, then file:line
    return out


def symbolize(samples, maps):
    """Each sample as a list of function names, innermost first."""
    starts = [m[0] for m in maps]
    located = {}  # pc -> (module, address in the module's ELF)
    for stack in samples:
        for depth, pc in enumerate(stack):
            key = (pc, depth == 0)
            if key in located:
                continue
            look = pc if depth == 0 else pc - 1
            k = bisect.bisect_right(starts, look) - 1
            if k < 0 or look >= maps[k][1]:
                located[key] = None
                continue
            _, _, name, base, is_pie = maps[k]
            located[key] = (name, look - base if is_pie else look)
    per_module = collections.defaultdict(set)
    for loc in located.values():
        if loc is not None:
            per_module[loc[0]].add(loc[1])
    names = {}
    for module, addrs in per_module.items():
        resolved = addr2line(module, addrs)
        short = os.path.basename(module)
        suffix = "" if has_debug_info(module) else " [%s]" % short
        for a in addrs:
            frames = [f + suffix for f in resolved.get(a) or []]
            names[(module, a)] = frames or ["[%s]+0x%x" % (short, a)]
    stacks = []
    for stack in samples:
        frames = []
        for depth, pc in enumerate(stack):
            loc = located[(pc, depth == 0)]
            frames.extend(names[loc] if loc is not None else ["[?]"])
        stacks.append(frames)
    return stacks


def short_name(fn):
    """A demangled name without its parameter list."""
    fn = fn.replace("(anonymous namespace)", "{anonymous}")
    depth = 0
    for i, c in enumerate(fn):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0 and i > 0 and fn[:i].strip() != "operator":
            return fn[:i]
    return fn


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("samples")
    parser.add_argument("--entry", default=DEFAULT_ENTRY)
    parser.add_argument("--group", action="append", default=[])
    parser.add_argument("--top", type=int, default=30)
    args = parser.parse_args()

    maps_path = re.sub(r"\.samples$", ".maps", args.samples)
    samples = read_samples(args.samples)
    stacks = symbolize(samples, read_maps(maps_path))
    entry = re.compile(args.entry)
    kept = [s for s in stacks if any(entry.search(f) for f in s)]
    print("samples %d, under --entry %d (%.1f%%)" %
          (len(stacks), len(kept), 100.0 * len(kept) / max(1, len(stacks))))
    if not kept:
        return 1
    n = float(len(kept))

    self_count = collections.Counter(short_name(s[0]) for s in kept)
    incl_count = collections.Counter()
    for s in kept:
        incl_count.update(set(short_name(f) for f in s))

    for title, counter in (("self", self_count), ("inclusive", incl_count)):
        print("\n%-9s share  function" % title)
        for fn, c in counter.most_common(args.top):
            print("%14.1f%%  %s" % (100.0 * c / n, fn))

    if args.group:
        print("\ngroup      share  regex")
        for spec in args.group:
            name, _, regex = spec.partition("=")
            pattern = re.compile(regex)
            c = sum(1 for s in kept if any(pattern.search(f) for f in s))
            print("%-9s %5.1f%%  %s" % (name, 100.0 * c / n, regex))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Symbolise a prof.so dump and print where the samples are.

Three tables over the stacks that pass the filters, each as a share of them:
  self        the innermost frame (inlined frames count as frames);
  workspace   the innermost frame whose source is under crates/ or benchmark/
              - time in std / alloc / libc charged to the code that called it;
  inclusive   every workspace function on the stack, once per stack.
--only FN   keep stacks with a frame whose name contains FN;
--under FN  keep stacks with such a frame and cut each at its outermost one,
            so shares are of FN's own time (e.g. --under 'Cluster<P>::run').
Only frames of the main executable are symbolised (addr2line -a -f -C -i);
anything else shows as [library+offset].
"""
import argparse
import collections
import os
import subprocess
import sys


def parse(path):
    maps, stacks, dropped = [], [], 0
    with open(path) as f:
        for line in f:
            tag, _, rest = line.partition(" ")
            if tag == "map":
                cols = rest.split()
                lo, hi = (int(x, 16) for x in cols[0].split("-"))
                maps.append((lo, hi, int(cols[2], 16), cols[5] if len(cols) > 5 else ""))
            elif tag == "stack":
                stacks.append([int(x, 16) for x in rest.split()])
            elif tag == "dropped":
                dropped = int(rest)
    return maps, stacks, dropped


def symbolise(exe, vaddrs):
    """vaddr -> [(function, file), ...], innermost inlined frame first."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", exe],
        input="\n".join(hex(a) for a in vaddrs),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    table, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = table.setdefault(int(out[i], 16), [])
            i += 1
        else:
            cur.append((out[i], out[i + 1].split(":")[0]))
            i += 2
    return table


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dump")
    ap.add_argument("--only", metavar="FN")
    ap.add_argument("--under", metavar="FN")
    ap.add_argument("--top", type=int, default=10, metavar="N")
    args = ap.parse_args()

    maps, stacks, dropped = parse(args.dump)
    exe = next(path for *_, path in maps if path.startswith("/") and os.access(path, os.X_OK))
    base = min(lo for lo, _, off, path in maps if path == exe and off == 0)

    def locate(addr):
        for lo, hi, _, path in maps:
            if lo <= addr < hi:
                return path, addr - (base if path == exe else lo)
        return "?", addr

    # backtrace() from a handler: [handler, signal trampoline, interrupted pc,
    # return addresses...]. A return address points past its call: back up one.
    located = []
    for stack in stacks:
        frames = [locate(a - (1 if depth else 0)) for depth, a in enumerate(stack[2:])]
        located.append(frames)
    table = symbolise(exe, sorted({v for fr in located for p, v in fr if p == exe}))

    def names(frames):
        """[(function, file)] innermost first, inlined frames expanded."""
        out = []
        for path, v in frames:
            if path == exe and table.get(v):
                out.extend(table[v])
            else:
                out.append((f"[{os.path.basename(path)}+{v:#x}]", ""))
        return out

    kept = []
    for frames in located:
        st = names(frames)
        if args.only and not any(args.only in fn for fn, _ in st):
            continue
        if args.under:
            hits = [i for i, (fn, _) in enumerate(st) if args.under in fn]
            if not hits:
                continue
            st = st[: hits[-1] + 1]
        kept.append(st)

    total = len(kept)
    print(f"{len(stacks)} samples ({dropped} dropped), {total} kept, exe {exe}")
    if not total:
        return 1
    own = lambda f: "/crates/" in f or "/benchmark/" in f
    self_, work, incl = (collections.Counter() for _ in range(3))
    for st in kept:
        self_[st[0][0]] += 1
        work[next((fn for fn, f in st if own(f)), "[none]")] += 1
        incl.update({fn for fn, f in st if own(f)})
    for title, counter in (("self", self_), ("workspace", work), ("inclusive", incl)):
        print(f"\n{title}")
        for fn, n in counter.most_common(args.top):
            print(f"  {100 * n / total:5.1f}%  {fn}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `report.py ... | head`: the reader has what it wanted. Point stdout
        # at /dev/null so the interpreter's exit flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)

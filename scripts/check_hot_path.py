#!/usr/bin/env python3
"""Check that the ring engine's common path makes no out-of-line hook calls.

An idle ring op (nothing recording, nothing sampled) must run its
observability hooks inline: each is a thread-local load or a relaxed global
load and a predictable branch (DESIGN.md §10, "The per-thread block"). This
script disassembles a Release build (`objdump -d -C`) and inspects
`BoundedRing<...>::push_one` and `pop_one` for Algorithm 2
(`CasSlotPolicy`) and Algorithm 1 (`LlscSlotPolicy<..., PackedLlsc>`), the
op bodies they dispatch to (`pop_idle`, `push_sampled`, `pop_sampled`),
`ScqQueue<...>::push_one` and `pop_one`, all with the `NullBackoff`
contention policy, and all their compiler clones (`[clone .cold]`, `.isra`,
...). It fails when one of them calls an idle hook:

  on_cas  on_faa  on_slot_sc  on_help_advance  arm_sample  record_trace
  count_ring_event  finish_op  stripe_ordinal  reregister
  QueueMetrics::inc  TLS init/wrapper functions

Calls to the hooks' cold halves (stats::detail::record_cas,
write_trace_record, ...) are allowed: they sit behind the inline gates. The script also fails when one of the six (queue, op) pairs
is missing from the binary, so a rename cannot turn the guard into a no-op.

usage: check_hot_path.py BINARY [--objdump PATH]
       check_hot_path.py --disassembly FILE   (saved `objdump -d -C` text)
Exit status: 0 clean, 1 a hook call was found, 2 nothing to check / error.
"""

import argparse
import re
import subprocess
import sys

# Checked queue -> (class template prefix, extra test on the qualified name).
QUEUES = {
    "CasSlotPolicy": ("evq::BoundedRing<", lambda name: "CasSlotPolicy<" in name),
    "LlscSlotPolicy<PackedLlsc>": ("evq::BoundedRing<", lambda name: "LlscSlotPolicy<" in name
                                   and "PackedLlsc>" in name),
    "ScqQueue": ("evq::ScqQueue<", lambda name: True),
}
OPS = ("push_one", "pop_one")
# The ring op bodies push_one/pop_one dispatch to: checked like them when
# present.
BODIES = ("pop_idle", "push_sampled", "pop_sampled")
# The class's last template argument is the contention policy.
NULL_BACKOFF = re.compile(r",\s*evq::NullBackoff\s*>$")
HOOKS = {"on_cas", "on_faa", "on_slot_sc", "on_help_advance", "arm_sample",
         "record_trace", "count_ring_event", "finish_op", "stripe_ordinal",
         "reregister"}
QUALIFIED_HOOKS = ("QueueMetrics::inc",)

HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")
CALL = re.compile(r"\bcall[a-z]*\s+(?:\*?\S+\s+)?<(.+)>\s*$")


def qualified_name(symbol):
    """`ns::Class<...>::fn(args) [clone .x]` -> `ns::Class<...>::fn`."""
    symbol = symbol.split("@", 1)[0].replace("(anonymous namespace)", "{anon}")
    depth = 0
    for i, ch in enumerate(symbol):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return symbol[:i]
    return symbol


def base_name(qualified):
    """Last `::` component outside template brackets."""
    depth = 0
    start = 0
    i = 0
    while i < len(qualified):
        ch = qualified[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0 and qualified.startswith("::", i):
            start = i + 2
            i += 1
        i += 1
    return qualified[start:]


def is_hook(target):
    if target.startswith(("TLS init function", "TLS wrapper function")):
        return True
    qualified = qualified_name(target)
    # A function template's name carries its arguments (`finish_op<false, ...>`).
    return (base_name(qualified).split("<", 1)[0] in HOOKS
            or qualified.endswith(QUALIFIED_HOOKS))


def classify(symbol):
    """(queue, op) if `symbol` is one of the checked functions, else None."""
    qualified = qualified_name(symbol)
    op = base_name(qualified)
    if op not in OPS + BODIES:
        return None
    if not NULL_BACKOFF.search(qualified[:-len(op) - 2]):
        return None
    for queue, (prefix, matches) in QUEUES.items():
        if qualified.startswith(prefix) and matches(qualified):
            return queue, op
    return None


def label(symbol, key):
    """`CasSlotPolicy push_one [clone .cold]` for a checked symbol."""
    clones = symbol[len(qualified_name(symbol)):].rpartition(")")[2].strip()
    return " ".join(filter(None, (*key, clones)))


def scan(lines):
    """Returns ({(policy, op): [symbol, ...]}, [(label, call target), ...])."""
    found, violations = {}, []
    current = None
    for line in lines:
        line = line.rstrip("\n")
        header = HEADER.match(line)
        if header:
            symbol = header.group(1)
            key = classify(symbol)
            current = label(symbol, key) if key else None
            if key:
                found.setdefault(key, []).append(symbol)
            continue
        if current is None:
            continue
        call = CALL.search(line)
        if call and is_hook(call.group(1)):
            violations.append((current, call.group(1)))
    return found, violations


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("binary", nargs="?", help="Release evq-bench (or any binary)")
    ap.add_argument("--objdump", default="objdump")
    ap.add_argument("--disassembly", help="read saved `objdump -d -C` output instead")
    args = ap.parse_args(argv)
    if args.disassembly:
        try:
            with open(args.disassembly) as f:
                lines = f.readlines()
        except OSError as err:
            print(f"check_hot_path: {err}", file=sys.stderr)
            return 2
    elif args.binary:
        try:
            proc = subprocess.run([args.objdump, "-d", "-C", args.binary],
                                  capture_output=True, text=True)
        except OSError as err:
            print(f"check_hot_path: {err}", file=sys.stderr)
            return 2
        if proc.returncode != 0:
            print(f"check_hot_path: objdump failed: {proc.stderr.strip()}", file=sys.stderr)
            return 2
        lines = proc.stdout.splitlines()
    else:
        ap.error("give a BINARY or --disassembly FILE")

    found, violations = scan(lines)
    missing = [(q, op) for q in QUEUES for op in OPS if (q, op) not in found]
    for (queue, op), symbols in sorted(found.items()):
        print(f"checked {queue} {op}: {len(symbols)} symbol(s)")
    for where, target in violations:
        print(f"HOOK CALL in {where} -> {target}")
    if not found:
        print("check_hot_path: none of the checked functions is in the binary", file=sys.stderr)
        return 2
    if missing:
        for queue, op in missing:
            print(f"check_hot_path: no {queue} {op} (NullBackoff) in the binary",
                  file=sys.stderr)
        return 2
    if violations:
        print(f"check_hot_path: {len(violations)} out-of-line idle-hook call(s)")
        return 1
    print("check_hot_path: no out-of-line idle-hook calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Tests for scripts/check_hot_path.py (run by CTest as `check_hot_path_py`).

The guard runs in CI on a real Release binary; these tests pin its contract
on fabricated `objdump -d -C` text: which functions it inspects, which call
targets count as idle hooks, which are allowed (the cold halves), and the
exit codes for a clean binary (0), a hook call (1) and a binary with
nothing (or not everything) to check (2).

Stdlib only (unittest + subprocess): the test must run on a bare python3 with
no pip installs.
"""

import importlib.util
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "check_hot_path.py")

_spec = importlib.util.spec_from_file_location("check_hot_path", SCRIPT)
chp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chp)

RING = "evq::BoundedRing<evq::harness::Payload, "
CAS = (RING + "evq::CasSlotPolicy<evq::harness::Payload>, "
       "evq::CasIndexPolicy<&evq::kCasIndexAdvancePoint>, "
       "evq::NullBackoff>")
LLSC = (RING + "evq::LlscSlotPolicy<evq::harness::Payload, evq::llsc::PackedLlsc>, "
        "evq::LlscIndexPolicy, evq::NullBackoff>")
SCQ = "evq::ScqQueue<evq::harness::Payload>"
CAS_HANDLE = "evq::CasSlotPolicy<evq::harness::Payload>::Handle&"

CLEAN_CALLS = [
    "evq::stats::detail::record_cas(evq::stats::OpCounters&, bool)",
    "evq::telemetry::detail::write_trace_record(unsigned int, evq::OpOutcome, "
    "unsigned long, unsigned int)",
    "evq::trace::OpProbe::finish(evq::OpOutcome, unsigned long, unsigned int) "
    "[clone .part.0]",
    "evq::registry::Registry::abandon_and_register(evq::registry::LlscVar*)",
]


def function(symbol, calls, addr=0x1000):
    lines = [f"{addr:016x} <{symbol}>:"]
    for i, target in enumerate(calls):
        lines.append(f"   {addr + 5 * i + 4:x}:\te8 00 00 00 00       \tcall   "
                     f"{addr + 0x100:x} <{target}>")
    lines.append(f"   {addr + 0x50:x}:\tc3                   \tret")
    return lines


def binary(extra_push_calls=(), cas_push_symbol=None, skip=()):
    """A disassembly with the six checked functions plus neighbours."""
    parts = {
        ("cas", "push"): function(
            cas_push_symbol or f"{CAS}::push_one({CAS_HANDLE}, evq::harness::Payload*, "
                                "unsigned long*)",
            CLEAN_CALLS + list(extra_push_calls), 0x2000),
        ("cas", "pop"): function(f"{CAS}::pop_one({CAS_HANDLE}, unsigned long*)",
                                 CLEAN_CALLS, 0x3000),
        ("llsc", "push"): function(
            f"{LLSC}::push_one(evq::TrivialHandle&, evq::harness::Payload*, unsigned long*) "
            "[clone .isra.0]", CLEAN_CALLS, 0x4000),
        ("llsc", "pop"): function(
            f"{LLSC}::pop_one(evq::TrivialHandle&, unsigned long*) [clone .constprop.0]",
            CLEAN_CALLS, 0x5000),
        ("scq", "push"): function(f"{SCQ}::push_one(evq::harness::Payload*)",
                                  CLEAN_CALLS + ["evq::ScqRing::enqueue(unsigned long, "
                                                 "evq::ScqRing::Io&)"], 0x6000),
        ("scq", "pop"): function(f"{SCQ}::pop_one()", CLEAN_CALLS, 0x7000),
    }
    lines = ["", "evq-bench:     file format elf64-x86-64", "",
             "Disassembly of section .text:", ""]
    # Unchecked neighbours may call hooks freely.
    lines += function("evq::stats::on_cas(bool)", [], 0x100)
    lines += function(RING + "evq::CasSlotPolicy<evq::harness::Payload>, "
                      "evq::CasIndexPolicy<&evq::kCasIndexAdvancePoint>, "
                      "evq::Backoff>::push_one(" + CAS_HANDLE + ", "
                      "evq::harness::Payload*, unsigned long*)",
                      ["evq::stats::on_cas(bool)"], 0x600)
    for key, fn in parts.items():
        if key not in skip:
            lines += fn + [""]
    return "\n".join(lines) + "\n"


class CheckHotPathTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_on(self, text):
        path = os.path.join(self.tmp.name, "dis.txt")
        with open(path, "w") as f:
            f.write(text)
        return subprocess.run([sys.executable, SCRIPT, "--disassembly", path],
                              capture_output=True, text=True)

    def test_clean_binary_passes(self):
        proc = self.run_on(binary())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("no out-of-line idle-hook calls", proc.stdout)
        self.assertIn("checked CasSlotPolicy push_one", proc.stdout)
        self.assertIn("checked LlscSlotPolicy<PackedLlsc> pop_one", proc.stdout)
        self.assertIn("checked ScqQueue push_one", proc.stdout)
        self.assertIn("checked ScqQueue pop_one", proc.stdout)

    def test_each_idle_hook_call_fails(self):
        hooks = [
            "evq::stats::on_cas(bool)",
            "evq::stats::on_faa()",
            "evq::stats::on_slot_sc(bool)",
            "evq::stats::on_help_advance()",
            "evq::trace::detail::arm_sample()",
            "evq::telemetry::QueueMetrics::inc(evq::telemetry::Counter, unsigned long) "
            "[clone .constprop.0]",
            "evq::telemetry::ScopedQueueMetrics::inc(evq::telemetry::Counter, unsigned long)",
            "evq::telemetry::record_trace(unsigned int, evq::OpOutcome, "
            "unsigned long, unsigned int)",
            "evq::telemetry::count_ring_event(evq::telemetry::ScopedQueueMetrics&, "
            "evq::telemetry::Counter) [clone .constprop.1] [clone .isra.0]",
            "void evq::telemetry::finish_op<false, evq::trace::OpProbe>("
            "evq::telemetry::ScopedQueueMetrics&, evq::trace::OpProbe&, evq::OpOutcome, "
            "unsigned long, unsigned int)",
            "evq::telemetry::detail::stripe_ordinal()",
            "evq::registry::Registry::reregister(evq::registry::LlscVar*)",
            "TLS init function for evq::stats::detail::t_recorder@plt",
            "TLS wrapper function for evq::detail::t_block",
        ]
        for hook in hooks:
            with self.subTest(hook=hook):
                proc = self.run_on(binary(extra_push_calls=[hook]))
                self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
                self.assertIn("HOOK CALL", proc.stdout)
                self.assertIn(hook, proc.stdout)

    def test_cold_clone_is_checked_too(self):
        symbol = (f"{CAS}::push_one({CAS_HANDLE}, evq::harness::Payload*, unsigned long*) "
                  "[clone .cold]")
        text = binary() + "\n".join(function(symbol, ["evq::stats::on_faa()"], 0x9000)) + "\n"
        proc = self.run_on(text)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("[clone .cold]", proc.stdout)

    def test_op_bodies_are_checked_too(self):
        symbol = f"{LLSC}::pop_idle(evq::TrivialHandle&, unsigned long*)"
        text = binary() + "\n".join(function(symbol, ["evq::stats::on_cas(bool)"], 0x9000)) + "\n"
        proc = self.run_on(text)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("LlscSlotPolicy<PackedLlsc> pop_idle", proc.stdout)

    def test_scq_ops_are_checked(self):
        symbol = f"{SCQ}::pop_one() [clone .cold]"
        text = binary() + "\n".join(function(symbol, ["evq::stats::on_cas(bool)"], 0x9000)) + "\n"
        proc = self.run_on(text)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("ScqQueue pop_one [clone .cold]", proc.stdout)

    def test_hooks_in_unchecked_functions_are_ignored(self):
        # binary() already holds a Backoff instantiation that calls on_cas.
        proc = self.run_on(binary())
        self.assertNotIn("HOOK CALL", proc.stdout)

    def test_no_checked_symbols_fails(self):
        proc = self.run_on("\n".join(function("main", ["evq::stats::on_cas(bool)"])) + "\n")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("none of the checked functions", proc.stderr)

    def test_missing_pair_fails(self):
        proc = self.run_on(binary(skip={("llsc", "pop")}))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("no LlscSlotPolicy<PackedLlsc> pop_one", proc.stderr)
        proc = self.run_on(binary(skip={("scq", "push")}))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("no ScqQueue push_one", proc.stderr)

    def test_unreadable_input_fails(self):
        proc = subprocess.run([sys.executable, SCRIPT, "--disassembly",
                               os.path.join(self.tmp.name, "absent.txt")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)

    def test_name_parsing(self):
        q = chp.qualified_name("evq::BoundedRing<P, evq::LlscSlotPolicy<P, "
                               "evq::harness::(anonymous namespace)::Weak5> >::pop_one("
                               "evq::TrivialHandle&, unsigned long*) [clone .isra.0]")
        self.assertEqual(chp.base_name(q), "pop_one")
        self.assertEqual(chp.base_name(chp.qualified_name("evq::stats::on_cas(bool)")), "on_cas")
        self.assertEqual(chp.base_name("evq::Foo<a::b>"), "Foo<a::b>")
        self.assertTrue(chp.is_hook("evq::telemetry::QueueMetrics::inc(evq::telemetry::"
                                    "Counter, unsigned long)"))
        self.assertFalse(chp.is_hook("evq::stats::detail::record_cas(evq::stats::OpCounters&,"
                                     " bool)"))
        self.assertFalse(chp.is_hook("evq::telemetry::detail::write_trace_record(unsigned int,"
                                     " evq::OpOutcome, unsigned long, unsigned int)"))
        # Weak LL/SC instantiations are not Algorithm 1's PackedLlsc ring.
        weak = ("evq::BoundedRing<P, evq::LlscSlotPolicy<P, evq::harness::(anonymous namespace)"
                "::Weak5>, evq::LlscIndexPolicy, evq::NullBackoff>"
                "::push_one(evq::TrivialHandle&, P*, unsigned long*)")
        self.assertIsNone(chp.classify(weak))


if __name__ == "__main__":
    unittest.main()

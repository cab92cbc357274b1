#!/usr/bin/env python3
"""Check every deterministic bench's stdout against a sha256 pin.

Usage: python3 tools/bench_stdout_pins.py BUILD_DIR

Runs each bench that ctest registers in BUILD_DIR (a binary under
BUILD_DIR/bench/), with its ctest arguments, and compares the sha256 of its
stdout with the pin below. Every number a bench prints is simulated, so its
stdout is byte-identical from run to run and from build to build; a change
that moves one updates the pin and says why in CHANGES.md. Two outputs carry
host facts: fig08_sloc counts the checkout's source lines and is not pinned,
and abl_span_overhead is pinned without its two host-time lines.

Exit 1 names each bench that failed, whose stdout moved, or that has no pin,
and each pin with no bench.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

UNPINNED = {"fig08_sloc"}
HOST_TIME_LINE = re.compile(rb"host (wall time|overhead)")
PINS = {
    "fig02_roundtrips":
        "a826731b4a27c7c9ad188d76a38c8ca2d9ed6ad20155367cd2443f6c8716ed41",
    "sec2_hvm_comm":
        "c3028b82457d8baab57792b8a7e15fdafec20df008dd59b8bdd9196a0309ce1c",
    "fig09_syscall_latency":
        "f0d2f4f2d8b50652fde1a18a519c4dd27966ba50c1532de5208687549d5a61e9",
    "fig10_utilization":
        "55f85227f71375cfeb7123bd137bf3c7f1b087589f8909fa902fa57fe94128bf",
    "fig11_startup_syscalls":
        "98adb76a84b856366826b9c13fef730d4095afd5b00034c06a7356a1ffb54f99",
    "fig12_bintree_syscalls":
        "4308a89a0e43b502826c45e008d106aee928626cf4c7602a98b458ed74991dc8",
    "fig13_racket_modes":
        "fdd6fc31eab626b36c09d5bdfa47b637b82eba16e0a3541eea90872900e25a40",
    "abl_symbol_cache":
        "a97d46d0f978e7c11038b666c21854930a4f8381da9d5caecd24c904144ccb45",
    "abl_sync_channel":
        "61bea674af9070dd176b33fe40e2b466566d0e8123ccd0317d29862c1a175082",
    "abl_ring_batching":
        "a181f99db880bae16a769778c3e23bc9ab29ac9e126271ccd45a0fc65c4dde61",
    "abl_gc_override":
        "631444cd24b33ec77105ae2533df2d7191130b3f8870cb3af098f089d42b1d35",
    "abl_adaptive_hybrid":
        "482bd459d09214c5861efe68d1c493d29465a71b6aae934c45ea9e7b7cc448f3",
    "abl_fault_recovery":
        "b8ccb489d90d26d298eb551cd4f6d69e490801b706d365868c9e47ac417f135d",
    "abl_span_overhead":
        "a53aedb53eea50b73f130b3d8bb05a7da62c1ce3b6f01dee0af1fdc4af9637b3",
    "tab_hrt_boot":
        "b1b3952a0f116fb573fa5701ff2b3a0777b032692a9e7cd5940eaf7fb226eaff",
    "tab_thread_prims":
        "7b440c3e74aa935cd3688330fc868ca86d72e5065c2f33f03b68cc80680f9f56",
    "ext_hpcg":
        "39361380ebd795b19b8ea8cab9eecb9b46dc7898d856826857041085c15d996c",
    "ext_three_runtimes":
        "3f89bc59a6e36d01e4b6148704227812b1d4d5e14cc08dc2dddb66602dde934c",
    "abl_group_scaleout":
        "a6070c373fcf90796946bcb730b7f84558b27fe703e0bb6095c52fb263e7d771",
    "abl_tenant_density":
        "b69be6f3ee718541364eda0c32a633e0edf257d959fd2f154e9f09f71d7c80cf",
}


def bench_commands(build_dir):
    listing = subprocess.run(["ctest", "--show-only=json-v1"], cwd=build_dir,
                             check=True, capture_output=True).stdout
    for test in json.loads(listing)["tests"]:
        command = test.get("command") or []
        if command and os.path.basename(os.path.dirname(command[0])) == "bench":
            yield test["name"], command


def stdout_digest(name, command, env):
    run = subprocess.run(command, env=env, capture_output=True)
    if run.returncode != 0:
        return None
    out = run.stdout
    if name == "abl_span_overhead":
        out = b"".join(line for line in out.splitlines(keepends=True)
                       if not HOST_TIME_LINE.search(line))
    return hashlib.sha256(out).hexdigest()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    env = {k: v for k, v in os.environ.items() if k != "MV_TRACE_OUT"}
    problems = []
    seen = set()
    for name, command in bench_commands(sys.argv[1]):
        if name in UNPINNED:
            continue
        seen.add(name)
        digest = stdout_digest(name, command, env)
        pinned = PINS.get(name)
        if digest is None:
            verdict = "exit code not 0"
        elif pinned is None:
            verdict = "no pin"
        elif digest != pinned:
            verdict = f"moved (pinned {pinned})"
        else:
            verdict = "ok"
        print(f"{name}: sha256 {digest} {verdict}")
        if verdict != "ok":
            problems.append(name)
    for name in sorted(PINS.keys() - seen):
        print(f"{name}: pinned, but ctest registers no such bench")
        problems.append(name)
    if problems:
        sys.exit(f"bench stdout pins failed: {', '.join(problems)}")
    print(f"{len(seen)} bench stdouts match their pins")


if __name__ == "__main__":
    main()

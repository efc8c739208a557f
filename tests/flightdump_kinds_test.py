#!/usr/bin/env python3
"""Every flight-recorder kind that src/ records has a flightdump decoder.

Collects the kinds from the C++ sources: the string literals passed to
fr_record / fr_record_at / FlightRing::record / record_at (ternaries
included), plus the to_string(FaultKind) table that names fault events.
Fails when tools/flightdump.py has no decoder for one of them, when the
tool's enum tables (health, alarm, completion status) drift from the C++
enums, and when rendering one synthetic event of every kind raises.
Usage:

    tests/flightdump_kinds_test.py <repo-root>
"""

import importlib.util
import io
import pathlib
import re
import sys

CALL = re.compile(r"\b(?:fr_record_at|fr_record|record_at|record)\s*\(")
LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')
FAULT_CASE = re.compile(r'case FaultKind::\w+:\s*return "([^"]+)";')
# flightdump table -> (header under src/, C++ enum it mirrors)
ENUM_TABLES = {
    "HEALTH_STATES": ("lb/balancer.hpp", "BackendHealth"),
    "ALARM_STATES": ("telemetry/slo.hpp", "AlarmState"),
    "WC_STATUS": ("net/verbs.hpp", "WcStatus"),
}


def call_args(text, open_paren):
    """The argument text of the call whose '(' is at open_paren."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    raise ValueError("unbalanced call")


def recorded_kinds(src):
    kinds = {}
    for path in sorted(src.rglob("*.[ch]pp")):
        text = path.read_text()
        for m in CALL.finditer(text):
            for lit in LITERAL.findall(call_args(text, m.end() - 1)):
                kinds.setdefault(lit, path.relative_to(src.parent))
    fault_cpp = src / "fault" / "fault.cpp"
    text = fault_cpp.read_text()
    table = text[text.index("to_string(FaultKind"):]
    table = table[:table.index("\n}\n")]
    for kind in FAULT_CASE.findall(table):
        kinds.setdefault(kind, fault_cpp.relative_to(src.parent))
    return kinds


def enum_names(header, enum):
    """The enumerators of `enum class <enum>` as kebab-case names."""
    text = header.read_text()
    body = text[text.index(f"enum class {enum} {{"):]
    body = body[body.index("{") + 1:body.index("}")]
    body = re.sub(r"//[^\n]*", "", body)
    names = [n.strip() for n in body.split(",") if n.strip()]
    return [re.sub(r"(?<!^)([A-Z])", r"-\1", n).lower() for n in names]


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".").resolve()
    spec = importlib.util.spec_from_file_location(
        "flightdump", root / "tools" / "flightdump.py")
    flightdump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flightdump)

    kinds = recorded_kinds(root / "src")
    missing = sorted(k for k in kinds if k not in flightdump.DECODERS)
    for kind in missing:
        print(f"no decoder for kind {kind!r} (recorded in {kinds[kind]})")
    # A collector that silently finds nothing would pass vacuously: pin
    # one kind from each recording site shape.
    unseen = [k for k in ("read.post", "read.comp", "health", "alarm",
                          "crash", "storm-start", "round", "fetch.timeout",
                          "attempt.transport", "qos.drop", "scan.fresh")
              if k not in kinds]
    if unseen:
        print(f"collector missed {unseen}; found {sorted(kinds)}")

    drifted = False
    for table, (header, enum) in ENUM_TABLES.items():
        want = enum_names(root / "src" / header, enum)
        have = getattr(flightdump, table, {})
        if [have.get(i) for i in range(len(want))] != want:
            print(f"{table} {have} does not mirror {enum} {want}")
            drifted = True

    doc = {"reason": "test", "at_ns": 0, "rings": [],
           "events": [{"t_ns": i, "seq": i, "ring": "r", "kind": k,
                       "a": 1, "b": 2, "x": 3.0}
                      for i, k in enumerate(sorted(kinds))]}
    out = io.StringIO()
    flightdump.render(doc, out=out)
    print(f"{len(kinds)} recorded kinds, {len(missing)} without a decoder")
    return 1 if missing or unseen or drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

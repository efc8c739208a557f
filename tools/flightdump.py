#!/usr/bin/env python3
"""Pretty-printer for flight-recorder post-mortems (flight_*.json).

The recorder dumps generic scalars (a, b, x) per event; this tool knows
what each common event kind uses them for and renders a readable
timeline. Usage:

    tools/flightdump.py build/flight-dumps/flight_slo_lb.view_age_0.json
    tools/flightdump.py --ring fault --last 20 dump.json
    tools/flightdump.py dump.json dump2.json     # several, in order
    tools/flightdump.py telemetry_flight.json    # examples/telemetry_dashboard

Unknown kinds still print (raw a/b/x), so the tool never breaks on a
dump; tests/flightdump_kinds_test.py fails when a kind that src/ records
has no decoder here.
"""

import argparse
import json
import sys

# Enum orders mirror the C++ definitions: telemetry::AlarmState,
# lb::BackendHealth, net::WcStatus, monitor::FetchMode.
ALARM_STATES = {0: "ok", 1: "breach-warn", 2: "breach"}
HEALTH_STATES = {0: "healthy", 1: "suspect", 2: "dead"}
WC_STATUS = {0: "success", 1: "protection-error", 2: "invalid-key",
             3: "retry-exceeded"}


def us(ns):
    return f"{ns / 1000.0:9.1f}us"


def ms(ns):
    return f"{ns / 1e6:.3f}ms"


def health(a, b, x):
    text = f"backend{a} -> {HEALTH_STATES.get(b, b)}"
    if x:
        # x != 0 only on a shard-takeover reset: the state reset from.
        text += f" (shard-takeover reset from {HEALTH_STATES.get(int(x), x)})"
    return text


def attempt(outcome):
    return lambda a, b, x: f"node{a} attempt {b} {outcome} after {us(x)}"


def fetch(outcome):
    return lambda a, b, x: (f"node{a} fetch {outcome} after {b} attempt(s), "
                            f"{us(x)}")


# kind -> callable(a, b, x) -> human string. a/b are ints, x is a float;
# all default to 0 (the dump omits zero fields to stay small).
DECODERS = {
    # net.<node> rings (per-NIC one-sided verbs)
    "read.post": lambda a, b, x: f"RDMA READ posted -> node{a} wr={b} len={int(x)}B",
    "read.comp": lambda a, b, x: f"RDMA READ completion {WC_STATUS.get(a, a)} wr={b} rtt={us(x)}",
    "write.post": lambda a, b, x: f"RDMA WRITE posted -> node{a} wr={b} len={int(x)}B",
    "write.comp": lambda a, b, x: f"RDMA WRITE completion {WC_STATUS.get(a, a)} wr={b} rtt={us(x)}",
    # monitor.<frontend> rings (bounded fetch: a = back-end node)
    "attempt.ok": attempt("ok"),
    "attempt.timeout": attempt("timeout"),
    "attempt.transport": attempt("transport"),
    "fetch.ok": fetch("ok"),
    "fetch.timeout": fetch("timeout"),
    "fetch.transport": fetch("transport"),
    # scatter.<node> rings (one event per scatter round)
    "round": lambda a, b, x: f"scatter round over {a} slot(s) took {us(x)}",
    # inbox.<frontend> rings (push-inbox seqlock scans)
    "scan.fresh": lambda a, b, x: f"slot{a} fresh image seq={b} age={us(x)}",
    "scan.heartbeat": lambda a, b, x: f"slot{a} heartbeat seq={b} age={us(x)}",
    "scan.torn": lambda a, b, x: f"slot{a} torn image seq={b} (skipped)",
    "scan.regressed": lambda a, b, x: f"slot{a} regressed seq={b} (dropped)",
    # lb ring (health ladder + adaptive mode switches)
    "health": health,
    "mode": lambda a, b, x: f"backend{a} -> {'push' if b else 'pull'}",
    # slo ring (alarm edges; a = SLO registration index)
    "alarm": lambda a, b, x: f"slo#{a} -> {ALARM_STATES.get(b, b)} consumed={x:.2f}",
    # fault ring (a = node, or storm id for storms; b = FaultKind; kind
    # strings from to_string(FaultKind) in fault.cpp)
    "crash": lambda a, b, x: f"node{a} CRASHED",
    "recover": lambda a, b, x: f"node{a} recovered",
    "freeze": lambda a, b, x: f"node{a} frozen (alive, not scheduling)",
    "unfreeze": lambda a, b, x: f"node{a} unfrozen",
    "link-degrade": lambda a, b, x: f"node{a} link degraded",
    "link-restore": lambda a, b, x: f"node{a} link restored",
    "storm-start": lambda a, b, x: f"tenant storm{a} started",
    "storm-stop": lambda a, b, x: f"tenant storm{a} stopped",
    # gossip.<frontend> rings (scale-out membership)
    "rejoin": lambda a, b, x: f"frontend{a} rejoined membership",
    "evict": lambda a, b, x: f"peer{a} evicted ({'stale view' if b else 'unreachable'})",
    "stale-mark": lambda a, b, x: f"backend{a} staleness strike (unmonitored past bound)",
    # qos ring (per-tenant arbiter verdicts; x = arbiter post sequence)
    "qos.admit": lambda a, b, x: f"tenant{a} admitted {b}B (post #{int(x)})",
    "qos.drop": lambda a, b, x: f"tenant{a} DROPPED {b}B at queue cap (post #{int(x)})",
}


def render(doc, only_ring=None, last=None, out=sys.stdout):
    print(f"post-mortem: {doc.get('reason', '?')}  "
          f"at t={ms(doc.get('at_ns', 0))}", file=out)
    for ring in doc.get("rings", []):
        lost = ring.get("dropped", 0)
        note = f"  (lost {lost} oldest)" if lost else ""
        print(f"  ring {ring['name']:<10} recorded={ring.get('recorded', 0)}"
              f" cap={ring.get('capacity', 0)}{note}", file=out)
    events = doc.get("events", [])
    if only_ring is not None:
        events = [e for e in events if e.get("ring") == only_ring]
    shown = events[-last:] if last else events
    if len(shown) < len(events):
        print(f"  ... {len(events) - len(shown)} earlier events elided "
              "(--last)", file=out)
    for e in shown:
        kind = e.get("kind", "?")
        a, b, x = e.get("a", 0), e.get("b", 0), e.get("x", 0.0)
        dec = DECODERS.get(kind)
        text = (dec(a, b, x) if dec
                else f"{kind} a={a} b={b} x={x}")
        print(f"  {ms(e.get('t_ns', 0)):>12}  [{e.get('ring', '?'):<8}] "
              f"{text}", file=out)
    print(f"  {len(shown)} events shown", file=out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="+", help="flight_*.json dumps")
    p.add_argument("--ring", help="show only this ring's events")
    p.add_argument("--last", type=int,
                   help="show only the last N events (after --ring filter)")
    args = p.parse_args(argv)
    for i, path in enumerate(args.files):
        if i:
            print()
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: {err}", file=sys.stderr)
            return 1
        render(doc, only_ring=args.ring, last=args.last)
    return 0


if __name__ == "__main__":
    sys.exit(main())

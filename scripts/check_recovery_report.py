#!/usr/bin/env python3
"""CI gate over BENCH_recovery.json (see bench/bench_recovery.cpp).

The report is the full telemetry snapshot of the canonical crash cycle
(250ms checkpoint cadence, 3-miss watchdog): the dispatcher is
crash-stopped mid-flood and the watchdog promotes it from checkpoint +
op-log, then the runtime hands back the frames it held during the
outage. The gate enforces the recovery contract from
docs/FAULT_MODEL.md:

  1. zero duplicates after promotion — restored state and the hand-back
     must close the replay/duplicate leak completely;
  2. every crashed service recovered (crashes == promotions + rejoins
     and the garnet.recovery.crashed gauge ended at zero);
  3. the cycle actually exercised recovery (a crash fired, a checkpoint
     was stored, held frames were handed back — an idle gate proves
     nothing);
  4. ablation A3's 100ms cell (bench.recovery.filtering_* gauges: the
     Filtering Service crash-stopped under a stream whose late radio
     copies straddle the outage) leaked zero duplicates, and its
     promoted filter recognised at least one late copy — a cell in
     which no late copy reached the restored dedup state proves
     nothing;
  5. no op-log record was evicted (garnet.recovery.ops_evicted == 0): a
     record pushed out of the bounded log before a checkpoint covered it
     is a mutation the promoted service never sees;
  6. every offered message is delivered (messages_delivered ==
     messages_offered) and no quarantine shed was evicted from a
     consumer's backlog (garnet.dispatch.resume_missing == 0).
"""
import json
import sys


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: check_recovery_report.py BENCH_recovery.json", file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as fh:
        report = json.load(fh)

    values = {}
    for metric in report["metrics"]:
        # Histograms carry count/sum/quantiles instead of a scalar value.
        if not metric.get("labels") and "value" in metric:
            values[metric["name"]] = metric["value"]

    def value(name, default=None):
        if name in values:
            return values[name]
        return default

    failures = []

    duplicates = value("bench.recovery.duplicates_after_promotion")
    if duplicates is None:
        failures.append("bench.recovery.duplicates_after_promotion missing from the report")
    elif duplicates > 0:
        failures.append(
            f"{duplicates:.0f} duplicate deliveries after promotion — "
            "recovery re-delivered acknowledged messages"
        )

    crashes = value("garnet.recovery.crashes", 0.0)
    recovered = value("garnet.recovery.promotions", 0.0) + value("garnet.recovery.rejoins", 0.0)
    still_down = value("garnet.recovery.crashed", 0.0)
    if crashes == 0:
        failures.append("no crash fired — the recovery path was never exercised")
    if recovered < crashes:
        failures.append(
            f"only {recovered:.0f} of {crashes:.0f} crashed services recovered"
        )
    if still_down > 0:
        failures.append(f"{still_down:.0f} services still crashed at end of run")

    if value("garnet.checkpoint.stored", 0.0) == 0:
        failures.append("no checkpoint was replicated — promotion ran stateless")
    if value("garnet.dispatch.recovery_replayed", 0.0) == 0:
        failures.append("no held frame was handed back — crash-window traffic was lost")

    evicted = value("garnet.recovery.ops_evicted")
    if evicted is None:
        failures.append("garnet.recovery.ops_evicted missing from the report")
    elif evicted > 0:
        failures.append(
            f"{evicted:.0f} op-log records evicted before a checkpoint covered them — "
            "a promotion from this log misses those mutations"
        )

    offered = value("bench.recovery.messages_offered")
    delivered = value("bench.recovery.messages_delivered")
    missing = value("garnet.dispatch.resume_missing")
    if None in (offered, delivered, missing):
        failures.append(
            "bench.recovery.messages_{offered,delivered} or "
            "garnet.dispatch.resume_missing missing from the report"
        )
    else:
        if delivered != offered:
            failures.append(
                f"{offered:.0f} messages offered but {delivered:.0f} delivered"
            )
        if missing > 0:
            failures.append(
                f"{missing:.0f} quarantine sheds evicted from a consumer's backlog"
            )

    leaked = value("bench.recovery.filtering_duplicates_leaked")
    deduped = value("bench.recovery.filtering_late_copies_deduped")
    if leaked is None or deduped is None:
        failures.append("bench.recovery.filtering_* (ablation A3) gauges missing from the report")
    else:
        if leaked > 0:
            failures.append(
                f"{leaked:.0f} duplicates leaked past the promoted filtering service"
            )
        if deduped <= 0:
            failures.append(
                "the promoted filtering service recognised no late copy — "
                "the A3 cell never probed its restored dedup state"
            )

    if failures:
        for failure in failures:
            print(f"recovery gate FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"recovery gate OK: {crashes:.0f} crash(es) recovered, "
        f"latency={value('garnet.recovery.latency_ns', 0.0) / 1e6:.1f}ms, "
        f"ops replayed={value('garnet.recovery.ops_replayed', 0.0):.0f}, "
        f"held frames handed back={value('garnet.dispatch.recovery_replayed', 0.0):.0f}, "
        "ops evicted=0, "
        f"delivered={delivered:.0f} of {offered:.0f} offered, missing=0, "
        "duplicates after promotion=0, "
        f"filtering late copies deduped={deduped:.0f} with 0 leaked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

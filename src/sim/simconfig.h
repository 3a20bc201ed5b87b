/**
 * @file
 * Full simulated-system configuration. Defaults reproduce Table II of the
 * paper (Sunny-Cove-like core, 3 GHz, FDIP with a 32-entry FTQ) plus the
 * technique toggles evaluated in Section V.
 */

#ifndef UDP_SIM_SIMCONFIG_H
#define UDP_SIM_SIMCONFIG_H

#include "backend/backend.h"
#include "bpred/bpu.h"
#include "cache/memsys.h"
#include "core/udp_engine.h"
#include "core/uftq.h"
#include "frontend/decoupled_fe.h"
#include "frontend/fdip.h"
#include "frontend/fetch.h"
#include "obs/profiler.h"
#include "prefetch/eip.h"
#include "sim/faultinject.h"
#include "stats/telemetry.h"

namespace udp {

/** Forward-progress watchdog + invariant-sweep cadence (docs/ROBUSTNESS.md). */
struct WatchdogConfig
{
    /** Cycles without a single retirement before the watchdog throws
     *  SimHang (kind retire_stall). 0 disables the stall watchdog. */
    Cycle retireStallCycles = 100'000;
    /** Absolute cycle budget for the whole run; exceeding it throws
     *  SimHang (kind cycle_budget). 0 = unlimited. Each sweep job carries
     *  its own in SweepJob::config. */
    Cycle maxCycles = 0;
    /** Cycles between always-on cheap invariant sweeps. 0 disables
     *  periodic sweeps (UDP_CHECK builds still run the full sweep). */
    Cycle invariantPeriod = 4096;

    bool operator==(const WatchdogConfig&) const = default;
};

/** Everything needed to build a Cpu. */
struct SimConfig
{
    BpuConfig bpu;
    MemSysConfig mem;
    FrontendConfig frontend;
    FetchConfig fetch;
    FdipConfig fdip;
    BackendConfig backend;

    /** Dynamic FTQ capacity (baseline: 32 blocks [28]). */
    unsigned ftqCapacity = 32;
    /** Physical FTQ bound (UFTQ never grows beyond this). */
    unsigned ftqPhysical = 128;

    /** Enable the UDP filter on FDIP. */
    bool udpEnabled = false;
    UdpConfig udp;

    /** UFTQ dynamic FTQ sizing (mode Off = fixed capacity). */
    UftqConfig uftq;

    /** Enable the EIP baseline prefetcher (usually with fdip.enabled off). */
    bool eipEnabled = false;
    EipConfig eip;

    /** Hang detection and invariant-sweep cadence. */
    WatchdogConfig watchdog;

    /** Fault injection (kind None = clean run; tests/test_faults.cc). */
    FaultPlan fault;

    /** Telemetry layer: lifecycle tracking, interval stats, trace export
     *  (docs/TELEMETRY.md). Disabled by default; when disabled the run is
     *  byte-identical to a build without the telemetry layer. */
    TelemetryConfig telemetry;

    /** Cycle-loop self-profiler: wall-time attribution per component
     *  (docs/OBSERVABILITY.md). Off by default — the only cost is one
     *  null-pointer check per phase site. Outside sweepJobHash(): it
     *  never perturbs job identity or modeled results. */
    ProfileConfig profile;

    /** Member-wise, through every nested config: the figure catalog's
     *  dedupe key (bench/catalog.h), so a knob added later can never
     *  make two different points compare equal. */
    bool operator==(const SimConfig&) const = default;
};

/** Named preset configurations used across benches and examples. */
namespace presets {

/** Ishii-style FDIP baseline with a fixed 32-entry FTQ. */
inline SimConfig
fdipBaseline()
{
    return SimConfig{};
}

/** FDIP with a specific fixed FTQ depth. */
inline SimConfig
fdipWithFtq(unsigned depth)
{
    SimConfig c;
    c.ftqCapacity = depth;
    if (depth > c.ftqPhysical) {
        c.ftqPhysical = depth;
    }
    return c;
}

/** Perfect icache oracle (Fig. 1). */
inline SimConfig
perfectIcache()
{
    SimConfig c;
    c.mem.perfectIcache = true;
    return c;
}

/** No instruction prefetching at all. */
inline SimConfig
noPrefetch()
{
    SimConfig c;
    c.fdip.enabled = false;
    return c;
}

/** UFTQ variant on top of the baseline. */
inline SimConfig
uftq(UftqMode mode)
{
    SimConfig c;
    c.uftq.mode = mode;
    c.ftqCapacity = c.uftq.initialDepth;
    return c;
}

/** UDP with the paper's 8KB useful-set. */
inline SimConfig
udp8k()
{
    SimConfig c;
    c.udpEnabled = true;
    return c;
}

/** UDP with an infinite useful-set (Fig. 13 upper bound). */
inline SimConfig
udpInfinite()
{
    SimConfig c;
    c.udpEnabled = true;
    c.udp.usefulSet.infiniteStorage = true;
    return c;
}

/** ISO-storage: enlarged 40 KiB icache instead of UDP metadata. */
inline SimConfig
bigIcache40k()
{
    SimConfig c;
    c.mem.l1iSize = 40 * 1024;
    c.mem.l1iAssoc = 10; // 64 sets x 10 ways
    return c;
}

/** ISO-storage: EIP-8KB on top of the FDIP baseline. */
inline SimConfig
eip8k()
{
    SimConfig c;
    c.eipEnabled = true;
    return c;
}

} // namespace presets

} // namespace udp

#endif // UDP_SIM_SIMCONFIG_H

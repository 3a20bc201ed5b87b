/**
 * @file
 * Fundamental type aliases and architectural constants shared by every
 * module of the simulator.
 */

#ifndef UDP_COMMON_TYPES_H
#define UDP_COMMON_TYPES_H

#include <cstdint>
#include <limits>

namespace udp {

/** Byte address in the simulated address space. */
using Addr = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** Monotonically increasing id of a dynamic (in-flight) instruction. */
using InstSeq = std::uint64_t;

/** Index of a static instruction within a Program image. */
using InstIdx = std::uint32_t;

/** Slot of an in-flight branch's prediction record (frontend/records.h). */
using RecordHandle = std::uint32_t;

/** Sentinel for "no address". */
inline constexpr Addr kInvalidAddr = std::numeric_limits<Addr>::max();

/** Sentinel for "no cycle" / "not scheduled". */
inline constexpr Cycle kInvalidCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for "no sequence number". */
inline constexpr InstSeq kInvalidSeq = std::numeric_limits<InstSeq>::max();

/** Sentinel for "no prediction record". */
inline constexpr RecordHandle kNoRecord =
    std::numeric_limits<RecordHandle>::max();

/** Size of every synthetic instruction in bytes (fixed-width ISA). */
inline constexpr unsigned kInstrBytes = 4;

/** Cache line size used throughout the hierarchy. */
inline constexpr unsigned kLineBytes = 64;

/** Fetch block size processed by the decoupled frontend per FTQ entry. */
inline constexpr unsigned kFetchBlockBytes = 32;

/** Instructions per fetch block. */
inline constexpr unsigned kInstrsPerFetchBlock = kFetchBlockBytes / kInstrBytes;

/** Returns the cache line (aligned) address containing @p a. */
constexpr Addr lineAddr(Addr a) { return a & ~Addr{kLineBytes - 1}; }

/** Returns the fetch-block (aligned) address containing @p a. */
constexpr Addr fetchBlockAddr(Addr a) { return a & ~Addr{kFetchBlockBytes - 1}; }

} // namespace udp

#endif // UDP_COMMON_TYPES_H

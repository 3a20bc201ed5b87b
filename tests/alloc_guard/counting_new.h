/**
 * @file
 * A replaced global operator new that counts its calls, for tests that
 * pin allocation-free code paths. Link counting_new.cc into the test
 * binary; it replaces allocation for the whole process.
 */

#ifndef UDP_TESTS_COUNTING_NEW_H
#define UDP_TESTS_COUNTING_NEW_H

#include <cstdint>

namespace udp {

/** Calls of the global operator new since the process started. */
std::uint64_t allocationCount();

} // namespace udp

#endif // UDP_TESTS_COUNTING_NEW_H

/**
 * @file
 * Little-endian wire encoding for the procexec result pipe
 * (sim/procexec.cc): parent and isolated child frame their payloads with
 * the same length-prefixed primitives so both ends agree byte for byte.
 *
 * Also home of the process-wide SIGPIPE guard: the peer of a pipe can
 * die mid-conversation, and the default SIGPIPE disposition would kill
 * us instead of letting the write fail with EPIPE and be classified as a
 * structured JobError (docs/ROBUSTNESS.md §8).
 */

#ifndef UDP_SIM_WIRE_H
#define UDP_SIM_WIRE_H

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <string>

namespace udp::wire {

inline void
appendU32(std::string* buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        buf->push_back(static_cast<char>(v >> (8 * i)));
    }
}

inline void
appendU64(std::string* buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        buf->push_back(static_cast<char>(v >> (8 * i)));
    }
}

inline void
appendStr(std::string* buf, const std::string& s)
{
    appendU32(buf, static_cast<std::uint32_t>(s.size()));
    buf->append(s);
}

inline bool
readU32(const std::string& buf, std::size_t* pos, std::uint32_t* out)
{
    if (*pos + 4 > buf.size()) {
        return false;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(buf[*pos + i]))
             << (8 * i);
    }
    *pos += 4;
    *out = v;
    return true;
}

inline bool
readU64(const std::string& buf, std::size_t* pos, std::uint64_t* out)
{
    if (*pos + 8 > buf.size()) {
        return false;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(buf[*pos + i]))
             << (8 * i);
    }
    *pos += 8;
    *out = v;
    return true;
}

inline bool
readStr(const std::string& buf, std::size_t* pos, std::string* out)
{
    std::uint32_t len = 0;
    if (!readU32(buf, pos, &len) || *pos + len > buf.size()) {
        return false;
    }
    out->assign(buf, *pos, len);
    *pos += len;
    return true;
}

/**
 * Ignores SIGPIPE process-wide (idempotent). A peer that dies between
 * our write()s would otherwise raise SIGPIPE and kill the process; with
 * the signal ignored the write fails with EPIPE and the caller converts
 * it into a classified error ("exit" for a dying isolated child).
 */
inline void
installSigpipeIgnore()
{
#ifndef _WIN32
    std::signal(SIGPIPE, SIG_IGN);
#endif
}

} // namespace udp::wire

#endif // UDP_SIM_WIRE_H

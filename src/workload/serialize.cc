#include "workload/serialize.h"
#include <type_traits>

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace udp {

namespace {

constexpr std::uint32_t kMagic = 0x55445031; // "UDP1"
// Images hold raw Instr bytes: 3 is the 12-byte, bit-field layout.
constexpr std::uint32_t kVersion = 3;

template <typename T>
void
writePod(std::ostream& os, const T& v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream& is)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    is.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!is) {
        throw std::runtime_error("program image truncated");
    }
    return v;
}

template <typename T>
void
writeVec(std::ostream& os, const std::vector<T>& v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    writePod<std::uint64_t>(os, v.size());
    if (!v.empty()) {
        os.write(reinterpret_cast<const char*>(v.data()),
                 static_cast<std::streamsize>(v.size() * sizeof(T)));
    }
}

template <typename T>
std::vector<T>
readVec(std::istream& is, std::uint64_t max_elems)
{
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = readPod<std::uint64_t>(is);
    if (n > max_elems) {
        throw std::runtime_error("program image field too large");
    }
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n) {
        is.read(reinterpret_cast<char*>(v.data()),
                static_cast<std::streamsize>(n * sizeof(T)));
        if (!is) {
            throw std::runtime_error("program image truncated");
        }
    }
    return v;
}

void
writeString(std::ostream& os, const std::string& s)
{
    writePod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string
readString(std::istream& is)
{
    std::uint32_t n = readPod<std::uint32_t>(is);
    if (n > 4096) {
        throw std::runtime_error("program name too long");
    }
    std::string s(n, '\0');
    is.read(s.data(), n);
    if (!is) {
        throw std::runtime_error("program image truncated");
    }
    return s;
}

} // namespace

void
saveProgram(const Program& prog, std::ostream& os)
{
    writePod(os, kMagic);
    writePod(os, kVersion);
    writeString(os, prog.name());
    writePod<std::uint32_t>(os, prog.entry());

    // Flatten the tables through the public accessors.
    std::vector<Instr> instrs;
    instrs.reserve(prog.numInstrs());
    for (InstIdx i = 0; i < prog.numInstrs(); ++i) {
        instrs.push_back(prog.instrAt(i));
    }
    writeVec(os, instrs);

    std::vector<BranchBehavior> cond;
    for (std::size_t i = 0; i < prog.numCondBehaviors(); ++i) {
        Instr probe;
        probe.behavior = static_cast<std::uint32_t>(i);
        cond.push_back(prog.condBehavior(probe));
    }
    writeVec(os, cond);

    std::vector<IndirectBehavior> ind;
    std::vector<InstIdx> pool;
    for (std::size_t i = 0; i < prog.numIndirectBehaviors(); ++i) {
        Instr probe;
        probe.behavior = static_cast<std::uint32_t>(i);
        IndirectBehavior b = prog.indirectBehavior(probe);
        // Rebase the target-pool slice while flattening.
        std::uint32_t new_first = static_cast<std::uint32_t>(pool.size());
        for (std::uint32_t k = 0; k < b.numTargets; ++k) {
            pool.push_back(prog.indirectTarget(b, k));
        }
        b.firstTarget = new_first;
        ind.push_back(b);
    }
    writeVec(os, ind);
    writeVec(os, pool);

    std::vector<MemPattern> mem;
    for (std::size_t i = 0; i < prog.numMemPatterns(); ++i) {
        Instr probe;
        probe.behavior = static_cast<std::uint32_t>(i);
        mem.push_back(prog.memPattern(probe));
    }
    writeVec(os, mem);

    if (!os) {
        throw std::runtime_error("failed to write program image");
    }
}

Program
loadProgram(std::istream& is)
{
    if (readPod<std::uint32_t>(is) != kMagic) {
        throw std::runtime_error("not a udp program image (bad magic)");
    }
    if (readPod<std::uint32_t>(is) != kVersion) {
        throw std::runtime_error("unsupported program image version");
    }
    std::string name = readString(is);
    InstIdx entry = readPod<std::uint32_t>(is);

    constexpr std::uint64_t kMax = 1ULL << 28;
    auto instrs = readVec<Instr>(is, kMax);
    auto cond = readVec<BranchBehavior>(is, kMax);
    auto ind = readVec<IndirectBehavior>(is, kMax);
    auto pool = readVec<InstIdx>(is, kMax);
    auto mem = readVec<MemPattern>(is, kMax);

    Program prog = Program::assemble(std::move(name), std::move(instrs),
                                     entry, std::move(cond), std::move(ind),
                                     std::move(pool), std::move(mem));
    std::string err = prog.validate();
    if (!err.empty()) {
        throw std::runtime_error("loaded program invalid: " + err);
    }
    return prog;
}

void
saveProgramFile(const Program& prog, const std::string& path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        throw std::runtime_error("cannot open for writing: " + path);
    }
    saveProgram(prog, os);
}

Program
loadProgramFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        throw std::runtime_error("cannot open for reading: " + path);
    }
    return loadProgram(is);
}

} // namespace udp

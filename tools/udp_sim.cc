/**
 * @file
 * udp_sim: command-line driver for the simulator.
 *
 *   udp_sim --app mysql --technique udp8k --instrs 1000000
 *   udp_sim --list
 *   udp_sim --app xgboost --technique fdip --ftq 64 --csv
 *
 * Techniques: nopf | fdip | perfect | udp8k | udp-infinite | icache40k |
 *             eip8k | uftq-aur | uftq-atr | uftq-atr-aur
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/intmath.h"
#include "sim/runner.h"
#include "stats/sink.h"

namespace {

using namespace udp;

void
usage()
{
    std::puts(
        "usage: udp_sim [options]\n"
        "  --app NAME           workload profile (default mysql); see --list\n"
        "  --technique T        nopf|fdip|perfect|udp8k|udp-infinite|\n"
        "                       icache40k|eip8k|uftq-aur|uftq-atr|\n"
        "                       uftq-atr-aur (default fdip)\n"
        "  --ftq N              fixed FTQ depth (default 32)\n"
        "  --btb N              BTB entries, 8 ways x a power of two\n"
        "                       (default 8192)\n"
        "  --instrs N           measured instructions (default 1000000)\n"
        "  --warmup N           warmup instructions (default 500000)\n"
        "  --seed N             workload seed override\n"
        "  --csv                emit the report as CSV key,value lines\n"
        "  --list               list available workload profiles\n");
}

/** The value of numeric flag @p flag; exits 2 unless it is a whole
 *  decimal no larger than @p max. */
std::uint64_t
countArg(const std::string& flag, const char* text,
         std::uint64_t max = UINT64_MAX)
{
    std::uint64_t v = 0;
    if (!parseCount(text, &v) || v > max) {
        std::fprintf(stderr, "udp_sim: malformed number '%s' for %s\n",
                     text, flag.c_str());
        std::exit(2);
    }
    return v;
}

std::optional<SimConfig>
configFor(const std::string& t, unsigned ftq, unsigned btb)
{
    SimConfig cfg;
    if (t == "nopf") {
        cfg = presets::noPrefetch();
    } else if (t == "fdip") {
        cfg = presets::fdipWithFtq(ftq);
    } else if (t == "perfect") {
        cfg = presets::perfectIcache();
    } else if (t == "udp8k") {
        cfg = presets::udp8k();
        cfg.ftqCapacity = ftq;
    } else if (t == "udp-infinite") {
        cfg = presets::udpInfinite();
        cfg.ftqCapacity = ftq;
    } else if (t == "icache40k") {
        cfg = presets::bigIcache40k();
    } else if (t == "eip8k") {
        cfg = presets::eip8k();
    } else if (t == "uftq-aur") {
        cfg = presets::uftq(UftqMode::Aur);
    } else if (t == "uftq-atr") {
        cfg = presets::uftq(UftqMode::Atr);
    } else if (t == "uftq-atr-aur") {
        cfg = presets::uftq(UftqMode::AtrAur);
    } else {
        return std::nullopt;
    }
    cfg.bpu.btb.numEntries = btb;
    if (ftq > cfg.ftqPhysical) {
        cfg.ftqPhysical = ftq;
    }
    return cfg;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string app = "mysql";
    std::string technique = "fdip";
    unsigned ftq = 32;
    unsigned btb = 8192;
    std::uint64_t instrs = 1'000'000;
    std::uint64_t warmup = 500'000;
    std::uint64_t seed_override = 0;
    bool csv = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--app") {
            app = next();
        } else if (a == "--technique") {
            technique = next();
        } else if (a == "--ftq") {
            ftq = static_cast<unsigned>(countArg(a, next(), UINT_MAX));
        } else if (a == "--btb") {
            btb = static_cast<unsigned>(countArg(a, next(), UINT_MAX));
        } else if (a == "--instrs") {
            instrs = countArg(a, next());
        } else if (a == "--warmup") {
            warmup = countArg(a, next());
        } else if (a == "--seed") {
            seed_override = countArg(a, next());
        } else if (a == "--csv") {
            csv = true;
        } else if (a == "--list") {
            for (const Profile& p : datacenterProfiles()) {
                std::printf("%-12s code=%uKB seed=%llu\n", p.name.c_str(),
                            p.codeFootprintKB,
                            static_cast<unsigned long long>(p.seed));
            }
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage();
            return 2;
        }
    }

    try {
        std::optional<SimConfig> cfg = configFor(technique, ftq, btb);
        if (!cfg) {
            std::fprintf(stderr, "unknown technique: %s\n",
                         technique.c_str());
            return 2;
        }
        // The BTB indexes sets with a mask: any other size would leave
        // some of its sets unreachable.
        const unsigned assoc = cfg->bpu.btb.assoc;
        if (btb % assoc != 0 || !isPowerOf2(btb / assoc)) {
            std::fprintf(stderr,
                         "udp_sim: --btb %u: entries must be %u ways times "
                         "a power-of-two set count\n",
                         btb, assoc);
            return 2;
        }

        Profile p = profileByName(app);
        if (seed_override) {
            p.seed = seed_override;
        }
        const Report r = runSim(p, *cfg, {warmup, instrs}, technique);

        // Named, so the range-for below does not iterate a destroyed
        // temporary.
        const StatSet stats = r.toStatSet();
        if (csv) {
            for (const auto& [k, v] : stats.entries()) {
                std::printf("%s,%s\n", k.c_str(), formatNumber(v).c_str());
            }
        } else {
            std::printf("workload=%s technique=%s ftq=%u btb=%u\n",
                        p.name.c_str(), technique.c_str(), ftq, btb);
            std::printf("%s", stats.toString().c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

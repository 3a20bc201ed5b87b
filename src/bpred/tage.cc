#include "bpred/tage.h"

#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace udp {

Tage::Tage(const TageConfig& c, std::uint64_t seed)
    : cfg(c), useAltOnNa(4, 7), allocSeed(seed ? seed : 1)
{
    assert(cfg.numTables >= 2 && cfg.numTables <= kMaxTageTables);

    // Geometric history lengths from minHist to maxHist.
    histLen.resize(cfg.numTables);
    double ratio = std::pow(static_cast<double>(cfg.maxHist) / cfg.minHist,
                            1.0 / (cfg.numTables - 1));
    double l = cfg.minHist;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        histLen[t] = static_cast<unsigned>(l + 0.5);
        if (t > 0 && histLen[t] <= histLen[t - 1]) {
            histLen[t] = histLen[t - 1] + 1;
        }
        l *= ratio;
    }

    tables.assign(cfg.numTables,
                  std::vector<Entry>(std::size_t{1} << cfg.tableBits));
    for (auto& tab : tables) {
        for (auto& e : tab) {
            e.ctr = SignedSatCounter(cfg.ctrBits, 0);
        }
    }
    bimodal.assign(std::size_t{1} << cfg.baseBits, SatCounter(2, 2));

    for (unsigned t = 0; t < cfg.numTables; ++t) {
        idxFold[t].configure(histLen[t], cfg.tableBits);
        tagFold1[t].configure(histLen[t], cfg.tagBits);
        tagFold2[t].configure(histLen[t], cfg.tagBits - 1);
    }
}

std::uint32_t
Tage::baseIndex(Addr pc) const
{
    return static_cast<std::uint32_t>((pc >> 2) & ((1u << cfg.baseBits) - 1));
}

std::uint32_t
Tage::tableIndex(Addr pc, unsigned t) const
{
    std::uint64_t h = (pc >> 2) ^ ((pc >> 2) >> (cfg.tableBits - (t % 4)))
                      ^ idxFold[t].comp ^ (pathHist & 0xffff) * (t + 1);
    return static_cast<std::uint32_t>(h & ((1u << cfg.tableBits) - 1));
}

std::uint16_t
Tage::tableTag(Addr pc, unsigned t) const
{
    std::uint64_t h = (pc >> 2) ^ tagFold1[t].comp ^ (tagFold2[t].comp << 1);
    return static_cast<std::uint16_t>(h & ((1u << cfg.tagBits) - 1));
}

TagePrediction
Tage::predict(Addr pc) const
{
    TagePrediction p;
    p.baseIndex = baseIndex(pc);
    bool base_pred = bimodal[p.baseIndex].isSet();

    for (unsigned t = 0; t < cfg.numTables; ++t) {
        p.index[t] = tableIndex(pc, t);
        p.tag[t] = tableTag(pc, t);
    }

    // Find provider (longest history match) and alternate.
    for (int t = static_cast<int>(cfg.numTables) - 1; t >= 0; --t) {
        const Entry& e = tables[t][p.index[t]];
        if (e.tag == p.tag[t]) {
            if (p.provider < 0) {
                p.provider = t;
            } else if (p.alt < 0) {
                p.alt = t;
                break;
            }
        }
    }

    p.altPred = p.alt >= 0 ? tables[p.alt][p.index[p.alt]].ctr.taken()
                           : base_pred;

    if (p.provider >= 0) {
        const Entry& e = tables[p.provider][p.index[p.provider]];
        p.providerPred = e.ctr.taken();
        // Newly-allocated heuristic: weak counter and not yet useful.
        bool newly_alloc = e.ctr.isWeak() && e.useful == 0;
        p.usedAlt = newly_alloc && useAltOnNa.value() >= 0;
        p.taken = p.usedAlt ? p.altPred : p.providerPred;

        bool newly_allocated = e.ctr.isWeak() && e.useful == 0;
        if (e.ctr.isSaturated()) {
            p.conf = Confidence::High;
        } else if (newly_allocated || p.usedAlt) {
            p.conf = Confidence::Low;
        } else {
            p.conf = Confidence::Med;
        }
    } else {
        p.providerPred = base_pred;
        p.altPred = base_pred;
        p.taken = base_pred;
        const SatCounter& b = bimodal[p.baseIndex];
        p.conf = b.isSaturated() ? Confidence::High : Confidence::Low;
    }
    return p;
}

void
Tage::specUpdateHistory(bool taken, Addr pc)
{
    ghist.push(taken);
    pathHist = ((pathHist << 1) | ((pc >> 2) & 1)) & 0xffffffff;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        bool old_bit = ghist.bit(histLen[t]);
        idxFold[t].update(taken, old_bit);
        tagFold1[t].update(taken, old_bit);
        tagFold2[t].update(taken, old_bit);
    }
}

TageHistState
Tage::snapshot() const
{
    TageHistState s;
    s.ghistPos = ghist.position();
    s.pathHist = pathHist;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        s.idxFold[t] = idxFold[t].comp;
        s.tagFold1[t] = tagFold1[t].comp;
        s.tagFold2[t] = tagFold2[t].comp;
    }
    return s;
}

void
Tage::restore(const TageHistState& s)
{
    ghist.setPosition(s.ghistPos);
    pathHist = s.pathHist;
    for (unsigned t = 0; t < cfg.numTables; ++t) {
        idxFold[t].comp = s.idxFold[t];
        tagFold1[t].comp = s.tagFold1[t];
        tagFold2[t].comp = s.tagFold2[t];
    }
}

void
Tage::update(Addr pc, const TagePrediction& p, bool taken)
{
    (void)pc;
    ++tick;

    // Periodic useful-bit aging.
    if (tick % cfg.usefulResetPeriod == 0) {
        for (auto& tab : tables) {
            for (auto& e : tab) {
                e.useful >>= 1;
            }
        }
    }

    const bool mispredicted = p.taken != taken;

    if (p.provider >= 0) {
        Entry& e = tables[p.provider][p.index[p.provider]];

        // use_alt_on_na bookkeeping for newly allocated entries.
        if (e.ctr.isWeak() && e.useful == 0 && p.providerPred != p.altPred) {
            useAltOnNa.update(p.altPred == taken);
        }

        e.ctr.update(taken);
        if (p.providerPred != p.altPred) {
            if (p.providerPred == taken) {
                if (e.useful < 3) {
                    ++e.useful;
                }
            } else if (e.useful > 0) {
                --e.useful;
            }
        }
        // Keep the bimodal base trained as well when it acted as alt.
        if (p.alt < 0) {
            if (taken) {
                bimodal[p.baseIndex].increment();
            } else {
                bimodal[p.baseIndex].decrement();
            }
        }
    } else {
        if (taken) {
            bimodal[p.baseIndex].increment();
        } else {
            bimodal[p.baseIndex].decrement();
        }
    }

    // Allocation on misprediction: claim up to one entry in a longer table.
    if (mispredicted && p.provider < static_cast<int>(cfg.numTables) - 1) {
        int start = p.provider + 1;
        // Randomise the first candidate a little (Seznec-style).
        allocSeed = mix64(allocSeed);
        if ((allocSeed & 3) == 0 &&
            start + 1 < static_cast<int>(cfg.numTables)) {
            ++start;
        }
        bool allocated = false;
        for (int t = start; t < static_cast<int>(cfg.numTables); ++t) {
            Entry& e = tables[t][p.index[t]];
            if (e.useful == 0) {
                e.tag = p.tag[t];
                e.ctr = SignedSatCounter(cfg.ctrBits, taken ? 0 : -1);
                e.useful = 0;
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            for (int t = start; t < static_cast<int>(cfg.numTables); ++t) {
                Entry& e = tables[t][p.index[t]];
                if (e.useful > 0) {
                    --e.useful;
                }
            }
        }
    }
}

std::uint64_t
Tage::storageBits() const
{
    std::uint64_t bits = (std::uint64_t{1} << cfg.baseBits) * 2;
    std::uint64_t per_entry = cfg.tagBits + cfg.ctrBits + 2;
    bits += cfg.numTables * (std::uint64_t{1} << cfg.tableBits) * per_entry;
    return bits;
}

} // namespace udp

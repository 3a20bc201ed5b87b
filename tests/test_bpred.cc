/**
 * @file
 * Tests for branch prediction: global/folded history, TAGE learning and
 * checkpoint/restore, loop predictor, statistical corrector, BTB, IBTB,
 * RAS and the BPU facade.
 */

#include <gtest/gtest.h>

#include "bpred/bpu.h"
#include "common/rng.h"

namespace udp {
namespace {

// --------------------------------------------------------------- history

TEST(GlobalHistory, PushAndBit)
{
    GlobalHistory h(256);
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_TRUE(h.bit(0));
    EXPECT_FALSE(h.bit(1));
    EXPECT_TRUE(h.bit(2));
}

TEST(GlobalHistory, RecentPacksNewestFirst)
{
    GlobalHistory h(256);
    h.push(true);
    h.push(true);
    h.push(false); // newest
    EXPECT_EQ(h.recent(3), 0b110u);
}

TEST(GlobalHistory, PositionRestoreReplays)
{
    GlobalHistory h(256);
    for (int i = 0; i < 10; ++i) {
        h.push(i % 2 == 0);
    }
    std::uint64_t pos = h.position();
    bool b0 = h.bit(0);
    h.push(true);
    h.push(true);
    h.setPosition(pos);
    EXPECT_EQ(h.bit(0), b0);
}

/**
 * Property: the incrementally folded history must equal a from-scratch
 * fold of the same bit sequence, for several (length, width) geometries.
 */
class FoldedHistoryProperty
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(FoldedHistoryProperty, MatchesFromScratchFold)
{
    auto [length, width] = GetParam();
    GlobalHistory ghist(1 << 12);
    FoldedHistory fold;
    fold.configure(length, width);

    Rng rng(1234 + length * 7 + width);
    for (int i = 0; i < 2000; ++i) {
        bool bit = rng.chance(0.5);
        ghist.push(bit);
        fold.update(bit, ghist.bit(length));

        if (i % 97 == 0) {
            // Recompute the fold from scratch over the last `length` bits.
            std::uint32_t scratch = 0;
            for (int j = static_cast<int>(length) - 1; j >= 0; --j) {
                scratch = (scratch << 1) |
                          (ghist.bit(static_cast<std::size_t>(j)) ? 1 : 0);
                scratch = (scratch ^ (scratch >> width)) &
                          ((1u << width) - 1);
            }
            EXPECT_EQ(fold.comp, scratch)
                << "len=" << length << " width=" << width << " step=" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FoldedHistoryProperty,
    ::testing::Values(std::make_pair(8u, 10u), std::make_pair(21u, 10u),
                      std::make_pair(64u, 11u), std::make_pair(130u, 11u),
                      std::make_pair(640u, 11u)));

// ------------------------------------------------------------------ TAGE

TageConfig
smallTage()
{
    TageConfig c;
    c.numTables = 6;
    c.baseBits = 12;
    c.tableBits = 9;
    c.maxHist = 128;
    return c;
}

TEST(Tage, LearnsStronglyBiasedBranch)
{
    Tage tage(smallTage());
    Addr pc = 0x400100;
    int mispredicts = 0;
    for (int i = 0; i < 2000; ++i) {
        TagePrediction p = tage.predict(pc);
        bool outcome = true; // always taken
        if (p.taken != outcome && i > 100) {
            ++mispredicts;
        }
        tage.specUpdateHistory(outcome, pc);
        tage.update(pc, p, outcome);
    }
    EXPECT_LT(mispredicts, 5);
}

TEST(Tage, LearnsAlternatingPattern)
{
    Tage tage(smallTage());
    Addr pc = 0x400200;
    int mispredicts = 0;
    for (int i = 0; i < 4000; ++i) {
        TagePrediction p = tage.predict(pc);
        bool outcome = (i % 2) == 0;
        if (p.taken != outcome && i > 1000) {
            ++mispredicts;
        }
        tage.specUpdateHistory(outcome, pc);
        tage.update(pc, p, outcome);
    }
    EXPECT_LT(mispredicts / 3000.0, 0.05);
}

TEST(Tage, LearnsHistoryCorrelatedBranch)
{
    Tage tage(smallTage());
    Addr pc_a = 0x400300;
    Addr pc_b = 0x400304;
    Rng rng(5);
    int mispredicts = 0;
    int total = 0;
    bool last_a = false;
    for (int i = 0; i < 6000; ++i) {
        // Branch A: random. Branch B: equals A's last outcome.
        TagePrediction pa = tage.predict(pc_a);
        bool a = rng.chance(0.5);
        tage.specUpdateHistory(a, pc_a);
        tage.update(pc_a, pa, a);
        last_a = a;

        TagePrediction pb = tage.predict(pc_b);
        bool b = last_a;
        if (i > 2000) {
            ++total;
            mispredicts += pb.taken != b;
        }
        tage.specUpdateHistory(b, pc_b);
        tage.update(pc_b, pb, b);
    }
    EXPECT_LT(static_cast<double>(mispredicts) / total, 0.10);
}

TEST(Tage, SnapshotRestoreRoundTrip)
{
    Tage tage(smallTage());
    Rng rng(17);
    for (int i = 0; i < 500; ++i) {
        tage.specUpdateHistory(rng.chance(0.5), 0x400000 + i * 4);
    }
    TageHistState snap = tage.snapshot();
    TagePrediction before = tage.predict(0x400abc);

    // Speculate down some path...
    for (int i = 0; i < 50; ++i) {
        tage.specUpdateHistory(rng.chance(0.5), 0x400f00 + i * 4);
    }
    // ...then recover.
    tage.restore(snap);
    TagePrediction after = tage.predict(0x400abc);

    EXPECT_EQ(before.taken, after.taken);
    EXPECT_EQ(before.provider, after.provider);
    for (unsigned t = 0; t < smallTage().numTables; ++t) {
        EXPECT_EQ(before.index[t], after.index[t]);
        EXPECT_EQ(before.tag[t], after.tag[t]);
    }
}

TEST(Tage, ConfidenceHighForStableBranch)
{
    Tage tage(smallTage());
    Addr pc = 0x400400;
    for (int i = 0; i < 500; ++i) {
        TagePrediction p = tage.predict(pc);
        tage.specUpdateHistory(true, pc);
        tage.update(pc, p, true);
    }
    EXPECT_EQ(tage.predict(pc).conf, Confidence::High);
}

TEST(Tage, StorageBitsPlausible)
{
    Tage tage{TageConfig{}};
    // Default config should land in the tens-of-KB class (Ishii-style).
    EXPECT_GT(tage.storageBits() / 8, 30'000u);
    EXPECT_LT(tage.storageBits() / 8, 120'000u);
}

// --------------------------------------------------------- loop predictor

TEST(LoopPredictor, LearnsFixedTrip)
{
    LoopPredictor lp{LoopPredictorConfig{}};
    Addr pc = 0x400500;
    // Train several full loops of trip 7 (6 taken, 1 not-taken).
    for (int loop = 0; loop < 8; ++loop) {
        for (int i = 0; i < 6; ++i) {
            lp.update(pc, true);
        }
        lp.update(pc, false);
    }
    // Now confident: predicts taken for 6, not-taken on the exit.
    for (int i = 0; i < 6; ++i) {
        LoopPrediction p = lp.predict(pc);
        ASSERT_TRUE(p.valid);
        EXPECT_TRUE(p.taken) << "iteration " << i;
        lp.update(pc, true);
    }
    LoopPrediction exit = lp.predict(pc);
    ASSERT_TRUE(exit.valid);
    EXPECT_FALSE(exit.taken);
    lp.update(pc, false);
}

TEST(LoopPredictor, NotConfidentForIrregularTrips)
{
    LoopPredictor lp{LoopPredictorConfig{}};
    Addr pc = 0x400600;
    Rng rng(3);
    for (int loop = 0; loop < 20; ++loop) {
        int trip = static_cast<int>(rng.range(4, 12));
        for (int i = 0; i < trip - 1; ++i) {
            lp.update(pc, true);
        }
        lp.update(pc, false);
    }
    EXPECT_FALSE(lp.predict(pc).valid);
}

TEST(LoopPredictor, IgnoresShortTrips)
{
    LoopPredictor lp{LoopPredictorConfig{}};
    Addr pc = 0x400700;
    for (int loop = 0; loop < 10; ++loop) {
        lp.update(pc, true);
        lp.update(pc, false); // trip 2: below the minimum
    }
    EXPECT_FALSE(lp.predict(pc).valid);
}

// --------------------------------------------------- statistical corrector

TEST(StatisticalCorrector, NeverOverridesHighConfidence)
{
    StatisticalCorrector sc{ScConfig{}};
    for (int i = 0; i < 200; ++i) {
        ScPrediction p = sc.predict(0x400800, i, true, true);
        EXPECT_FALSE(p.used);
        sc.update(p, true, false); // train against
    }
}

TEST(StatisticalCorrector, CanLearnToVeto)
{
    StatisticalCorrector sc{ScConfig{}};
    Addr pc = 0x400900;
    // TAGE keeps saying taken (low confidence); reality is not-taken.
    bool vetoed = false;
    for (int i = 0; i < 500; ++i) {
        ScPrediction p = sc.predict(pc, 0, true, false);
        if (p.used && !p.taken) {
            vetoed = true;
        }
        sc.update(p, true, false);
    }
    EXPECT_TRUE(vetoed);
}

// ------------------------------------------------------------------- BTB

TEST(Btb, InsertLookup)
{
    Btb btb{BtbConfig{}};
    btb.insert(0x400000, BranchKind::Jump, 0x400100);
    const BtbEntry* e = btb.lookup(0x400000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->kind, BranchKind::Jump);
    EXPECT_EQ(e->target, 0x400100u);
    EXPECT_EQ(btb.lookup(0x400004), nullptr);
}

TEST(Btb, UpdateInPlace)
{
    Btb btb{BtbConfig{}};
    btb.insert(0x400000, BranchKind::IndirectJump, 0x400100);
    btb.insert(0x400000, BranchKind::IndirectJump, 0x400200);
    const BtbEntry* e = btb.probe(0x400000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->target, 0x400200u);
    EXPECT_EQ(btb.stats().inserts, 1u); // second insert was an update
}

class BtbAssocSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BtbAssocSweep, LruEvictsOldest)
{
    unsigned assoc = GetParam();
    BtbConfig cfg;
    cfg.numEntries = 64 * assoc;
    cfg.assoc = assoc;
    Btb btb(cfg);

    // Fill one set with assoc+1 conflicting entries.
    std::vector<Addr> pcs;
    for (unsigned i = 0; i <= assoc; ++i) {
        // Same set: stride = numSets * 4 bytes.
        pcs.push_back(0x400000 + Addr{i} * 64 * 4);
    }
    for (Addr pc : pcs) {
        btb.insert(pc, BranchKind::Jump, pc + 64);
    }
    // The first inserted (LRU) entry must be gone; the rest present.
    EXPECT_EQ(btb.probe(pcs[0]), nullptr);
    for (unsigned i = 1; i <= assoc; ++i) {
        EXPECT_NE(btb.probe(pcs[i]), nullptr) << "way " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Assocs, BtbAssocSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Btb, LookupTouchesLru)
{
    BtbConfig cfg;
    cfg.numEntries = 64 * 2;
    cfg.assoc = 2;
    Btb btb(cfg);
    Addr a = 0x400000;
    Addr b = a + 64 * 4;
    Addr c = b + 64 * 4;
    btb.insert(a, BranchKind::Jump, 1 * 4 + 0x400000);
    btb.insert(b, BranchKind::Jump, 2 * 4 + 0x400000);
    btb.lookup(a); // touch a so b becomes LRU
    btb.insert(c, BranchKind::Jump, 3 * 4 + 0x400000);
    EXPECT_NE(btb.probe(a), nullptr);
    EXPECT_EQ(btb.probe(b), nullptr);
}

/**
 * Reference model: the BTB as an array of per-way (valid, tag, entry,
 * LRU) records with a divided tag, the layout the flat Btb replaced.
 */
class RefBtb
{
  public:
    RefBtb(unsigned entries, unsigned assoc)
        : assoc(assoc), numSets(entries / assoc), ways(entries)
    {
    }

    const BtbEntry*
    lookup(Addr pc)
    {
        ++stats.lookups;
        Way* way = find(pc);
        if (!way) {
            return nullptr;
        }
        way->lru = ++lruClock;
        ++stats.hits;
        return &way->entry;
    }

    const BtbEntry*
    probe(Addr pc)
    {
        Way* way = find(pc);
        return way ? &way->entry : nullptr;
    }

    void
    insert(Addr pc, BranchKind kind, Addr target)
    {
        Way* victim = nullptr;
        for (unsigned w = 0; w < assoc; ++w) {
            Way& way = ways[setOf(pc) * assoc + w];
            if (way.valid && way.tag == tagOf(pc)) {
                way.entry = BtbEntry{kind, target};
                way.lru = ++lruClock;
                return;
            }
            if (!way.valid) {
                if (!victim || victim->valid) {
                    victim = &way;
                }
            } else if (!victim || (victim->valid && way.lru < victim->lru)) {
                victim = &way;
            }
        }
        if (victim->valid) {
            ++stats.evictions;
        }
        *victim = Way{true, tagOf(pc), BtbEntry{kind, target}, ++lruClock};
        ++stats.inserts;
    }

    BtbStats stats;

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        BtbEntry entry;
        std::uint64_t lru = 0;
    };

    std::size_t setOf(Addr pc) const { return (pc >> 2) & (numSets - 1); }
    Addr tagOf(Addr pc) const { return (pc >> 2) / numSets; }

    Way*
    find(Addr pc)
    {
        for (unsigned w = 0; w < assoc; ++w) {
            Way& way = ways[setOf(pc) * assoc + w];
            if (way.valid && way.tag == tagOf(pc)) {
                return &way;
            }
        }
        return nullptr;
    }

    unsigned assoc;
    std::size_t numSets;
    std::vector<Way> ways;
    std::uint64_t lruClock = 0;
};

TEST(Btb, MatchesPerWayReferenceModel)
{
    BtbConfig cfg;
    cfg.numEntries = 64;
    cfg.assoc = 4;
    Btb btb(cfg);
    RefBtb ref(cfg.numEntries, cfg.assoc);

    // Six consecutive tags in each of the 16 sets against four ways, so
    // sets overflow and neighbouring tags must stay distinct.
    std::vector<Addr> pcs;
    for (Addr tag = 0; tag < 6; ++tag) {
        for (Addr set = 0; set < 16; ++set) {
            pcs.push_back(0x400000 + (tag * 16 + set) * 4);
        }
    }
    Rng rng(2024);
    for (int step = 0; step < 20000; ++step) {
        Addr pc = pcs[rng.below(pcs.size())];
        if (rng.chance(0.4)) {
            auto kind = static_cast<BranchKind>(1 + rng.below(6));
            Addr target = 0x500000 + rng.below(1024) * 4;
            btb.insert(pc, kind, target);
            ref.insert(pc, kind, target);
            // Equal contents after every insert: the victims agree.
            for (Addr q : pcs) {
                const BtbEntry* got = btb.probe(q);
                const BtbEntry* want = ref.probe(q);
                ASSERT_EQ(got != nullptr, want != nullptr)
                    << "pc " << q << " step " << step;
                if (got) {
                    ASSERT_EQ(got->kind, want->kind);
                    ASSERT_EQ(got->target, want->target);
                }
            }
        } else {
            const BtbEntry* got = btb.lookup(pc);
            const BtbEntry* want = ref.lookup(pc);
            ASSERT_EQ(got != nullptr, want != nullptr)
                << "pc " << pc << " step " << step;
            if (got) {
                ASSERT_EQ(got->kind, want->kind);
                ASSERT_EQ(got->target, want->target);
            }
        }
    }
    EXPECT_EQ(btb.stats().lookups, ref.stats.lookups);
    EXPECT_EQ(btb.stats().hits, ref.stats.hits);
    EXPECT_EQ(btb.stats().inserts, ref.stats.inserts);
    EXPECT_EQ(btb.stats().evictions, ref.stats.evictions);
    EXPECT_GT(btb.stats().evictions, 1000u);
    EXPECT_GT(btb.stats().hits, 1000u);
}

// ------------------------------------------------------------------ IBTB

TEST(Ibtb, LearnsStableTarget)
{
    Ibtb ibtb{IbtbConfig{}};
    Addr pc = 0x400000;
    Addr target = 0x480000;
    for (int i = 0; i < 10; ++i) {
        IbtbPrediction p = ibtb.predict(pc, 0);
        ibtb.update(pc, p, target);
    }
    EXPECT_EQ(ibtb.predict(pc, 0).target, target);
}

TEST(Ibtb, LearnsHistoryDependentTargets)
{
    Ibtb ibtb{IbtbConfig{}};
    Addr pc = 0x400000;
    int correct = 0;
    int total = 0;
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t hist = static_cast<std::uint64_t>(i % 4);
        Addr target = 0x480000 + hist * 0x1000;
        IbtbPrediction p = ibtb.predict(pc, hist);
        if (i > 1000) {
            ++total;
            correct += p.target == target;
        }
        ibtb.update(pc, p, target);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(Ibtb, ColdReturnsInvalid)
{
    Ibtb ibtb{IbtbConfig{}};
    EXPECT_EQ(ibtb.predict(0x412340, 7).target, kInvalidAddr);
}

// ------------------------------------------------------------------- RAS

TEST(Ras, PushPopLifo)
{
    Ras ras(8);
    ras.push(0x1000);
    ras.push(0x2000);
    EXPECT_EQ(ras.pop(), 0x2000u);
    EXPECT_EQ(ras.pop(), 0x1000u);
}

TEST(Ras, CheckpointRepairsTop)
{
    Ras ras(8);
    ras.push(0x1000);
    ras.push(0x2000);
    RasCheckpoint ck = ras.checkpoint();
    ras.pop();
    ras.push(0x9999);
    ras.push(0x8888);
    ras.restore(ck);
    EXPECT_EQ(ras.pop(), 0x2000u);
    EXPECT_EQ(ras.pop(), 0x1000u);
}

TEST(Ras, WrapsWithoutCrashing)
{
    Ras ras(4);
    for (Addr i = 0; i < 10; ++i) {
        ras.push(0x1000 + i * 4);
    }
    EXPECT_EQ(ras.pop(), 0x1000u + 9 * 4);
}

// -------------------------------------------------------------------- BPU

TEST(Bpu, CheckpointRecoverRoundTrip)
{
    Bpu bpu{BpuConfig{}};
    // Train one branch strongly not-taken so speculation can push 0 bits
    // (a cold predictor predicts everything taken).
    Addr pc_nt = 0x500000;
    for (int i = 0; i < 64; ++i) {
        CondPredRecord rec = bpu.predictCond(pc_nt);
        bpu.trainCond(pc_nt, rec, false);
    }
    Rng rng(21);
    for (int i = 0; i < 200; ++i) {
        bpu.predictCond(0x400000 + (rng.next() % 1024) * 4);
    }
    BpuCheckpoint ck = bpu.checkpoint();
    std::uint64_t hist_before = bpu.history64();

    for (int i = 0; i < 4; ++i) {
        CondPredRecord rec = bpu.predictCond(pc_nt); // pushes 0
        EXPECT_FALSE(rec.taken);
        bpu.predictCond(0x400010); // pushes (likely) 1
    }
    EXPECT_NE(bpu.history64(), hist_before);

    bpu.recoverTo(ck, 0x400abc, true, true);
    // History = checkpoint + the resolved outcome bit.
    EXPECT_EQ(bpu.history64(), (hist_before << 1) | 1);
}

TEST(Bpu, TrainingImprovesAccuracy)
{
    Bpu bpu{BpuConfig{}};
    Addr pc = 0x400010;
    int early_misses = 0;
    int late_misses = 0;
    for (int i = 0; i < 2000; ++i) {
        CondPredRecord rec = bpu.predictCond(pc);
        bool outcome = (i % 4) != 3; // 3 taken, 1 not
        bool miss = rec.taken != outcome;
        (i < 200 ? early_misses : late_misses) += miss;
        bpu.trainCond(pc, rec, outcome);
    }
    EXPECT_LT(late_misses / 1800.0, early_misses / 200.0 + 0.01);
}

TEST(Bpu, StorageAccounting)
{
    Bpu bpu{BpuConfig{}};
    // BTB (8K) + TAGE + IBTB etc.: order of 100-200KB total.
    EXPECT_GT(bpu.storageBits() / 8, 50'000u);
    EXPECT_LT(bpu.storageBits() / 8, 400'000u);
}

} // namespace
} // namespace udp
